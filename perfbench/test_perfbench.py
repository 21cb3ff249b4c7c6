"""Tests of the benchmark itself: traffic, oracle, calibration, tail helper.

Run from the root of a checkout::

    python3 -m pytest perfbench
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import calibrate  # noqa: E402
import traffic as T  # noqa: E402
from stats import TAIL_BEYOND, tail  # noqa: E402
from workloads import Ledger, Outcome  # noqa: E402


def test_traffic_is_deterministic_under_a_seed():
    first, again, other = T.make_traffic(7), T.make_traffic(7), T.make_traffic(8)
    for name in ("clean", "startup_values", "startup_masks", "values", "masks"):
        assert np.array_equal(getattr(first, name), getattr(again, name))
    assert not np.array_equal(first.values, other.values)
    assert not np.array_equal(first.masks, other.masks)


def test_blackout_batches_fall_below_the_density_threshold():
    traffic = T.make_traffic(7)
    threshold = T.CONFIG.density_threshold
    for epoch in range(T.EPOCHS):
        density = traffic.batch(0, epoch)[1].mean()
        assert (density < threshold) == T.is_blackout_epoch(epoch)
    assert np.all(traffic.values[~traffic.masks] == 0.0)


def _ledger(expected):
    reference = T.Reference(
        imputes=[[expected]], forecasts=[{}], impute_nre=0.0, forecast_nre=0.0
    )
    return Ledger(reference, Outcome())


def test_oracle_flags_a_one_ulp_mismatch():
    expected = np.linspace(0.5, 2.0, 12).reshape(3, 4)
    served = expected.copy()
    served[1, 2] = np.nextafter(served[1, 2], np.inf)
    ledger = _ledger(expected)
    ledger.check("impute", expected.copy(), expected)
    assert ledger.outcome.failed == 0
    ledger.check("impute", served, expected)
    assert ledger.outcome.failed == 1
    assert ledger.outcome.problems


def test_oracle_tells_signed_zeros_apart():
    expected = np.zeros(3)
    ledger = _ledger(expected)
    ledger.check("forecast", -expected, expected)
    assert ledger.outcome.failed == 1


def test_failing_operation_counts_as_failed():
    ledger = _ledger(np.zeros(1))

    def broken():
        raise RuntimeError("boom")

    result, _ = ledger.call("impute", True, broken)
    assert result is None
    assert (ledger.outcome.attempted, ledger.outcome.failed) == (1, 1)
    assert "impute" not in ledger.latency


def test_calibration_scales_work_by_the_mean_of_its_brackets(monkeypatch):
    # The host ran the kernel at 1/1.5 and 1/2.5 of nominal speed around
    # the work: it ran twice as slow as nominal on average.
    readings = iter([1.5 * calibrate.NOMINAL_S, 2.5 * calibrate.NOMINAL_S])
    monkeypatch.setattr(calibrate, "measure", lambda: next(readings))
    ledger = _ledger(np.zeros(1))
    ledger.calibrate()
    ledger.call("impute", True, sum, range(1000))
    ledger.call("impute", False, sum, range(1000))
    ledger.epoch(3.0, 17)
    assert ledger.scaled == {}
    ledger.calibrate()
    assert ledger.scaled["impute"] == [0.5 * ledger.latency["impute"][0]]
    assert ledger.scaled_seconds == pytest.approx(1.5)
    assert (ledger.seconds, ledger.slices) == (3.0, 17)


@pytest.mark.parametrize(
    "n, percentile, index",
    [(1000, 99.0, 989), (2048, 100.0 * 2038 / 2048, 2037), (11, 100.0 / 11, 0)],
)
def test_tail_leaves_ten_samples_beyond(n, percentile, index):
    samples = list(np.random.default_rng(0).permutation(n).astype(float))
    value, got_percentile, got_n = tail(samples)
    assert got_n == n
    assert got_percentile == pytest.approx(percentile)
    assert value == sorted(samples)[index]
    assert sum(sample > value for sample in samples) == TAIL_BEYOND


def test_tail_of_few_samples_is_the_maximum():
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    assert tail([]) == (0.0, 0.0, 0)
