"""``Sofia.forecast`` (Eq. 28) against per-horizon Kruskal reconstructions.

The forecast builds all horizons in one GEMM; each slice must agree
with its own ``kruskal_to_tensor`` call to within one ulp (BLAS builds
may tile a taller product differently), keep the model's dtype, and
stay off the kernel seam entirely.
"""

import numpy as np
import pytest

from repro.core import Sofia, SofiaConfig
from repro.core.model import SofiaModelState
from repro.forecast.vector_hw import VectorHoltWinters
from repro.tensor import kernels, kruskal_to_tensor

RANK = 3
PERIOD = 4


def make_model(dims, dtype, seed=0):
    rng = np.random.default_rng(seed)
    hw = VectorHoltWinters(
        level=rng.normal(size=RANK),
        trend=rng.normal(scale=0.1, size=RANK),
        seasonal=rng.normal(size=(PERIOD, RANK)),
        alpha=rng.uniform(size=RANK),
        beta=rng.uniform(size=RANK),
        gamma=rng.uniform(size=RANK),
    )
    state = SofiaModelState(
        non_temporal=[rng.normal(size=(d, RANK)).astype(dtype) for d in dims],
        temporal_buffer=rng.normal(size=(PERIOD, RANK)),
        hw=hw,
        sigma=np.ones(dims, dtype=dtype),
        t=3 * PERIOD,
    )
    config = SofiaConfig(rank=RANK, period=PERIOD, dtype=np.dtype(dtype).name)
    return Sofia.from_state(config, state)


@pytest.mark.parametrize("dims", [(7, 5), (6, 4, 3)])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("horizon", [1, 2 * PERIOD + 1])
def test_matches_per_horizon_kruskal(dims, dtype, horizon):
    model = make_model(dims, dtype)
    weights = model.state.hw.forecast(horizon).astype(dtype)
    expected = np.stack(
        [
            kruskal_to_tensor(model.state.non_temporal, weights=row)
            for row in weights
        ]
    )
    got = model.forecast(horizon)
    assert got.shape == (horizon, *dims)
    assert got.dtype == dtype
    np.testing.assert_array_max_ulp(got, expected, maxulp=1)


def test_makes_no_kernel_calls(monkeypatch):
    model = make_model((7, 5), np.float64)
    calls = []
    for name in kernels.__all__:
        original = getattr(kernels, name)
        if not callable(original) or isinstance(original, type):
            continue

        def counting(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(kernels, name, counting)
    model.forecast(12)
    assert calls == []
