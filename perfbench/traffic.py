"""The shared traffic every workload replays, and its bare-model oracle.

One *pass* of traffic is ``N_STREAMS`` independent streams of
``EPOCHS`` epochs each.  All streams share one clean low-rank seasonal
signal (``seasonal_stream``, 40x30 slices, rank 5, period 12); each
stream corrupts it independently at the paper's (50, 20, 4) setting.
An epoch of a stream is

* ``BATCH`` ingested slices (one size-triggered ``step_batch`` of 16),
* one synchronous ``impute`` of the next slice, and
* a ``forecast(HORIZON)`` when ``is_forecast_epoch(epoch)``.

In blackout epochs (``is_blackout_epoch``) the ingested slices are
``BLACKOUT_DENSITY`` observed, below the model's 5% density threshold,
so those batches take the sparse execution path.

Every workload starts each pass from the same fitted checkpoint, so a
pass is a pure function of the seed: outputs, NREs and counters repeat
exactly from pass to pass and from run to run.  Unobserved entries are
sent as zeros, so no clean value leaks to the model through the wire.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import Sofia, SofiaConfig
from repro.core.serialization import dumps_sofia, loads_sofia
from repro.datasets import seasonal_stream
from repro.streams.corruption import CorruptionSpec, corrupt

DIMS = (40, 30)
RANK = 5
PERIOD = 12
BATCH = 16
HORIZON = 12
EPOCHS = 4
N_STREAMS = 16
BLACKOUT_DENSITY = 0.03
SPEC = CorruptionSpec(50, 20, 4)
CONFIG = SofiaConfig(rank=RANK, period=PERIOD)
#: Seed of the clean signal and of the start-up window's corruption.
SIGNAL_SEED = 0

#: Slices a stream consumes per epoch: the batch plus the imputed one.
EPOCH_SLICES = BATCH + 1
#: Slices one pass applies across all streams.
PASS_SLICES = N_STREAMS * EPOCHS * EPOCH_SLICES


def is_blackout_epoch(epoch: int) -> bool:
    return epoch % 4 == 1


def is_forecast_epoch(epoch: int) -> bool:
    return epoch % 4 == 3


@dataclass(frozen=True)
class Traffic:
    """Generated inputs of one seed (time on the first axis)."""

    seed: int
    clean: np.ndarray
    startup_values: np.ndarray
    startup_masks: np.ndarray
    values: np.ndarray  # (N_STREAMS, EPOCHS * EPOCH_SLICES, *DIMS)
    masks: np.ndarray

    def batch(self, stream: int, epoch: int):
        start = epoch * EPOCH_SLICES
        stop = start + BATCH
        return self.values[stream, start:stop], self.masks[stream, start:stop]

    def impute_slice(self, stream: int, epoch: int):
        index = epoch * EPOCH_SLICES + BATCH
        return self.values[stream, index], self.masks[stream, index]

    def clean_impute(self, epoch: int) -> np.ndarray:
        return self.clean[
            CONFIG.init_steps + epoch * EPOCH_SLICES + BATCH
        ]

    def clean_future(self, epoch: int) -> np.ndarray:
        """The ``HORIZON`` clean slices after ``epoch``'s impute."""
        start = CONFIG.init_steps + (epoch + 1) * EPOCH_SLICES
        return self.clean[start:start + HORIZON]


def make_traffic(seed: int) -> Traffic:
    """Deterministic traffic for ``seed`` (same seed, same arrays).

    The clean signal and the start-up window the model is fitted on
    come from the fixed ``SIGNAL_SEED``; ``seed`` draws the corruption
    of every stream's epochs.  The fitted model is thus the same in
    every run, and the run-to-run spread of the NREs measures the
    traffic, not the luck of one fit.
    """
    n_steps = CONFIG.init_steps + EPOCHS * EPOCH_SLICES + HORIZON
    signal_seeds = np.random.SeedSequence(SIGNAL_SEED).spawn(2)
    signal = seasonal_stream(
        DIMS, RANK, PERIOD, n_steps,
        seed=np.random.default_rng(signal_seeds[0]),
    )
    startup = corrupt(
        signal.data[..., :CONFIG.init_steps],
        SPEC,
        seed=np.random.default_rng(signal_seeds[1]),
    )
    startup_masks = np.moveaxis(startup.mask, -1, 0)
    startup_values = np.where(
        startup_masks, np.moveaxis(startup.observed, -1, 0), 0.0
    )
    clean = np.moveaxis(signal.data, -1, 0)
    body = signal.data[..., CONFIG.init_steps:]
    seeds = np.random.SeedSequence(seed).spawn(2 * N_STREAMS)
    values, masks = [], []
    for stream in range(N_STREAMS):
        corrupted = corrupt(
            body, SPEC, seed=np.random.default_rng(seeds[stream])
        )
        mask = np.moveaxis(corrupted.mask, -1, 0)
        rng = np.random.default_rng(seeds[N_STREAMS + stream])
        for epoch in range(EPOCHS):
            if is_blackout_epoch(epoch):
                start = epoch * EPOCH_SLICES
                window = mask[start:start + BATCH]
                window[...] = rng.random(window.shape) < BLACKOUT_DENSITY
        observed = np.moveaxis(corrupted.observed, -1, 0)
        stop = EPOCHS * EPOCH_SLICES
        values.append(np.where(mask, observed, 0.0)[:stop])
        masks.append(mask[:stop])
    return Traffic(
        seed=seed,
        clean=clean,
        startup_values=startup_values,
        startup_masks=startup_masks,
        values=np.stack(values),
        masks=np.stack(masks),
    )


def fit(traffic: Traffic) -> Sofia:
    """Fit the paper-default model on the start-up window."""
    model = Sofia(CONFIG)
    model.initialize(list(traffic.startup_values), list(traffic.startup_masks))
    return model


class Quality:
    """Pooled NRE of imputed (missing entries) and forecast slices."""

    def __init__(self) -> None:
        self._impute = [0.0, 0.0]
        self._forecast = [0.0, 0.0]

    def add_impute(self, completed, truth, mask) -> None:
        missing = ~np.asarray(mask, dtype=bool)
        error = np.asarray(completed)[missing] - truth[missing]
        self._impute[0] += float(error @ error)
        self._impute[1] += float(truth[missing] @ truth[missing])

    def add_forecast(self, forecast, truth) -> None:
        error = (np.asarray(forecast) - truth).ravel()
        self._forecast[0] += float(error @ error)
        self._forecast[1] += float(truth.ravel() @ truth.ravel())

    def nres(self) -> tuple[float, float]:
        return (
            float(np.sqrt(self._impute[0] / self._impute[1])),
            float(np.sqrt(self._forecast[0] / self._forecast[1])),
        )


@dataclass(frozen=True)
class Reference:
    """Bare-model outputs of one pass: ``[stream][epoch]``."""

    imputes: list[list[np.ndarray]]
    forecasts: list[dict[int, np.ndarray]]
    impute_nre: float
    forecast_nre: float


def run_stream(model: Sofia, traffic: Traffic, stream: int, on_output=None):
    """Drive one stream's epochs through a bare model.

    ``on_output(kind, epoch, array)`` sees every impute and forecast.
    This is the core_stream loop and the oracle's replay alike.
    """
    for epoch in range(EPOCHS):
        model.step_batch(*traffic.batch(stream, epoch))
        completed = model.impute(*traffic.impute_slice(stream, epoch))
        if on_output is not None:
            on_output("impute", epoch, completed)
        if is_forecast_epoch(epoch):
            forecast = model.forecast(HORIZON)
            if on_output is not None:
                on_output("forecast", epoch, forecast)


def reference(traffic: Traffic, checkpoint: bytes) -> Reference:
    """Replay one pass on bare models, untimed: the served outputs' oracle."""
    imputes: list[list[np.ndarray]] = []
    forecasts: list[dict[int, np.ndarray]] = []
    quality = Quality()
    for stream in range(N_STREAMS):
        stream_imputes: list[np.ndarray] = []
        stream_forecasts: dict[int, np.ndarray] = {}

        def keep(kind, epoch, array):
            if kind == "impute":
                stream_imputes.append(array)
                quality.add_impute(
                    array,
                    traffic.clean_impute(epoch),
                    traffic.impute_slice(stream, epoch)[1],
                )
            else:
                stream_forecasts[epoch] = array
                quality.add_forecast(array, traffic.clean_future(epoch))

        run_stream(loads_sofia(checkpoint), traffic, stream, keep)
        imputes.append(stream_imputes)
        forecasts.append(stream_forecasts)
    impute_nre, forecast_nre = quality.nres()
    return Reference(imputes, forecasts, impute_nre, forecast_nre)


def same_bits(served, expected) -> bool:
    """True when two float arrays are bit-for-bit identical."""
    a = np.ascontiguousarray(served, dtype=np.float64)
    b = np.ascontiguousarray(expected, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def checkpoint_bytes(model: Sofia) -> bytes:
    return dumps_sofia(model)
