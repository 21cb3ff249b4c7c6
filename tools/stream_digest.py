"""Print one SHA-256 digest over everything SOFIA's online phase outputs.

Replays a seeded, corrupted ``seasonal_stream`` through a bare
:class:`repro.core.Sofia` model: dense mini-batches of 16 slices, one
3%-dense blackout batch (the sparse execution path), single-slice
``impute`` calls on a dense and a sparse slice, and ``forecast(12)``.
Every output array (each ``SofiaStep`` field, the imputed slices, the
forecast) and every array of the final ``dumps_sofia`` checkpoint is
fed, with its dtype and shape, into one SHA-256.  The checkpoint is
hashed array by array because the ``.npz`` container stamps its members
with the wall-clock time.

A performance change to ``step_batch``/``step``/``impute``/``forecast``
must leave the digest unchanged.  Check it by running this script
against both source trees::

    python tools/stream_digest.py --seed 1 2 3
    python tools/stream_digest.py --seed 1 2 3 --src /path/to/old/src

``--src`` picks the ``repro`` package to import (default: this
checkout's ``src/``), so the script also runs against trees that
predate it.  It imports only NumPy and ``repro``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import pathlib
import sys

import numpy as np

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

DIMS = (40, 30)
RANK = 5
PERIOD = 12
BATCH = 16
HORIZON = 12
DENSE_BATCHES = 4
BLACKOUT_BATCH = 2
BLACKOUT_DENSITY = 0.03
SEASONAL_GAMMA = 0.1


def stream_digest(seed: int, dtype: str = "float64") -> str:
    """SHA-256 hex digest of one seeded replay (see the module docstring)."""
    from repro.core import Sofia, SofiaConfig
    from repro.core.serialization import dumps_sofia
    from repro.datasets import seasonal_stream
    from repro.streams.corruption import CorruptionSpec, corrupt

    config = SofiaConfig(rank=RANK, period=PERIOD, dtype=dtype)
    n_steps = config.init_steps + (DENSE_BATCHES + 1) * BATCH + 2
    rng = np.random.default_rng(seed)
    signal = seasonal_stream(DIMS, RANK, PERIOD, n_steps, seed=rng)
    corrupted = corrupt(signal.data, CorruptionSpec(50, 20, 4), seed=rng)
    values = np.moveaxis(corrupted.observed, -1, 0)
    masks = np.moveaxis(corrupted.mask, -1, 0).copy()
    values = np.where(masks, values, 0.0)

    digest = hashlib.sha256()

    def feed(array) -> None:
        arr = np.ascontiguousarray(array)
        digest.update(f"{arr.dtype.str}{arr.shape}".encode())
        digest.update(arr.tobytes())

    model = Sofia(config)
    start = config.init_steps
    model.initialize(list(values[:start]), list(masks[:start]))
    # The fit settles on gamma = 0 for these exactly periodic streams,
    # which would leave the seasonal recurrence (Eq. 26c) out of the
    # digest; a fixed nonzero gamma puts it back in.
    model.state.hw.gamma = np.full(RANK, SEASONAL_GAMMA)
    for batch in range(DENSE_BATCHES + 1):
        stop = start + BATCH
        window = masks[start:stop]
        if batch == BLACKOUT_BATCH:
            window[...] = rng.random(window.shape) < BLACKOUT_DENSITY
        for step in model.step_batch(values[start:stop], window):
            for field in (
                step.completed,
                step.outliers,
                step.prediction,
                step.temporal_forecast,
                step.temporal_vector,
            ):
                feed(field)
        start = stop
    feed(model.impute(values[start], masks[start]))
    sparse_mask = rng.random(DIMS) < BLACKOUT_DENSITY
    feed(model.impute(values[start + 1], sparse_mask))
    feed(model.forecast(HORIZON))
    with np.load(io.BytesIO(dumps_sofia(model))) as archive:
        for name in sorted(archive.files):
            digest.update(name.encode())
            feed(archive[name])
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--seed", type=int, nargs="+", default=[1, 2, 3],
        help="stream seeds to replay (default: 1 2 3)",
    )
    parser.add_argument(
        "--dtype", choices=("float64", "float32"), default="float64",
        help="model dtype (default: float64)",
    )
    parser.add_argument(
        "--src", type=pathlib.Path, default=REPO_ROOT / "src",
        help="directory holding the repro package to digest",
    )
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    for seed in args.seed:
        print(f"seed {seed} {args.dtype} {stream_digest(seed, args.dtype)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
