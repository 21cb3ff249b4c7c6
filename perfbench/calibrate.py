"""Host-speed calibration: a fixed reference computation, timed in CPU time.

The benchmark runs on one vCPU of a shared host, and how fast that
vCPU executes changes with the load its neighbours put on the physical
core.  The same 15 s loop of bare-model passes ran at 3,322 and at
5,472 slices/s within minutes, with no steal time recorded.  Medians over a
run cannot remove a slowdown that lasts the whole run.

So every timing the benchmark gates is taken beside this kernel and
scaled to a nominal host speed: multiplied by ``NOMINAL_S`` over the
mean CPU seconds the kernel took just before and just after it.  On a host
running at nominal speed the scaled figure is the wall-clock figure.
The kernel does the same kind of work as the program (small numpy
contractions and BLAS matrix products on batches of 40x30 slices at
rank 5, a 5x5 solve, a median) over about as much memory as a pass
touches, so a slowdown of the core or of its caches slows both alike.
Over five 30 s runs of ``core_stream``, raw slices/s spread by 15.7%
(interquartile range over median) and scaled slices/s by 3.8%.

The kernel is timed with the calling thread's CPU clock, so time the
thread spends descheduled does not count: another thread of the
program competing for the CPU slows the program's figures, never the
kernel's.
"""

from __future__ import annotations

import time

import numpy as np

#: CPU seconds the kernel takes at nominal host speed (close to the
#: fastest this 2-vCPU host ran it).
NOMINAL_S = 0.035
#: Slices of data the kernel cycles through: 30 batches of 16 slices,
#: about 5 MB, more than the 4 MB L2 cache, as a pass's traffic is.
BLOCKS = 30

_rng = np.random.default_rng(0)
_A, _B, _C = (_rng.standard_normal((size, 5)) for size in (40, 30, 16))
_X = _rng.standard_normal((BLOCKS, 16, 40, 30))
_M = _rng.random(_X.shape) < 0.5


def _kernel() -> None:
    for block in range(BLOCKS):
        model = np.einsum("ir,jr,tr->tij", _A, _B, _C)
        np.matmul(_A * _C[:, None, :], _B.T)
        residual = np.where(_M[block], _X[block] - model, 0.0)
        gradient = np.einsum("tij,jr,tr->ir", residual, _B, _C)
        gram = (_B.T @ _B) * (_C.T @ _C) + np.eye(5)
        np.linalg.solve(gram, gradient.T)
        np.median(np.abs(residual), axis=0)


_kernel()  # warm-up: the first run pays for numpy's lazy set-up


def measure() -> float:
    """CPU seconds of one run of the reference kernel in this thread."""
    started = time.thread_time()
    _kernel()
    return time.thread_time() - started


def scale(before: float, after: float) -> float:
    """Factor that takes a time measured between two kernel runs to
    nominal host speed (below 1 when the host ran slow)."""
    return NOMINAL_S / (0.5 * (before + after))


def timed(fn, *args):
    """``(scaled seconds, raw seconds, result)`` of ``fn(*args)``."""
    before = measure()
    started = time.perf_counter()
    result = fn(*args)
    raw = time.perf_counter() - started
    return raw * scale(before, measure()), raw, result
