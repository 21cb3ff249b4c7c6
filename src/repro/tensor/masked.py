"""Helpers for incomplete tensors: masked norms, errors, and imputation.

An observation mask is the paper's indicator tensor ``Ω`` (Eq. 3): truthy
entries are observed, falsy entries are missing.
"""

from __future__ import annotations

import numpy as np

from repro.tensor.validation import check_mask, check_same_shape

__all__ = [
    "apply_mask",
    "impute",
    "masked_frobenius_norm",
    "masked_relative_error",
    "observed_fraction",
    "scatter_flat",
]


def apply_mask(tensor: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Return ``Ω ⊛ X``: a copy of ``tensor`` with missing entries zeroed."""
    arr = np.asarray(tensor, dtype=np.float64)
    m = check_mask(mask, arr.shape)
    return np.where(m, arr, 0.0)


def masked_frobenius_norm(tensor: np.ndarray, mask: np.ndarray) -> float:
    """Frobenius norm over the observed entries only."""
    arr = np.asarray(tensor, dtype=np.float64)
    m = check_mask(mask, arr.shape)
    return float(np.linalg.norm(arr[m]))


def masked_relative_error(
    estimate: np.ndarray, truth: np.ndarray, mask: np.ndarray
) -> float:
    """``||Ω ⊛ (estimate - truth)||_F / ||Ω ⊛ truth||_F``.

    Defined as the masked residual norm itself when the masked truth is
    identically zero.
    """
    est = np.asarray(estimate, dtype=np.float64)
    tru = np.asarray(truth, dtype=np.float64)
    check_same_shape(est, tru, names=("estimate", "truth"))
    m = check_mask(mask, est.shape)
    denom = float(np.linalg.norm(tru[m]))
    num = float(np.linalg.norm((est - tru)[m]))
    if denom == 0.0:
        return num
    return num / denom


def observed_fraction(mask: np.ndarray) -> float:
    """Fraction of observed entries in a mask."""
    m = check_mask(mask)
    return float(np.count_nonzero(m)) / m.size


def impute(observed: np.ndarray, mask: np.ndarray, estimate: np.ndarray) -> np.ndarray:
    """Fill the missing entries of ``observed`` with values from ``estimate``.

    Observed entries are kept verbatim; this is how a completed tensor is
    assembled from data plus a low-rank reconstruction.
    """
    obs = np.asarray(observed, dtype=np.float64)
    est = np.asarray(estimate, dtype=np.float64)
    check_same_shape(obs, est, names=("observed", "estimate"))
    m = check_mask(mask, obs.shape)
    return np.where(m, obs, est)


def scatter_flat(
    values: np.ndarray,
    flat: np.ndarray,
    shape: tuple[int, ...],
    fill: float = 0.0,
) -> np.ndarray:
    """A ``shape`` array of ``fill`` holding ``values`` at C-order ``flat``.

    With ``flat = np.flatnonzero(mask)`` and ``values`` computed from
    entries gathered by ``take(flat)``, this is bit for bit
    ``np.where(mask, dense, fill)`` while doing the element-wise work at
    the observed entries only.  It also avoids ``np.where``'s
    per-element branch, which mispredicts on a random mask.
    """
    out = np.full(int(np.prod(shape)), fill, dtype=values.dtype)
    out[flat] = values
    return out.reshape(shape)
