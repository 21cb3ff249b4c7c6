"""Structured tensor products: Khatri-Rao, Hadamard, outer, Kruskal.

The Kruskal operator ``[[U^(1), ..., U^(N)]]`` (paper Eq. 2) reconstructs a
tensor from CP factor matrices; :func:`kruskal_to_tensor` implements it for
arbitrary order together with optional per-component weights, which is how
SOFIA evaluates one-step-ahead subtensor predictions
``[[{U^(n)}; u_hat]]`` (paper Eq. 20).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.exceptions import ShapeError
from repro.tensor.validation import as_float, check_factor_matrices

__all__ = [
    "hadamard_all",
    "khatri_rao",
    "kruskal_to_tensor",
    "kruskal_to_tensors",
    "normalize_columns",
    "outer",
]


def khatri_rao(matrices: Sequence[np.ndarray]) -> np.ndarray:
    """Column-wise Khatri-Rao product of ``matrices`` (paper Eq. 1).

    The product is taken left-to-right, so the row index of the **last**
    matrix varies fastest — matching this package's C-order unfolding.

    Parameters
    ----------
    matrices:
        Two or more matrices sharing a column count ``R``.

    Returns
    -------
    numpy.ndarray
        Matrix of shape ``(prod(rows), R)``.
    """
    mats = check_factor_matrices(matrices)
    if len(mats) == 1:
        return mats[0].copy()
    rank = mats[0].shape[1]
    result = mats[0]
    for mat in mats[1:]:
        # (I, 1, R) * (1, J, R) -> (I, J, R) -> (I*J, R)
        result = (result[:, None, :] * mat[None, :, :]).reshape(-1, rank)
    return result


def hadamard_all(matrices: Sequence[np.ndarray]) -> np.ndarray:
    """Element-wise product of a sequence of same-shaped matrices."""
    mats = [np.asarray(m, dtype=np.float64) for m in matrices]
    if not mats:
        raise ShapeError("need at least one matrix")
    result = mats[0].copy()
    for mat in mats[1:]:
        if mat.shape != result.shape:
            raise ShapeError(
                f"Hadamard product requires equal shapes; "
                f"got {result.shape} vs {mat.shape}"
            )
        result *= mat
    return result


def outer(vectors: Sequence[np.ndarray]) -> np.ndarray:
    """Outer product of N vectors, yielding a rank-1 N-way tensor."""
    vecs = [np.asarray(v, dtype=np.float64).reshape(-1) for v in vectors]
    if not vecs:
        raise ShapeError("need at least one vector")
    result = vecs[0]
    for v in vecs[1:]:
        result = np.multiply.outer(result, v)
    return result


def kruskal_to_tensor(
    factors: Sequence[np.ndarray],
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Evaluate the Kruskal operator ``[[factors]]`` (paper Eq. 2).

    Parameters
    ----------
    factors:
        CP factor matrices ``U^(n)`` of shapes ``(I_n, R)``.
    weights:
        Optional length-``R`` component weights.  SOFIA reconstructs
        subtensors by passing the current temporal row vector here.

    Returns
    -------
    numpy.ndarray
        Dense tensor of shape ``(I_1, ..., I_N)``: the single slice of
        :func:`kruskal_to_tensors` for one weight row (all ones when
        ``weights`` is omitted, which leaves every product exact).
    """
    mats = check_factor_matrices(factors)
    if weights is None:
        row = np.ones((1, mats[0].shape[1]), dtype=mats[0].dtype)
    else:
        # Follow the factors' dtype so float32 models reconstruct in
        # float32; non-float weights promote to float64 as before.
        row = as_float(weights).reshape(1, -1)
    return kruskal_to_tensors(mats, row)[0]


def kruskal_to_tensors(
    factors: Sequence[np.ndarray], weight_rows: np.ndarray
) -> np.ndarray:
    """Stack of :func:`kruskal_to_tensor` results, one per weight row.

    Row ``h`` of the ``(H, R)`` ``weight_rows`` gives slice ``h`` of the
    ``(H, I_1, ..., I_N)`` result.  All ``H`` weighted leading factors
    stack into one ``(H·I_1, R)`` matrix, so the slices come from a
    single GEMM against one Khatri-Rao product of the remaining
    factors instead of ``H`` small ones.  Each output entry is the same
    length-``R`` dot product as in :func:`kruskal_to_tensor`.
    """
    mats = check_factor_matrices(factors)
    shape = tuple(m.shape[0] for m in mats)
    lead = mats[0]
    rows = as_float(weight_rows)
    if rows.ndim != 2 or rows.shape[1] != lead.shape[1]:
        raise ShapeError(
            f"weights of shape {rows.shape} do not match rank {lead.shape[1]}"
        )
    stacked = lead[None, :, :] * rows[:, None, :]
    if len(mats) == 1:
        return stacked.sum(axis=2)
    rest = khatri_rao(mats[1:])
    flat = stacked.reshape(-1, lead.shape[1]) @ rest.T
    return flat.reshape((rows.shape[0], *shape))


def normalize_columns(
    matrix: np.ndarray, *, epsilon: float = 1e-12
) -> tuple[np.ndarray, np.ndarray]:
    """Normalize matrix columns to unit 2-norm.

    Returns the normalized matrix and the vector of original column norms.
    Columns with norms below ``epsilon`` are left untouched (their reported
    norm is 1.0) to avoid dividing by zero; SOFIA's ALS uses this to push
    the scale of non-temporal factors into the temporal factor
    (Algorithm 2, lines 7-9).
    """
    mat = as_float(matrix)
    if mat.ndim != 2:
        raise ShapeError(f"expected a matrix, got ndim={mat.ndim}")
    norms = np.linalg.norm(mat, axis=0)
    safe = np.where(norms > epsilon, norms, 1.0)
    return mat / safe[None, :], safe
