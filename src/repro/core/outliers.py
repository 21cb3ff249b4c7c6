"""Outlier estimation and error-scale tracking (paper Eq. 12, 21, 22).

These are the tensor-valued extensions of the robust-HW primitives in
:mod:`repro.forecast.robust`: outliers are whatever part of the observed
residual survives the Huber clipping, and each entry carries its own
exponentially smoothed error scale.  :func:`robust_step` fuses the two
updates over one shared residual, which is what the dynamic phase calls
once per incoming subtensor.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ShapeError
from repro.forecast.robust import biweight_rho, huber_psi
from repro.tensor.kernels import soft_threshold as _kernel_soft_threshold
from repro.tensor.masked import scatter_flat
from repro.tensor.validation import (
    as_float as _as_float,
)
from repro.tensor.validation import (
    check_mask,
    check_same_shape,
)

__all__ = [
    "estimate_outliers",
    "robust_step",
    "robust_step_at",
    "robust_step_batch",
    "robust_step_batch_at",
    "soft_threshold",
    "update_error_scale",
]


def soft_threshold(values: np.ndarray, threshold: float) -> np.ndarray:
    """Element-wise soft-thresholding ``sign(x) max(|x| - λ, 0)`` (Eq. 12).

    This is the proximal operator of ``λ ||·||_1`` and is how the
    initialization phase refreshes its outlier tensor (Alg. 1 line 8).
    Delegates to the shared kernel layer.
    """
    return _kernel_soft_threshold(values, threshold)


def _huber_excess(
    residual: np.ndarray, ratio: np.ndarray, sigma: np.ndarray, k: float
):
    """Residual in excess of the Huber clip ``ψ(r/σ)σ`` (Eq. 21 core).

    ``ratio`` is ``residual / sigma``, computed once by the caller and
    shared with :func:`_biweight_scale`.
    """
    return residual - huber_psi(ratio, k) * sigma


def _biweight_scale(
    ratio: np.ndarray,
    sigma: np.ndarray,
    *,
    phi: float,
    k: float,
    ck: float,
) -> np.ndarray:
    """One biweight recursion step of the error scale (Eq. 22 core)."""
    rho = biweight_rho(ratio, k, ck)
    return np.sqrt(phi * rho * sigma**2 + (1.0 - phi) * sigma**2)


def estimate_outliers(
    observed: np.ndarray,
    predicted: np.ndarray,
    sigma: np.ndarray,
    mask: np.ndarray,
    *,
    k: float = 2.0,
) -> np.ndarray:
    """Estimate the outlier subtensor ``O_t`` (Eq. 21).

    ``O_t = Y_t - Yhat - ψ((Y_t - Yhat)/Σ) Σ`` on observed entries: the
    residual in excess of ``k`` error scales.  Missing entries carry no
    outlier (zero).
    """
    y = _as_float(observed)
    yhat = _as_float(predicted)
    sg = _as_float(sigma)
    check_same_shape(y, yhat, names=("observed", "predicted"))
    check_same_shape(y, sg, names=("observed", "sigma"))
    m = check_mask(mask, y.shape)
    residual = y - yhat
    return np.where(m, _huber_excess(residual, residual / sg, sg, k), 0.0)


def update_error_scale(
    observed: np.ndarray,
    predicted: np.ndarray,
    sigma: np.ndarray,
    mask: np.ndarray,
    *,
    phi: float,
    k: float = 2.0,
    ck: float = 2.52,
) -> np.ndarray:
    """Advance the error-scale tensor ``Σ_t`` (Eq. 22).

    Observed entries follow the biweight recursion
    ``Σ_t² = φ ρ((Y - Yhat)/Σ_{t-1}) Σ_{t-1}² + (1 - φ) Σ_{t-1}²``;
    missing entries keep their previous scale.  Note the ordering used by
    SOFIA: the caller estimates ``O_t`` with ``Σ_{t-1}`` *before* this
    update, so one extreme outlier cannot contaminate the scale it is
    judged against (paper §V-C1).
    """
    y = _as_float(observed)
    yhat = _as_float(predicted)
    sg = _as_float(sigma)
    check_same_shape(y, yhat, names=("observed", "predicted"))
    check_same_shape(y, sg, names=("observed", "sigma"))
    m = check_mask(mask, y.shape)
    updated = _biweight_scale((y - yhat) / sg, sg, phi=phi, k=k, ck=ck)
    return np.where(m, updated, sg)


def robust_step(
    observed: np.ndarray,
    predicted: np.ndarray,
    sigma: np.ndarray,
    mask: np.ndarray,
    *,
    k: float = 2.0,
    phi: float = 0.01,
    ck: float = 2.52,
) -> tuple[np.ndarray, np.ndarray]:
    """Fused Eq. 21 + Eq. 22: outliers and the advanced error scale.

    Computes the forecast residual once and applies both the Huber
    outlier split (against the *previous* scale, preserving SOFIA's
    ordering) and the biweight scale recursion — the exact pair of
    updates Alg. 3 performs per incoming subtensor.
    """
    y = _as_float(observed)
    yhat = _as_float(predicted)
    sg = _as_float(sigma)
    check_same_shape(y, yhat, names=("observed", "predicted"))
    check_same_shape(y, sg, names=("observed", "sigma"))
    m = check_mask(mask, y.shape)
    flat = np.flatnonzero(m)
    sg_values = sg.take(flat)
    residual = y.take(flat) - yhat.take(flat)
    ratio = residual / sg_values
    outliers = scatter_flat(
        _huber_excess(residual, ratio, sg_values, k), flat, y.shape, 0.0
    )
    scale = _biweight_scale(ratio, sg_values, phi=phi, k=k, ck=ck)
    new_sigma = sg.astype(scale.dtype, order="C")
    new_sigma.reshape(-1)[flat] = scale
    return outliers, new_sigma


def robust_step_at(
    coords: tuple[np.ndarray, ...],
    observed_values: np.ndarray,
    predicted_values: np.ndarray,
    sigma: np.ndarray,
    *,
    k: float = 2.0,
    phi: float = 0.01,
    ck: float = 2.52,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`robust_step` restricted to the observed coordinates.

    The dense form spends ``O(prod(dims))`` element-wise ψ/ρ work per
    step even when only a few percent of the entries are observed; this
    form gathers ``Σ`` at ``coords`` and touches nothing else, which is
    exactly the Eq. 21-22 semantics (missing entries carry no outlier
    and keep their previous scale).

    Parameters
    ----------
    coords:
        Tuple of index arrays (one per mode) of the observed entries —
        each coordinate must appear at most once.
    observed_values, predicted_values:
        ``Y_t`` and ``X̂_t`` gathered at ``coords``.
    sigma:
        Dense error-scale tensor carried into the step (not mutated).

    Returns
    -------
    (outlier_values, new_sigma):
        Outlier estimates aligned with ``coords`` (1-D) and the dense
        advanced scale.
    """
    y = _as_float(observed_values)
    yhat = _as_float(predicted_values)
    sg = _as_float(sigma)
    residual = y - yhat
    sg_values = sg[coords]
    ratio = residual / sg_values
    outlier_values = _huber_excess(residual, ratio, sg_values, k)
    new_sigma = sg.copy()
    new_sigma[coords] = _biweight_scale(
        ratio, sg_values, phi=phi, k=k, ck=ck
    )
    return outlier_values, new_sigma


def robust_step_batch_at(
    coords: tuple[np.ndarray, ...],
    observed_values: np.ndarray,
    predicted_values: np.ndarray,
    sigma: np.ndarray,
    *,
    k: float = 2.0,
    phi: float = 0.01,
    ck: float = 2.52,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`robust_step_batch` restricted to the observed coordinates.

    Same batch-boundary freezing of ``Σ`` as the dense form — the
    per-entry growth factors ``φ ρ(r_b / Σ) + 1 - φ`` of a mini-batch
    multiply, so entries observed at several batch steps accumulate
    their product as one vectorized histogram of log-growths over the
    raveled spatial coordinates (no buffered element-at-a-time
    scatter).

    Parameters
    ----------
    coords:
        Tuple ``(batch_idx, i_1, ..., i_N)`` of index arrays of the
        observed entries of the stacked ``(B, *shape)`` batch.
    observed_values, predicted_values:
        The stacked data and Eq. 20 predictions gathered at ``coords``.
    sigma:
        The dense ``(*shape,)`` scale carried into the batch.

    Returns
    -------
    (outlier_values, new_sigma):
        Outlier estimates aligned with ``coords`` (1-D) and the dense
        advanced ``(*shape,)`` scale.
    """
    y = _as_float(observed_values)
    yhat = _as_float(predicted_values)
    sg = _as_float(sigma)
    spatial = coords[1:]
    residual = y - yhat
    sg_values = sg[spatial]
    ratio = residual / sg_values
    outlier_values = _huber_excess(residual, ratio, sg_values, k)
    growth = phi * biweight_rho(ratio, k, ck) + (1.0 - phi)
    # Product over the batch via a sum of logs: growth is non-negative
    # (and zero only in the degenerate phi = 1 case, where log -> -inf
    # and exp recovers the exact zero product).
    flat = np.ravel_multi_index(spatial, sg.shape)
    with np.errstate(divide="ignore"):
        log_growth = np.log(growth)
    # np.bincount accumulates in float64 regardless of the weight dtype;
    # cast back so a float32 model's sigma does not silently upcast.
    log_product = np.bincount(flat, weights=log_growth, minlength=sg.size)
    growth_product = np.exp(log_product).reshape(sg.shape)
    new_sigma = (sg * np.sqrt(growth_product)).astype(sg.dtype, copy=False)
    return outlier_values, new_sigma


def robust_step_batch(
    observed: np.ndarray,
    predicted: np.ndarray,
    sigma: np.ndarray,
    mask: np.ndarray,
    *,
    k: float = 2.0,
    phi: float = 0.01,
    ck: float = 2.52,
) -> tuple[np.ndarray, np.ndarray]:
    """Eq. 21 + Eq. 22 over a mini-batch in one vectorized pass.

    The batch generalization of :func:`robust_step` for ``B`` stacked
    subtensors: every step's residual is judged against the error scale
    at the *batch boundary* ``Σ_{t-1}`` (the sequential recursion judges
    step ``b`` against ``Σ_{t+b-1}``), which turns the per-entry scale
    recursion into a closed-form product over the batch axis::

        Σ_{t+B-1}² = Σ_{t-1}² · Π_b (φ ρ(r_b / Σ_{t-1}) + 1 - φ)

    with unobserved entries contributing a factor of one.  Because the
    smoothing parameter ``φ`` is small (0.01 in the paper), the scale
    drifts at most ``O(B φ)`` within a batch, so freezing it is a
    second-order approximation — and it removes the only sequential
    tensor-sized pass of the mini-batch engine.

    Parameters
    ----------
    observed, predicted:
        Stacked ``(B, *shape)`` data and Eq. 20 predictions.
    sigma:
        The ``(*shape,)`` error scale carried into the batch.
    mask:
        Stacked ``(B, *shape)`` observation indicator.

    Returns
    -------
    (outliers, new_sigma):
        Stacked ``(B, *shape)`` outlier estimates and the advanced
        ``(*shape,)`` scale.
    """
    y = _as_float(observed)
    yhat = _as_float(predicted)
    sg = _as_float(sigma)
    check_same_shape(y, yhat, names=("observed", "predicted"))
    if y.ndim != sg.ndim + 1 or y.shape[1:] != sg.shape:
        raise ShapeError(
            f"batch shape {y.shape} does not match sigma {sg.shape}"
        )
    m = check_mask(mask, y.shape)
    flat = np.flatnonzero(m)
    sg_values = np.broadcast_to(sg, y.shape).take(flat)
    residual = y.take(flat) - yhat.take(flat)
    ratio = residual / sg_values
    outliers = scatter_flat(
        _huber_excess(residual, ratio, sg_values, k), flat, y.shape, 0.0
    )
    growth = scatter_flat(
        phi * biweight_rho(ratio, k, ck) + (1.0 - phi), flat, y.shape, 1.0
    )
    new_sigma = sg * np.sqrt(np.prod(growth, axis=0))
    return outliers, new_sigma
