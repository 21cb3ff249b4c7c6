"""SOFIA dynamic updates: one online step per subtensor (paper Alg. 3).

Each step: forecast the temporal vector with Holt-Winters (Eq. 19),
predict the incoming subtensor (Eq. 20), split off outliers with the
Huber pre-cleaning rule (Eq. 21), advance the per-entry error scales
(Eq. 22), take one gradient step on the non-temporal factors (Eq. 24) and
the temporal vector (Eq. 25), and finally advance the HW components
(Eq. 26).  Work per step is ``O(|Ω_t| N R)`` in observed-entry count
(Lemma 2); this implementation uses dense masked arithmetic, so its cost
is linear in the subtensor size, which coincides with the bound for the
fully observed streams of the scalability experiment (Fig. 7).

The gradient contractions and Lipschitz bounds route through
:mod:`repro.tensor.kernels`: the MTTKRP kernel contracts the residual
against the factors directly (no materialized Khatri-Rao product) and
the trace bound ``trace(KᵀK)`` comes from per-column norm products.

Sparse routing
--------------
When the incoming mask is observed below ``config.density_threshold``
(5% by default), both :func:`dynamic_step` and
:func:`dynamic_step_batch` switch to a per-observed-entry execution
path: the Eq. 21-22 robust split runs only at the observed coordinates
(:func:`repro.core.outliers.robust_step_at` /
:func:`~repro.core.outliers.robust_step_batch_at`) and the Eq. 24-25
gradient contractions gather factor rows per entry
(:func:`repro.tensor.kernels.mttkrp_observed`) — ``O(|Ω_t| N R)``, the
bound of Lemma 2, instead of work linear in the subtensor volume.  The
arithmetic at observed entries is unchanged, so the two paths produce
the same trajectory to floating-point round-off; only the dense
per-step *outputs* (prediction, completion, the scattered outlier
tensor) remain volume-sized.

The routing defers to the active kernel backend via its
``keeps_dense_steps`` capability flag: the pure-dense ``"batched"``
and scalar ``"reference"`` backends (and, by default, any third-party
backend) are never bypassed, so pinning one (``set_backend``,
``REPRO_KERNEL_BACKEND``) exercises exactly that execution path end to
end, as the CI backend matrix relies on.  Under ``"auto"`` (the
default) and ``"sparse"``, which opt out of the flag, the density
threshold decides.

Device residency
----------------
Backends with host↔device converters (the ``"xp"`` backend on a
non-NumPy array module) get their transfers routed at the *step
boundary*: the factor matrices move to the device once per
:func:`dynamic_step` / :func:`dynamic_step_batch` call via
:func:`repro.tensor.kernels.to_device` and every kernel call of the
step reuses the resident copies; only the kernel *results* that feed
host-side logic (the robust split, the ``O(R)`` temporal recurrences,
the returned :class:`~repro.core.model.SofiaStep` arrays) come back
through :func:`repro.tensor.kernels.from_device`.  For backends
without converters both hooks are the identity, so the CPU paths are
untouched (and bit-identical to before).

Dtype: both entry points follow ``state.dtype`` (the factors' dtype),
so a model initialized under ``SofiaConfig(dtype="float32")`` runs its
whole dynamic phase in float32.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.config import SofiaConfig
from repro.core.model import SofiaModelState, SofiaStep
from repro.core.outliers import (
    robust_step,
    robust_step_at,
    robust_step_batch,
    robust_step_batch_at,
)
from repro.exceptions import ShapeError
from repro.tensor import kernels, kruskal_to_tensor, scatter_flat
from repro.tensor.validation import check_mask

__all__ = [
    "dynamic_step",
    "dynamic_step_batch",
    "factor_gradient_step",
    "temporal_gradient_step",
]

def _takes_sparse_path(mask: np.ndarray, config: SofiaConfig) -> bool:
    """Whether this step's tensor-sized work runs per observed entry.

    Backends that declare ``keeps_dense_steps`` (the pure dense/scalar
    paths, and any third-party backend that wants its kernels to see
    all the work) are never bypassed.
    """
    if kernels.active_backend().keeps_dense_steps:
        return False
    return np.count_nonzero(mask) < config.density_threshold * mask.size


def factor_gradient_step(
    residual: np.ndarray,
    factors: Sequence[np.ndarray],
    temporal_forecast: np.ndarray,
    mu: float,
    *,
    normalize: bool = True,
    coords: tuple[np.ndarray, ...] | None = None,
    device_factors: Sequence | None = None,
) -> list[np.ndarray]:
    """Gradient update of all non-temporal factors (Eq. 24).

    ``U^(n)_t = U^(n)_{t-1} + 2μ_n R_(n) (⊙_{l≠n} U^(l)_{t-1}) diag(û)``.
    All gradients are evaluated at the *previous* factors, so the updates
    are computed first and applied together.

    With ``normalize=True`` (the default, ``step_normalization =
    "lipschitz"``) the step size is ``μ / trace(KᵀK)`` where
    ``K = (⊙_{l≠n} U^(l)) diag(û)`` — a trace upper bound on the Lipschitz
    constant of the data term's gradient, making the update stable for
    any ``μ < 1`` regardless of the data's scale.

    With ``coords`` given (the sparse path), ``residual`` is the 1-D
    vector of residual values at those observed coordinates and the
    contractions run per entry instead of over the dense subtensor.

    ``device_factors`` (device-resident copies of ``factors``, built
    once per step by the caller under a backend with device converters)
    are used for the kernel contractions; the returned factors are
    always host arrays built from ``factors``.
    """
    n_modes = len(factors)
    mats = factors if device_factors is None else device_factors
    updated = []
    for mode in range(n_modes):
        if coords is None:
            gradient = kernels.from_device(
                kernels.mttkrp(
                    residual, mats, mode, weights=temporal_forecast
                )
            )
        else:
            gradient = kernels.mttkrp_observed(
                coords, residual, factors, mode, weights=temporal_forecast
            )
        step = mu
        if normalize:
            others = [factors[l] for l in range(n_modes) if l != mode]
            lipschitz = float(
                np.sum(
                    kernels.kruskal_column_sq_norms(
                        others, weights=temporal_forecast
                    )
                )
            )
            step = mu / max(lipschitz, 1e-12)
        updated.append(factors[mode] + 2.0 * step * gradient)
    return updated


def temporal_gradient_step(
    residual: np.ndarray,
    factors: Sequence[np.ndarray],
    temporal_forecast: np.ndarray,
    previous_vector: np.ndarray,
    season_vector: np.ndarray,
    config: SofiaConfig,
    *,
    coords: tuple[np.ndarray, ...] | None = None,
    device_factors: Sequence | None = None,
) -> np.ndarray:
    """Gradient update of the temporal vector ``u_t`` (Eq. 25).

    Starts from the HW forecast ``û_{t|t-1}`` and descends the local cost,
    pulling toward the data term plus the lag-1 / lag-m smoothness
    anchors.  Under ``step_normalization = "lipschitz"`` the step is
    scaled by ``trace(KᵀK) + λ1 + λ2`` with ``K = ⊙_n U^(n)``.  With
    ``coords``, ``residual`` holds the values at those observed
    coordinates (the sparse path).
    """
    if coords is None:
        mats = factors if device_factors is None else device_factors
        data_term = kernels.from_device(kernels.mttkrp(residual, mats, None))
    else:
        data_term = kernels.mttkrp_observed(coords, residual, factors, None)
    step = config.mu
    if config.step_normalization == "lipschitz":
        lipschitz = (
            float(np.sum(kernels.kruskal_column_sq_norms(factors)))
            + config.lambda1
            + config.lambda2
        )
        step = config.mu / max(lipschitz, 1e-12)
    return temporal_forecast + 2.0 * step * (
        data_term
        + config.lambda1 * previous_vector
        + config.lambda2 * season_vector
        - (config.lambda1 + config.lambda2) * temporal_forecast
    )


def dynamic_step(
    state: SofiaModelState,
    subtensor: np.ndarray,
    mask: np.ndarray,
    config: SofiaConfig,
) -> SofiaStep:
    """Process one incoming subtensor (the body of Alg. 3).

    Mutates ``state`` in place (factors, HW components, error scales,
    temporal ring buffer, step counter) and returns the per-step outputs.
    """
    dtype = state.dtype
    y = np.asarray(subtensor, dtype=dtype)
    m = check_mask(mask, state.subtensor_shape)
    if y.shape != state.subtensor_shape:
        raise ValueError(
            f"subtensor shape {y.shape} does not match model "
            f"{state.subtensor_shape}"
        )
    resident = kernels.active_backend().to_device is not None
    device_factors = (
        [kernels.to_device(f) for f in state.non_temporal]
        if resident
        else None
    )

    # (1) Forecast the temporal vector and the subtensor (Eq. 19-20).
    u_forecast = state.hw.forecast_one_step().astype(dtype, copy=False)
    if resident:
        prediction = kernels.from_device(
            kernels.kruskal_reconstruct_rows(
                device_factors, u_forecast[None, :]
            )[0]
        )
    else:
        prediction = kruskal_to_tensor(state.non_temporal, weights=u_forecast)

    # (2) Estimate outliers against the forecast (Eq. 21), then advance the
    #     error scale (Eq. 22) in one fused pass over the shared residual —
    #     outliers are judged against the *previous* scale, which is
    #     SOFIA's robustness tweak.  Below the density threshold the
    #     split runs only at the observed coordinates and ``residual``
    #     becomes the 1-D vector of values there (the sparse path).
    if _takes_sparse_path(m, config):
        coords = np.nonzero(m)
        observed_values = y[coords]
        predicted_values = prediction[coords]
        outlier_values, state.sigma = robust_step_at(
            coords,
            observed_values,
            predicted_values,
            state.sigma,
            k=config.huber_k,
            phi=config.phi,
            ck=config.biweight_c,
        )
        outliers = np.zeros_like(y)
        outliers[coords] = outlier_values
        residual = observed_values - outlier_values - predicted_values
    else:
        coords = None
        outliers, state.sigma = robust_step(
            y,
            prediction,
            state.sigma,
            m,
            k=config.huber_k,
            phi=config.phi,
            ck=config.biweight_c,
        )
        residual = np.where(m, y - outliers - prediction, 0.0)

    # (3) Gradient steps on the factors (Eq. 24) and the temporal vector
    #     (Eq. 25), both evaluated at the previous factors.  Under a
    #     device backend the residual moves to the device once and the
    #     contractions reuse the resident factor copies.
    if resident and coords is None:
        residual = kernels.to_device(residual)
    new_factors = factor_gradient_step(
        residual,
        state.non_temporal,
        u_forecast,
        config.mu,
        normalize=config.step_normalization == "lipschitz",
        coords=coords,
        device_factors=device_factors,
    )
    u_new = temporal_gradient_step(
        residual,
        state.non_temporal,
        u_forecast,
        state.previous_vector,
        state.season_vector,
        config,
        coords=coords,
        device_factors=device_factors,
    )
    state.non_temporal = new_factors

    # (4) Advance the Holt-Winters components (Eq. 26) and bookkeeping.
    state.hw.update(u_new)
    state.push_temporal(u_new)
    state.t += 1

    if resident:
        completed = kernels.from_device(
            kernels.kruskal_reconstruct_rows(
                [kernels.to_device(f) for f in new_factors], u_new[None, :]
            )[0]
        )
    else:
        completed = kruskal_to_tensor(state.non_temporal, weights=u_new)
    return SofiaStep(
        completed=completed,
        outliers=outliers,
        prediction=prediction,
        temporal_forecast=u_forecast,
        temporal_vector=u_new,
    )


def dynamic_step_batch(
    state: SofiaModelState,
    subtensors: np.ndarray,
    masks: np.ndarray,
    config: SofiaConfig,
) -> list[SofiaStep]:
    """Process ``B`` incoming subtensors as one mini-batch (Alg. 3, batched).

    The expensive tensor-sized work of ``B`` consecutive dynamic steps is
    fused into one kernel call each: the Eq. 20 predictions and the final
    completions run as one :func:`repro.tensor.kernels.kruskal_reconstruct_rows`
    call per batch, and the Eq. 24-25 gradient contractions run as one
    :func:`repro.tensor.kernels.mttkrp` call per mode over the residual
    stack (the batch axis contracts against the forecast-weight matrix,
    which is exactly the sum of the per-step gradients).  Only ``O(R)``
    recurrences (Holt-Winters, ring buffer) and the element-wise robust
    scale scan stay sequential in ``B``.

    Below ``config.density_threshold`` observed fraction the robust
    split and the gradient contractions run per observed entry (see the
    module docstring) — on large sparse batches this skips the dense
    element-wise robust pass over the stacked batch entirely.

    Semantics relative to the sequential :func:`dynamic_step` trajectory:

    * ``B = 1`` delegates to :func:`dynamic_step` and is bit-identical.
    * ``B > 1`` freezes the factor matrices at the batch boundary and
      forecasts the temporal vectors ``B`` steps ahead with Eq. 28 (the
      same multi-step forecast the paper uses beyond the stream), so it
      is a mini-batch gradient step: within-batch factor drift of the
      sequential trajectory — ``O(B μ)`` per batch — is applied once at
      the end instead of incrementally.  The parity suite pins the
      resulting trajectory deviation.

    Mutates ``state`` in place and returns one :class:`SofiaStep` per
    subtensor, oldest first.
    """
    dtype = state.dtype
    ys = np.asarray(subtensors, dtype=dtype)
    if ys.ndim < 2 or ys.shape[1:] != state.subtensor_shape:
        raise ShapeError(
            f"mini-batch shape {ys.shape} does not match (B, "
            f"{', '.join(str(s) for s in state.subtensor_shape)})"
        )
    n_batch = ys.shape[0]
    if n_batch == 0:
        raise ShapeError("mini-batch must contain at least one subtensor")
    ms = check_mask(masks, ys.shape)
    if n_batch == 1:
        return [dynamic_step(state, ys[0], ms[0], config)]

    factors = state.non_temporal
    n_modes = len(factors)
    rank = state.rank

    # (1) Forecast the temporal vectors for the whole batch (Eq. 28) and
    #     all B subtensor predictions in one batched Kruskal call.  The
    #     to_device/from_device hooks are the identity on CPU backends;
    #     under a device backend the factor matrices move to the device
    #     here, once, and stay resident for every kernel call of the
    #     batch.
    u_forecasts = state.hw.forecast(n_batch).astype(dtype, copy=False)
    dev_factors = [kernels.to_device(f) for f in factors]
    dev_forecasts = kernels.to_device(u_forecasts)
    predictions = kernels.from_device(
        kernels.kruskal_reconstruct_rows(dev_factors, dev_forecasts)
    )

    # (2) Outlier split and error-scale advance (Eq. 21-22) for the whole
    #     batch, with the scale frozen at the batch boundary (see
    #     :func:`robust_step_batch`).  Below the density threshold the
    #     split runs only at the observed coordinates — the dense
    #     element-wise ψ/ρ pass over the stacked batch, which dominates
    #     very large sparse batches, is skipped entirely — and the
    #     gradient contractions gather per entry.
    if _takes_sparse_path(ms, config):
        batch_coords = np.nonzero(ms)
        observed_values = ys[batch_coords]
        predicted_values = predictions[batch_coords]
        outlier_values, state.sigma = robust_step_batch_at(
            batch_coords,
            observed_values,
            predicted_values,
            state.sigma,
            k=config.huber_k,
            phi=config.phi,
            ck=config.biweight_c,
        )
        outliers = np.zeros_like(ys)
        outliers[batch_coords] = outlier_values
        residual_values = observed_values - outlier_values - predicted_values
        # Batch index last, matching the time-last dense stacking below.
        coords = batch_coords[1:] + (batch_coords[0],)
        kernel_factors = list(factors)
        batch_weights = u_forecasts

        def contract(mats, mode):
            dim = n_batch if mode == n_modes else None
            return kernels.mttkrp_observed(
                coords, residual_values, mats, mode, dim=dim
            )
    else:
        outliers, state.sigma = robust_step_batch(
            ys,
            predictions,
            state.sigma,
            ms,
            k=config.huber_k,
            phi=config.phi,
            ck=config.biweight_c,
        )
        observed = np.flatnonzero(ms)
        residuals = scatter_flat(
            ys.take(observed)
            - outliers.take(observed)
            - predictions.take(observed),
            observed,
            ys.shape,
        )
        # One C-contiguous time-last copy, so the three MTTKRPs below
        # neither probe a strided view nor each make a copy of their own.
        stacked = kernels.to_device(
            np.ascontiguousarray(np.moveaxis(residuals, 0, -1))
        )
        kernel_factors = list(dev_factors)
        batch_weights = dev_forecasts

        def contract(mats, mode):
            return kernels.mttkrp(stacked, mats, mode)

    # (3) Mini-batch gradient steps (Eq. 24-25) at the frozen factors.
    #     Stacking the residuals time-last and contracting the batch axis
    #     against the forecast-weight matrix turns the summed per-step
    #     MTTKRPs into one kernel call per mode.  Under the Lipschitz
    #     normalization the summed data term of the batch has trace bound
    #     ``Σ_b trace(K_bᵀK_b)``, so one step of ``μ / Σ_b L_b`` is the
    #     batch analogue of the per-step ``μ / L_b`` — stable for any
    #     ``μ < 1`` regardless of the batch size (a naive sum of the B
    #     individually normalized steps overshoots by up to B and
    #     diverges).
    normalize = config.step_normalization == "lipschitz"
    col_sq = [np.einsum("ir,ir->r", f, f) for f in factors]
    w_sq = u_forecasts * u_forecasts
    new_factors = []
    for mode in range(n_modes):
        prod_others = np.ones(rank)
        for other in range(n_modes):
            if other != mode:
                prod_others = prod_others * col_sq[other]
        step = config.mu
        if normalize:
            step = config.mu / max(float(np.sum(w_sq @ prod_others)), 1e-12)
        gradient = kernels.from_device(
            contract(kernel_factors + [batch_weights], mode)
        )
        new_factors.append(factors[mode] + 2.0 * step * gradient)

    # Contracting every *non-batch* axis leaves the (B, R) data terms of
    # Eq. 25; the batch-axis slot of the matrix list is never read.
    data_terms = kernels.from_device(contract(kernel_factors + [None], n_modes))
    step_u = config.mu
    if normalize:
        prod_all = np.ones(rank)
        for sq in col_sq:
            prod_all = prod_all * sq
        step_u = config.mu / max(
            float(np.sum(prod_all)) + config.lambda1 + config.lambda2, 1e-12
        )

    # (4) Temporal vectors, ring buffer, and HW advances — O(R) per step.
    #     Row ``period + b`` of ``history`` is ``u_{t+b}``; its lag-1 and
    #     lag-m anchors are rows ``period + b - 1`` and ``b``.
    period = state.temporal_buffer.shape[0]
    history = np.empty((period + n_batch, rank), dtype=dtype)
    history[:period] = state.temporal_buffer
    lambda1, lambda2 = config.lambda1, config.lambda2
    pulls = (lambda1 + lambda2) * u_forecasts
    two_step = 2.0 * step_u
    for b, (u_f, data_term, pull) in enumerate(
        zip(u_forecasts, data_terms, pulls)
    ):
        history[period + b] = u_f + two_step * (
            data_term
            + lambda1 * history[period + b - 1]
            + lambda2 * history[b]
            - pull
        )
    u_news = history[period:]
    state.non_temporal = new_factors
    state.hw.update_many(u_news)
    state.temporal_buffer = history[-period:].copy()
    state.t += n_batch

    completed = kernels.from_device(
        kernels.kruskal_reconstruct_rows(
            [kernels.to_device(f) for f in new_factors],
            kernels.to_device(u_news),
        )
    )
    return [
        SofiaStep(
            completed=completed[b],
            outliers=outliers[b],
            prediction=predictions[b],
            temporal_forecast=u_forecasts[b],
            temporal_vector=u_news[b].copy(),
        )
        for b in range(n_batch)
    ]
