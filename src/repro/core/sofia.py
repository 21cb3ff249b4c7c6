"""Public facade of the SOFIA algorithm (paper §V).

Typical usage::

    from repro import Sofia, SofiaConfig

    sofia = Sofia(SofiaConfig(rank=5, period=24))
    sofia.initialize(startup_subtensors, startup_masks)   # Alg. 1 + HW fit
    for y_t, mask_t in stream:
        step = sofia.step(y_t, mask_t)                    # Alg. 3
        completed = step.completed                        # imputation
    future = sofia.forecast(horizon=24)                   # Eq. 28
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.core.config import SofiaConfig
from repro.core.dynamic import dynamic_step, dynamic_step_batch
from repro.core.initialization import (
    InitializationResult,
    initialize,
    stack_subtensors,
)
from repro.core.model import SofiaModelState, SofiaStep
from repro.exceptions import NotFittedError, ShapeError
from repro.forecast.fitting import fit_holt_winters
from repro.forecast.vector_hw import VectorHoltWinters
from repro.tensor import kruskal_to_tensors
from repro.tensor.validation import check_mask

__all__ = ["Sofia"]


class Sofia:
    """Seasonality-aware Outlier-robust Factorization of Incomplete
    streAming tensors.

    The object is driven in two phases: :meth:`initialize` consumes the
    first ``t_i = init_seasons * period`` subtensors in one batch
    (Alg. 1 + §V-B), then :meth:`step` processes each subsequent subtensor
    online (Alg. 3).  :meth:`forecast` extrapolates beyond the last
    consumed step (Eq. 28).
    """

    def __init__(self, config: SofiaConfig):
        self.config = config
        self._state: SofiaModelState | None = None
        self._init_result: InitializationResult | None = None

    @classmethod
    def from_state(
        cls, config: SofiaConfig, state: SofiaModelState
    ) -> "Sofia":
        """Rebuild a ready-to-step model around an existing state.

        This is the warm-start constructor used by
        :func:`repro.core.serialization.load_sofia` (and the serving
        layer's checkpoint rehydration): the returned model skips the
        initialization phase entirely and continues the dynamic phase
        from ``state``.  The :attr:`initialization` details of the
        original fit are not carried along.
        """
        sofia = cls(config)
        sofia._state = state
        return sofia

    # ------------------------------------------------------------------
    # Phase 1-2: initialization + Holt-Winters fitting
    # ------------------------------------------------------------------
    def initialize(
        self,
        subtensors: Sequence[np.ndarray],
        masks: Sequence[np.ndarray] | None = None,
    ) -> list[np.ndarray]:
        """Run the initialization phase on the start-up subtensors.

        Parameters
        ----------
        subtensors:
            The first ``t_i`` subtensors (``t_i = config.init_steps``; more
            are accepted and all are used).
        masks:
            Matching observation masks; ``None`` means fully observed.

        Returns
        -------
        list of numpy.ndarray
            The completed (imputed) start-up subtensors.
        """
        if len(subtensors) < self.config.init_steps:
            raise ShapeError(
                f"initialization needs at least {self.config.init_steps} "
                f"subtensors (= init_seasons * period), got {len(subtensors)}"
            )
        tensor = stack_subtensors(subtensors)
        if masks is None:
            mask = np.ones(tensor.shape, dtype=bool)
        else:
            mask = stack_subtensors(
                [check_mask(m_t) for m_t in masks]
            ).astype(bool)

        result = initialize(tensor, mask, self.config)
        self._init_result = result
        temporal = result.factors[-1]

        fits = [
            fit_holt_winters(temporal[:, r], self.config.period)
            for r in range(self.config.rank)
        ]
        hw = VectorHoltWinters.from_fits(fits)

        # Initialization always runs in float64 (one-off batch work);
        # the fitted state is cast to the configured dtype here, and the
        # dynamic phase stays in that dtype end to end.
        dtype = self.config.np_dtype
        sigma = np.full(
            tuple(f.shape[0] for f in result.factors[:-1]),
            self.config.initial_sigma,
            dtype=dtype,
        )
        self._state = SofiaModelState(
            non_temporal=[f.astype(dtype) for f in result.factors[:-1]],
            temporal_buffer=temporal[-self.config.period:].astype(dtype),
            hw=hw,
            sigma=sigma,
            t=temporal.shape[0],
        )
        completed = result.completed
        return [completed[..., i] for i in range(completed.shape[-1])]

    # ------------------------------------------------------------------
    # Phase 3: dynamic updates
    # ------------------------------------------------------------------
    def step(
        self, subtensor: np.ndarray, mask: np.ndarray | None = None
    ) -> SofiaStep:
        """Consume one new subtensor ``Y_t`` online (Alg. 3).

        Subtensors observed below ``config.density_threshold`` are
        routed through the sparse execution path (robust split and
        gradient contractions per observed entry; see
        :func:`repro.core.dynamic.dynamic_step`) — same results, work
        proportional to the observed entries.

        Parameters
        ----------
        subtensor:
            The incoming data slice (non-temporal shape).
        mask:
            Observation mask; ``None`` means fully observed.

        Returns
        -------
        SofiaStep
            Completed subtensor, outlier estimate, and diagnostics.
        """
        state = self._require_state()
        y = np.asarray(subtensor, dtype=self.config.np_dtype)
        if mask is None:
            mask = np.ones(y.shape, dtype=bool)
        return dynamic_step(state, y, mask, self.config)

    def step_batch(
        self,
        subtensors: Sequence[np.ndarray] | np.ndarray,
        masks: Sequence[np.ndarray] | np.ndarray | None = None,
    ) -> list[SofiaStep]:
        """Consume ``B`` subtensors as one mini-batch (batched Alg. 3).

        The tensor-sized work of the whole batch runs through one kernel
        call per operation instead of ``B`` per-step dispatches; see
        :func:`repro.core.dynamic.dynamic_step_batch` for the exact
        semantics (``B = 1`` is bit-identical to :meth:`step`, ``B > 1``
        freezes the factors at the batch boundary).  Batches observed
        below ``config.density_threshold`` skip the dense robust pass
        and contract gradients per observed entry (the sparse path).

        Parameters
        ----------
        subtensors:
            Stacked ``(B, *subtensor_shape)`` array, or a sequence of
            ``B`` subtensors.
        masks:
            Matching observation masks; ``None`` means fully observed.

        Returns
        -------
        list of SofiaStep
            One per consumed subtensor, oldest first.
        """
        state = self._require_state()
        ys = np.asarray(subtensors, dtype=self.config.np_dtype)
        if masks is None:
            masks = np.ones(ys.shape, dtype=bool)
        else:
            masks = np.asarray(masks)
        return dynamic_step_batch(state, ys, masks, self.config)

    def run(
        self,
        stream: Iterable[tuple[np.ndarray, np.ndarray | None]],
    ) -> list[SofiaStep]:
        """Consume ``(subtensor, mask)`` pairs; returns all step results.

        With ``config.batch_size > 1`` the stream is consumed in
        mini-batch chunks through :meth:`step_batch` (the final chunk may
        be smaller); per-step results are returned either way.
        """
        batch = self.config.batch_size
        if batch == 1:
            return [self.step(y_t, m_t) for y_t, m_t in stream]
        results: list[SofiaStep] = []
        pending: list[tuple[np.ndarray, np.ndarray | None]] = []
        for pair in stream:
            pending.append(pair)
            if len(pending) == batch:
                results.extend(self._flush_chunk(pending))
                pending = []
        if pending:
            results.extend(self._flush_chunk(pending))
        return results

    def _flush_chunk(
        self, pending: Sequence[tuple[np.ndarray, np.ndarray | None]]
    ) -> list[SofiaStep]:
        """Run one collected mini-batch, materializing default masks."""
        ys = np.stack(
            [
                np.asarray(y, dtype=self.config.np_dtype)
                for y, _ in pending
            ],
            axis=0,
        )
        masks = np.stack(
            [
                np.ones(ys.shape[1:], dtype=bool)
                if m is None
                else check_mask(m, ys.shape[1:])
                for (_, m) in pending
            ],
            axis=0,
        )
        return self.step_batch(ys, masks)

    def impute(
        self, subtensor: np.ndarray, mask: np.ndarray | None = None
    ) -> np.ndarray:
        """Process one subtensor and return it with missing entries filled.

        Observed entries are kept verbatim; missing ones come from the
        reconstruction ``X̂_t``.
        """
        y = np.asarray(subtensor, dtype=self.config.np_dtype)
        if mask is None:
            mask = np.ones(y.shape, dtype=bool)
        m = check_mask(mask, y.shape)
        step = self.step(y, m)
        return np.where(m, y, step.completed)

    # ------------------------------------------------------------------
    # Forecasting
    # ------------------------------------------------------------------
    def forecast(self, horizon: int) -> np.ndarray:
        """Forecast the next ``horizon`` subtensors (Eq. 28).

        Returns an array of shape ``(horizon, *subtensor_shape)`` built
        from the most recent non-temporal factors and the HW forecast of
        the temporal vectors.
        """
        state = self._require_state()
        # (horizon, R), cast so a float32 model forecasts in float32.
        u_future = state.hw.forecast(horizon).astype(
            state.dtype, copy=False
        )
        return kruskal_to_tensors(state.non_temporal, u_future)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def is_initialized(self) -> bool:
        return self._state is not None

    @property
    def state(self) -> SofiaModelState:
        """The live model state (factors, HW components, error scales)."""
        return self._require_state()

    @property
    def initialization(self) -> InitializationResult:
        """Details of the initialization phase (Alg. 1 outcome)."""
        if self._init_result is None:
            raise NotFittedError("call initialize() first")
        return self._init_result

    def _require_state(self) -> SofiaModelState:
        if self._state is None:
            raise NotFittedError(
                "SOFIA has not been initialized; call initialize() with the "
                "start-up subtensors first"
            )
        return self._state
