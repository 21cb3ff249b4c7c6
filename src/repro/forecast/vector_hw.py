"""Vectorized Holt-Winters state over ``R`` parallel series (paper Eq. 26).

SOFIA fits one scalar HW model per column of the temporal factor matrix
and then advances all ``R`` of them jointly during the dynamic phase.
:class:`VectorHoltWinters` holds the stacked level/trend vectors and an
``(m, R)`` seasonal buffer (rows oldest-first) and implements the
diagonal-matrix smoothing equations (26a)-(26c) plus the vector forecast
used in Eq. 19 / Eq. 28.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ConfigError, ShapeError
from repro.forecast.fitting import FittedHoltWinters

__all__ = ["VectorHoltWinters"]


@dataclass
class VectorHoltWinters:
    """Joint Holt-Winters state for ``R`` series with per-series parameters.

    Attributes
    ----------
    level, trend:
        Arrays of shape ``(R,)`` — the paper's ``l_t`` and ``b_t``.
    seasonal:
        Array of shape ``(m, R)`` holding ``s_{t-m+1}, ..., s_t``
        oldest-first, so ``seasonal[0]`` is the ``s_{t-m}`` used by the
        one-step forecast after the buffer has rolled.
    alpha, beta, gamma:
        Arrays of shape ``(R,)`` — the diagonal entries of ``diag(α)`` etc.
    """

    level: np.ndarray
    trend: np.ndarray
    seasonal: np.ndarray = field(repr=False)
    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray

    def __post_init__(self) -> None:
        self.level = np.asarray(self.level, dtype=np.float64).reshape(-1)
        self.trend = np.asarray(self.trend, dtype=np.float64).reshape(-1)
        self.seasonal = np.asarray(self.seasonal, dtype=np.float64)
        for name in ("alpha", "beta", "gamma"):
            arr = np.asarray(getattr(self, name), dtype=np.float64).reshape(-1)
            if np.any(arr < 0.0) or np.any(arr > 1.0):
                raise ConfigError(f"{name} entries must be in [0, 1]")
            setattr(self, name, arr)
        rank = self.level.size
        if self.seasonal.ndim != 2 or self.seasonal.shape[1] != rank:
            raise ShapeError(
                f"seasonal buffer must be (m, {rank}), got {self.seasonal.shape}"
            )
        for name in ("trend", "alpha", "beta", "gamma"):
            if getattr(self, name).size != rank:
                raise ShapeError(f"{name} must have length {rank}")

    @property
    def rank(self) -> int:
        return int(self.level.size)

    @property
    def period(self) -> int:
        return int(self.seasonal.shape[0])

    @classmethod
    def from_fits(cls, fits: Sequence[FittedHoltWinters]) -> "VectorHoltWinters":
        """Stack ``R`` per-column scalar fits into one vector state."""
        if not fits:
            raise ShapeError("need at least one fitted HW model")
        periods = {f.state.period for f in fits}
        if len(periods) != 1:
            raise ShapeError(f"all fits must share a period, got {periods}")
        return cls(
            level=np.array([f.state.level for f in fits]),
            trend=np.array([f.state.trend for f in fits]),
            seasonal=np.stack([f.state.seasonal for f in fits], axis=1),
            alpha=np.array([f.params.alpha for f in fits]),
            beta=np.array([f.params.beta for f in fits]),
            gamma=np.array([f.params.gamma for f in fits]),
        )

    def forecast_one_step(self) -> np.ndarray:
        """``u_hat_{t|t-1} = l_{t-1} + b_{t-1} + s_{t-m}`` (Eq. 19)."""
        return self.level + self.trend + self.seasonal[0]

    def forecast(self, horizon: int) -> np.ndarray:
        """Forecast ``horizon`` future temporal vectors (Eq. 6 per column).

        Returns an array of shape ``(horizon, R)``.
        """
        if horizon < 1:
            raise ConfigError(f"horizon must be >= 1, got {horizon}")
        steps = np.arange(1, horizon + 1)
        seasonal_idx = (steps - 1) % self.period
        return (
            self.level[None, :]
            + steps[:, None] * self.trend[None, :]
            + self.seasonal[seasonal_idx]
        )

    def update(self, value: np.ndarray) -> None:
        """Advance the state with the new temporal vector (Eq. 26a-26c)."""
        u = np.asarray(value, dtype=np.float64).reshape(-1)
        if u.size != self.rank:
            raise ShapeError(f"expected a length-{self.rank} vector, got {u.size}")
        self._advance(u[None, :])

    def update_many(self, values: np.ndarray) -> None:
        """Advance the state with ``B`` temporal vectors in one call.

        Applies Eq. 26a-26c once per row of ``values`` (oldest first) —
        the smoothing recurrences are sequential by definition, but each
        iteration is ``O(R)``, so a whole mini-batch advances without
        re-entering the per-step dispatch path.
        """
        vals = np.asarray(values, dtype=np.float64)
        if vals.ndim != 2 or vals.shape[1] != self.rank:
            raise ShapeError(
                f"expected a (batch, {self.rank}) array, got {vals.shape}"
            )
        self._advance(vals)

    def _advance(self, rows: np.ndarray) -> None:
        """Eq. 26a-26c once per row of the float64 ``(B, R)`` ``rows``.

        The ``R`` series are independent, so the recurrence runs series
        by series on Python floats: at SOFIA's ranks a NumPy call on a
        length-``R`` vector costs far more in dispatch than in flops.
        Python floats round every operation exactly as NumPy's float64
        ufuncs do, and the operations and their order are those of
        Eq. 26a-26c, so the new state is bit-for-bit the vectorized
        one.  The live arrays are replaced, never written in place.
        """
        level, trend = self.level.tolist(), self.trend.tolist()
        seasonal = self.seasonal.T.tolist()  # per series, oldest first
        params = zip(self.alpha.tolist(), self.beta.tolist(), self.gamma.tolist())
        for r, (series, (alpha, beta, gamma)) in enumerate(
            zip(rows.T.tolist(), params)
        ):
            keep_a, keep_b, keep_g = 1.0 - alpha, 1.0 - beta, 1.0 - gamma
            lvl, trd, season = level[r], trend[r], seasonal[r]
            for b, u in enumerate(series):
                s_old = season[b]  # s_{t-m}
                new_level = alpha * (u - s_old) + keep_a * (lvl + trd)
                season.append(gamma * (u - lvl - trd) + keep_g * s_old)
                trd = beta * (new_level - lvl) + keep_b * trd
                lvl = new_level
            level[r], trend[r] = lvl, trd
        self.level = np.array(level)
        self.trend = np.array(trend)
        self.seasonal = np.array(seasonal)[:, rows.shape[0]:].T.copy()

    def copy(self) -> "VectorHoltWinters":
        """Deep copy (used to forecast without disturbing live state)."""
        return VectorHoltWinters(
            level=self.level.copy(),
            trend=self.trend.copy(),
            seasonal=self.seasonal.copy(),
            alpha=self.alpha.copy(),
            beta=self.beta.copy(),
            gamma=self.gamma.copy(),
        )
