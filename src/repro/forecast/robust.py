"""Robust statistics for forecasting: Huber ψ, biweight ρ, robust HW.

Implements the pre-cleaning mechanism of Gelper, Fried & Croux (paper
§III-D, [38]): observations whose one-step forecast error exceeds ``k``
error scales are clipped back (Eq. 7), and the error scale itself is
tracked by an exponentially smoothed biweight recursion (Eq. 8-9).

The constants follow the paper: ``k = 2`` for both functions and
``c_k = 2.52`` for the biweight ρ.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigError
from repro.forecast.holt_winters import (
    HoltWintersParams,
    HoltWintersState,
    hw_forecast,
    hw_update,
)
from repro.tensor.validation import as_float

__all__ = [
    "DEFAULT_CK",
    "DEFAULT_K",
    "RobustHoltWinters",
    "biweight_rho",
    "clean_value",
    "huber_psi",
    "update_scale_gelper",
]

DEFAULT_K = 2.0
DEFAULT_CK = 2.52


def huber_psi(x, k: float = DEFAULT_K):
    """Element-wise Huber ψ-function: identity inside ``[-k, k]``, clipped
    to ``sign(x) * k`` outside (§III-D)."""
    arr = as_float(x)
    result = np.clip(arr, -k, k)
    if np.isscalar(x) or arr.ndim == 0:
        return float(result)
    return result


def biweight_rho(x, k: float = DEFAULT_K, ck: float = DEFAULT_CK):
    """Element-wise biweight ρ-function (Eq. 9).

    Equals ``ck * (1 - (1 - (x/k)^2)^3)`` for ``|x| <= k`` and ``ck``
    outside; bounded, so one extreme residual cannot explode the scale.

    Only the nonzero bases are cubed: libm's ``pow(0, 3)`` takes a slow
    path several times dearer than a nonzero base, and in a corrupted
    stream most residuals clip at ``k`` where the base is exactly zero.
    Zero bases are shifted to one and the cube masked back to ``+0.0``,
    which is bit-for-bit the textbook result (the base is never
    ``-0.0``, and NaN and ±inf propagate unchanged).
    """
    arr = as_float(x)
    scaled = np.clip(np.abs(arr) / k, 0.0, 1.0)
    inner = 1.0 - scaled**2
    dead = inner == 0.0
    cube = (inner + dead) ** 3
    cube *= ~dead
    result = ck * (1.0 - cube)
    if np.isscalar(x) or arr.ndim == 0:
        return float(result)
    return result


def clean_value(value, forecast, sigma, k: float = DEFAULT_K):
    """Replace ``value`` with its cleaned version ``y*`` (Eq. 7).

    ``y* = ψ((y - yhat)/σ) σ + yhat``; inliers pass through unchanged,
    outliers are pulled to within ``k`` scales of the forecast.
    """
    val = np.asarray(value, dtype=np.float64)
    fc = np.asarray(forecast, dtype=np.float64)
    sg = np.asarray(sigma, dtype=np.float64)
    result = huber_psi((val - fc) / sg, k) * sg + fc
    if np.isscalar(value) and np.ndim(result) == 0:
        return float(result)
    return result


def update_scale_gelper(
    value,
    forecast,
    sigma,
    phi: float,
    k: float = DEFAULT_K,
    ck: float = DEFAULT_CK,
):
    """Update the error scale with the biweight recursion (Eq. 8).

    ``σ_t² = φ ρ((y - yhat)/σ_{t-1}) σ_{t-1}² + (1 - φ) σ_{t-1}²``.
    """
    if not 0.0 <= phi <= 1.0:
        raise ConfigError(f"phi must be in [0, 1], got {phi}")
    val = np.asarray(value, dtype=np.float64)
    fc = np.asarray(forecast, dtype=np.float64)
    sg = np.asarray(sigma, dtype=np.float64)
    sigma_sq = phi * biweight_rho((val - fc) / sg, k, ck) * sg**2 + (
        1.0 - phi
    ) * sg**2
    result = np.sqrt(sigma_sq)
    if np.isscalar(value) and np.ndim(result) == 0:
        return float(result)
    return result


@dataclass
class RobustHoltWinters:
    """Gelper-style robust Holt-Winters filter for a scalar series.

    Follows the original ordering from [38]: at each step the error scale
    is updated first, then the observation is cleaned, then the HW
    smoothing equations consume the cleaned value.  (SOFIA deliberately
    reverses the first two steps for tensors; see
    :mod:`repro.core.outliers`.)
    """

    params: HoltWintersParams
    state: HoltWintersState
    sigma: float
    phi: float = 0.1
    k: float = DEFAULT_K
    ck: float = DEFAULT_CK

    def __post_init__(self) -> None:
        if self.sigma <= 0:
            raise ConfigError(f"sigma must be positive, got {self.sigma}")
        if not 0.0 <= self.phi <= 1.0:
            raise ConfigError(f"phi must be in [0, 1], got {self.phi}")

    def step(self, value: float) -> tuple[float, float]:
        """Consume one observation.

        Returns ``(forecast_used, cleaned_value)`` where ``forecast_used``
        is the one-step-ahead forecast made before seeing ``value``.
        """
        forecast = self.state.forecast_next()
        self.sigma = update_scale_gelper(
            value, forecast, self.sigma, self.phi, self.k, self.ck
        )
        cleaned = clean_value(value, forecast, self.sigma, self.k)
        self.state = hw_update(self.state, cleaned, self.params)
        return forecast, cleaned

    def run(self, series: np.ndarray) -> np.ndarray:
        """Filter a whole series; returns the cleaned series."""
        cleaned = np.empty(len(series), dtype=np.float64)
        for t, value in enumerate(np.asarray(series, dtype=np.float64)):
            _, cleaned[t] = self.step(float(value))
        return cleaned

    def forecast(self, horizon: int) -> np.ndarray:
        """Forecast ``horizon`` steps ahead from the current state."""
        return hw_forecast(self.state, horizon)
