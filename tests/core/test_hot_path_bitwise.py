"""Bitwise pins for the element-wise work of SOFIA's online step.

The biweight ρ, the fused ψ/ρ outlier split, the Holt-Winters advance
and the temporal ring buffer are written for speed; these tests hold
each one to its textbook form bit for bit.  Arrays are compared through
integer views, so a flipped sign of zero or a changed NaN counts as a
difference.
"""

import numpy as np
import pytest

from repro.core.model import SofiaModelState
from repro.core.outliers import (
    robust_step,
    robust_step_at,
    robust_step_batch,
    robust_step_batch_at,
)
from repro.forecast.robust import biweight_rho
from repro.forecast.vector_hw import VectorHoltWinters

DTYPES = (np.float64, np.float32)
K = 2.0
CK = 2.52
PHI = 0.01


def assert_bits_equal(actual, expected):
    actual = np.asarray(actual)
    expected = np.asarray(expected)
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    view = np.int64 if actual.dtype == np.float64 else np.int32
    np.testing.assert_array_equal(actual.view(view), expected.view(view))


def textbook_rho(x, k=K, ck=CK):
    """Eq. 9 exactly as written: ``ck (1 - (1 - clip(|x|/k)²)³)``."""
    return ck * (1.0 - (1.0 - np.clip(np.abs(x) / k, 0.0, 1.0) ** 2) ** 3)


def rho_grid(dtype):
    """Zeros, ±k, the neighbours of k, ±inf, NaN, subnormals, bulk."""
    info = np.finfo(dtype)
    k = dtype(K)
    inside = np.nextafter(k, dtype(0))
    outside = np.nextafter(k, dtype(np.inf))
    special = [
        0.0, -0.0, k, -k, inside, -inside, outside, -outside,
        np.inf, -np.inf, np.nan, -np.nan,
        info.smallest_subnormal, -info.smallest_subnormal,
        info.smallest_normal, info.tiny * 3, info.max, -info.max,
        info.eps, 1.0, -1.0, 0.5, 3.0,
    ]
    bulk = np.random.default_rng(0).normal(scale=3.0, size=500)
    return np.concatenate([np.array(special, dtype=dtype), bulk.astype(dtype)])


class TestBiweightRho:
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_matches_textbook_on_edge_grid(self, dtype):
        x = rho_grid(dtype)
        assert_bits_equal(biweight_rho(x), textbook_rho(x))

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_custom_constants(self, dtype):
        x = rho_grid(dtype)
        assert_bits_equal(
            biweight_rho(x, 1.5, 3.0), textbook_rho(x, 1.5, 3.0)
        )

    @pytest.mark.parametrize(
        "value", [0.0, K, -K, 1.0, 5.0, np.inf, np.nan]
    )
    def test_scalar(self, value):
        got = biweight_rho(value)
        assert isinstance(got, float)
        assert_bits_equal(np.float64(got), textbook_rho(np.float64(value)))


def two_ratio_split(residual, sigma, k=K, ck=CK):
    """The two-ratio split: ψ and ρ each form ``residual / sigma``."""
    excess = residual - np.clip(residual / sigma, -k, k) * sigma
    rho = textbook_rho(residual / sigma, k, ck)
    return excess, rho


def robust_inputs(dtype, shape, seed=0):
    """Residuals: clipped, inside k, and exactly zero; some unobserved."""
    rng = np.random.default_rng(seed)
    predicted = rng.normal(size=shape)
    sigma = rng.uniform(0.2, 1.5, size=shape[-2:])
    observed = predicted + rng.normal(scale=3.0, size=shape)
    exact = rng.random(shape) < 0.1
    observed[exact] = predicted[exact]
    mask = rng.random(shape) < 0.8
    return (
        observed.astype(dtype),
        predicted.astype(dtype),
        sigma.astype(dtype),
        mask,
    )


class TestRobustStep:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_dense_matches_two_ratio_form(self, dtype, order):
        y, yhat, sigma, mask = robust_inputs(dtype, (9, 7))
        sigma = np.asarray(sigma, order=order)
        outliers, new_sigma = robust_step(
            y, yhat, sigma, mask, k=K, phi=PHI, ck=CK
        )
        excess, rho = two_ratio_split(y - yhat, sigma)
        scale = np.sqrt(PHI * rho * sigma**2 + (1.0 - PHI) * sigma**2)
        assert_bits_equal(outliers, np.where(mask, excess, 0.0))
        assert_bits_equal(new_sigma, np.where(mask, scale, sigma))

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_at_coords_matches_two_ratio_form(self, dtype):
        y, yhat, sigma, mask = robust_inputs(dtype, (9, 7))
        coords = np.nonzero(mask)
        outliers, new_sigma = robust_step_at(
            coords, y[coords], yhat[coords], sigma, k=K, phi=PHI, ck=CK
        )
        sg = sigma[coords]
        excess, rho = two_ratio_split(y[coords] - yhat[coords], sg)
        expected_sigma = sigma.copy()
        expected_sigma[coords] = np.sqrt(
            PHI * rho * sg**2 + (1.0 - PHI) * sg**2
        )
        assert_bits_equal(outliers, excess)
        assert_bits_equal(new_sigma, expected_sigma)


class TestRobustStepBatch:
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_dense_matches_two_ratio_form(self, dtype):
        y, yhat, sigma, mask = robust_inputs(dtype, (6, 9, 7))
        outliers, new_sigma = robust_step_batch(
            y, yhat, sigma, mask, k=K, phi=PHI, ck=CK
        )
        excess, rho = two_ratio_split(y - yhat, sigma)
        growth = np.where(mask, PHI * rho + (1.0 - PHI), 1.0)
        assert_bits_equal(outliers, np.where(mask, excess, 0.0))
        assert_bits_equal(
            new_sigma, sigma * np.sqrt(np.prod(growth, axis=0))
        )

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_at_coords_outliers_match_two_ratio_form(self, dtype):
        y, yhat, sigma, mask = robust_inputs(dtype, (6, 9, 7))
        coords = np.nonzero(mask)
        outliers, _ = robust_step_batch_at(
            coords, y[coords], yhat[coords], sigma, k=K, phi=PHI, ck=CK
        )
        excess, _ = two_ratio_split(
            y[coords] - yhat[coords], sigma[coords[1:]]
        )
        assert_bits_equal(outliers, excess)


def textbook_hw_update(level, trend, seasonal, alpha, beta, gamma, u):
    """Eq. 26a-26c on whole vectors, rolling with ``np.vstack``."""
    s_old = seasonal[0]
    new_level = alpha * (u - s_old) + (1.0 - alpha) * (level + trend)
    new_trend = beta * (new_level - level) + (1.0 - beta) * trend
    s_new = gamma * (u - level - trend) + (1.0 - gamma) * s_old
    return new_level, new_trend, np.vstack([seasonal[1:], s_new[None, :]])


def random_hw(rank=4, period=3, seed=0):
    rng = np.random.default_rng(seed)
    return VectorHoltWinters(
        level=rng.normal(size=rank),
        trend=rng.normal(scale=0.1, size=rank),
        seasonal=rng.normal(size=(period, rank)),
        alpha=rng.uniform(size=rank),
        beta=rng.uniform(size=rank),
        gamma=rng.uniform(size=rank),
    )


class TestHoltWintersAdvance:
    @pytest.mark.parametrize("n_rows", [1, 2, 3, 8])
    def test_update_many_matches_textbook(self, n_rows):
        hw = random_hw()
        level, trend, seasonal = hw.level, hw.trend, hw.seasonal.copy()
        values = np.random.default_rng(1).normal(size=(n_rows, hw.rank))
        for u in values:
            level, trend, seasonal = textbook_hw_update(
                level, trend, seasonal, hw.alpha, hw.beta, hw.gamma, u
            )
        hw.update_many(values)
        assert_bits_equal(hw.level, level)
        assert_bits_equal(hw.trend, trend)
        assert_bits_equal(hw.seasonal, seasonal)

    def test_non_finite_rows_match_textbook(self):
        hw = random_hw()
        level, trend, seasonal = hw.level, hw.trend, hw.seasonal.copy()
        values = np.array(
            [[np.inf, -np.inf, np.nan, 1e308], [1.0, 2.0, -1e308, np.inf]]
        )
        with np.errstate(all="ignore"):
            for u in values:
                level, trend, seasonal = textbook_hw_update(
                    level, trend, seasonal, hw.alpha, hw.beta, hw.gamma, u
                )
        hw.update_many(values)
        assert_bits_equal(hw.level, level)
        assert_bits_equal(hw.trend, trend)
        assert_bits_equal(hw.seasonal, seasonal)

    def test_update_matches_textbook(self):
        hw = random_hw()
        u = np.random.default_rng(2).normal(size=hw.rank)
        expected = textbook_hw_update(
            hw.level, hw.trend, hw.seasonal, hw.alpha, hw.beta, hw.gamma, u
        )
        hw.update(u)
        for got, want in zip((hw.level, hw.trend, hw.seasonal), expected):
            assert_bits_equal(got, want)

    def test_live_arrays_are_not_written(self):
        hw = random_hw()
        before = (hw.level, hw.trend, hw.seasonal)
        copies = [a.copy() for a in before]
        hw.update_many(np.ones((5, hw.rank)))
        for array, copy in zip(before, copies):
            assert_bits_equal(array, copy)


class TestPushTemporal:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("period", [1, 3])
    def test_ring_order_matches_vstack(self, dtype, period):
        rank = 2
        buffer = np.arange(period * rank, dtype=dtype).reshape(period, rank)
        state = SofiaModelState(
            non_temporal=[np.ones((3, rank), dtype=dtype)],
            temporal_buffer=buffer,
            hw=random_hw(rank=rank, period=period),
            sigma=np.ones(3, dtype=dtype),
            t=0,
        )
        expected = state.temporal_buffer
        rng = np.random.default_rng(3)
        for _ in range(period + 2):
            previous = state.temporal_buffer
            kept = previous.copy()
            vector = rng.normal(size=rank)
            expected = np.vstack(
                [expected[1:], vector.astype(dtype)[None, :]]
            )
            state.push_temporal(vector)
            assert_bits_equal(state.temporal_buffer, expected)
            assert_bits_equal(previous, kept)
        assert_bits_equal(state.previous_vector, expected[-1])
        assert_bits_equal(state.season_vector, expected[0])
