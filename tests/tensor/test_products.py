"""Unit tests for repro.tensor.products (Khatri-Rao/Hadamard/Kruskal)."""

import numpy as np
import pytest

from repro.exceptions import ShapeError
from repro.tensor import (
    hadamard_all,
    khatri_rao,
    kruskal_to_tensor,
    kruskal_to_tensors,
    normalize_columns,
    outer,
    unfold,
)


class TestKhatriRao:
    def test_shape(self):
        a = np.ones((3, 2))
        b = np.ones((4, 2))
        assert khatri_rao([a, b]).shape == (12, 2)

    def test_paper_eq1_block_structure(self):
        # Eq. (1): row-block i of U ⊙ W is u_{i r} * column_r(W).
        rng = np.random.default_rng(7)
        u = rng.normal(size=(3, 2))
        w = rng.normal(size=(4, 2))
        kr = khatri_rao([u, w])
        for i in range(3):
            block = kr[i * 4:(i + 1) * 4]
            np.testing.assert_allclose(block, u[i][None, :] * w)

    def test_single_matrix_is_copy(self):
        a = np.arange(6, dtype=float).reshape(3, 2)
        out = khatri_rao([a])
        np.testing.assert_array_equal(out, a)
        out[0, 0] = 99.0
        assert a[0, 0] == 0.0

    def test_three_matrices_associative(self):
        rng = np.random.default_rng(1)
        mats = [rng.normal(size=(d, 3)) for d in (2, 3, 4)]
        direct = khatri_rao(mats)
        nested = khatri_rao([khatri_rao(mats[:2]), mats[2]])
        np.testing.assert_allclose(direct, nested)

    def test_rank_mismatch(self):
        with pytest.raises(ShapeError):
            khatri_rao([np.ones((3, 2)), np.ones((4, 3))])

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            khatri_rao([])

    def test_last_matrix_varies_fastest(self):
        a = np.array([[1.0], [2.0]])
        b = np.array([[10.0], [20.0], [30.0]])
        expected = np.array([[10.0], [20.0], [30.0], [20.0], [40.0], [60.0]])
        np.testing.assert_allclose(khatri_rao([a, b]), expected)


class TestHadamard:
    def test_two(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[2.0, 0.5], [1.0, 2.0]])
        np.testing.assert_allclose(hadamard_all([a, b]), a * b)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            hadamard_all([np.ones((2, 2)), np.ones((3, 2))])

    def test_does_not_mutate_inputs(self):
        a = np.ones((2, 2))
        b = np.full((2, 2), 3.0)
        hadamard_all([a, b])
        np.testing.assert_array_equal(a, np.ones((2, 2)))


class TestOuter:
    def test_rank1_3way(self):
        u, v, w = np.array([1.0, 2.0]), np.array([3.0, 4.0]), np.array([5.0])
        t = outer([u, v, w])
        assert t.shape == (2, 2, 1)
        assert t[1, 0, 0] == pytest.approx(2 * 3 * 5)

    def test_single_vector(self):
        np.testing.assert_array_equal(outer([np.array([1.0, 2.0])]), [1.0, 2.0])


class TestKruskalToTensor:
    def test_matches_explicit_sum_of_outer_products(self):
        rng = np.random.default_rng(3)
        factors = [rng.normal(size=(d, 3)) for d in (4, 5, 6)]
        expected = np.zeros((4, 5, 6))
        for r in range(3):
            expected += outer([f[:, r] for f in factors])
        np.testing.assert_allclose(kruskal_to_tensor(factors), expected)

    def test_unfold_identity(self):
        # unfold(X, n) == U_n @ KR(others).T under the C-order convention.
        rng = np.random.default_rng(4)
        factors = [rng.normal(size=(d, 2)) for d in (3, 4, 5)]
        x = kruskal_to_tensor(factors)
        for n in range(3):
            others = [factors[l] for l in range(3) if l != n]
            np.testing.assert_allclose(
                unfold(x, n), factors[n] @ khatri_rao(others).T, atol=1e-12
            )

    def test_weights_scale_components(self):
        rng = np.random.default_rng(5)
        factors = [rng.normal(size=(d, 2)) for d in (3, 4)]
        w = np.array([2.0, -1.0])
        scaled = [factors[0] * w[None, :], factors[1]]
        np.testing.assert_allclose(
            kruskal_to_tensor(factors, weights=w), kruskal_to_tensor(scaled)
        )

    def test_weights_as_temporal_row(self):
        # SOFIA predicts a subtensor by weighting the non-temporal factors
        # with a temporal row vector (Eq. 20).
        rng = np.random.default_rng(6)
        u1 = rng.normal(size=(3, 2))
        u2 = rng.normal(size=(4, 2))
        u3 = rng.normal(size=(5, 2))
        full = kruskal_to_tensor([u1, u2, u3])
        for t in range(5):
            np.testing.assert_allclose(
                kruskal_to_tensor([u1, u2], weights=u3[t]), full[:, :, t]
            )

    def test_single_factor(self):
        u = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_allclose(kruskal_to_tensor([u]), u.sum(axis=1))

    def test_wrong_weight_length(self):
        with pytest.raises(ShapeError):
            kruskal_to_tensor([np.ones((2, 2))], weights=np.ones(3))

    def test_4way(self):
        rng = np.random.default_rng(8)
        factors = [rng.normal(size=(d, 2)) for d in (2, 3, 2, 3)]
        x = kruskal_to_tensor(factors)
        assert x.shape == (2, 3, 2, 3)
        expected = sum(outer([f[:, r] for f in factors]) for r in range(2))
        np.testing.assert_allclose(x, expected)


class TestKruskalToTensors:
    @pytest.mark.parametrize("dims", [(4,), (4, 3), (4, 3, 2)])
    def test_rows_match_single_reconstructions(self, dims):
        rng = np.random.default_rng(9)
        factors = [rng.normal(size=(d, 3)) for d in dims]
        rows = rng.normal(size=(5, 3))
        stacked = kruskal_to_tensors(factors, rows)
        assert stacked.shape == (5, *dims)
        for h in range(5):
            np.testing.assert_array_max_ulp(
                stacked[h], kruskal_to_tensor(factors, weights=rows[h]), 1
            )

    def test_float32_stays_float32(self):
        factors = [np.ones((2, 2), dtype=np.float32)] * 2
        rows = np.ones((3, 2), dtype=np.float32)
        assert kruskal_to_tensors(factors, rows).dtype == np.float32

    @pytest.mark.parametrize("rows", [np.ones(2), np.ones((3, 4))])
    def test_bad_weight_rows(self, rows):
        with pytest.raises(ShapeError):
            kruskal_to_tensors([np.ones((2, 2))], rows)


class TestNormalizeColumns:
    def test_unit_norms(self):
        rng = np.random.default_rng(9)
        mat = rng.normal(size=(5, 3)) * np.array([1.0, 10.0, 0.1])
        normalized, norms = normalize_columns(mat)
        np.testing.assert_allclose(np.linalg.norm(normalized, axis=0), 1.0)
        np.testing.assert_allclose(normalized * norms[None, :], mat)

    def test_zero_column_untouched(self):
        mat = np.zeros((4, 2))
        mat[:, 1] = 2.0
        normalized, norms = normalize_columns(mat)
        np.testing.assert_array_equal(normalized[:, 0], 0.0)
        assert norms[0] == 1.0
        assert norms[1] == pytest.approx(4.0)

    def test_rejects_tensor(self):
        with pytest.raises(ShapeError):
            normalize_columns(np.zeros((2, 2, 2)))
