"""CCA decomposition, projection, and fixed-point oracle tests."""

import warnings

import numpy as np
import pytest

from cica import (
    cca_decompose,
    cca_project,
    validate_gaussian,
)
from cica.errors import BadK, InconsistentBlock, PerfectCorrelation, ShapeMismatch
from conftest import (
    leading_pair_fixed_point,
    random_basis_joint,
    random_gaussian_joint,
    sample_joint,
    whitened_diag_joint,
)


def check_basis_invariants(basis, canonical):
    n = basis.rho.size
    assert np.all(basis.rho[:-1] >= basis.rho[1:] - 1e-15)
    assert basis.rho[0] < 1.0 and basis.rho[-1] >= 0.0
    np.testing.assert_allclose(basis.u.T @ basis.u, np.eye(n), atol=1e-8)
    np.testing.assert_allclose(basis.v.T @ basis.v, np.eye(n), atol=1e-8)
    np.testing.assert_allclose(
        (basis.u * basis.rho) @ basis.v.T, canonical, atol=1e-8
    )
    for j in range(n):
        i = int(np.argmax(np.abs(basis.u[:, j])))
        assert basis.u[i, j] > 0 or np.allclose(basis.u[:, j], 0)


class TestCcaDecompose:
    def test_zero_cross_identity_bases(self):
        j = validate_gaussian(np.eye(2), np.eye(2), np.zeros((2, 2)))
        basis = cca_decompose(j)
        np.testing.assert_array_equal(basis.rho, [0.0, 0.0])
        np.testing.assert_array_equal(basis.u, np.eye(2))
        np.testing.assert_array_equal(basis.v, np.eye(2))

    def test_unsorted_diagonal_gets_sorted(self):
        j = validate_gaussian(np.eye(2), np.eye(2), np.diag([0.5, 0.8]))
        basis = cca_decompose(j)
        np.testing.assert_allclose(basis.rho, [0.8, 0.5], atol=1e-14)
        # u, v are the permutation swapping the two coordinates
        np.testing.assert_allclose(basis.u, [[0, 1], [1, 0]], atol=1e-14)
        np.testing.assert_allclose(basis.v, [[0, 1], [1, 0]], atol=1e-14)

    def test_invariant_suite_random(self, rng):
        for _ in range(10):
            j = random_gaussian_joint(rng, 3, 3)
            basis = cca_decompose(j)
            check_basis_invariants(basis, basis.w_x @ j.k_xy @ basis.w_y)

    def test_deterministic(self, rng):
        j = random_gaussian_joint(rng, 4, 3)
        b1 = cca_decompose(j)
        b2 = cca_decompose(j)
        np.testing.assert_array_equal(b1.rho, b2.rho)
        np.testing.assert_array_equal(b1.u, b2.u)
        np.testing.assert_array_equal(b1.v, b2.v)

    def test_perfect_correlation(self):
        j = validate_gaussian(np.eye(1), np.eye(1), np.array([[1.0 - 1e-10]]))
        with pytest.raises(PerfectCorrelation):
            with pytest.warns(UserWarning):
                cca_decompose(j)
        # a correlation within 1e-6 of 1 is clamped and then always raises,
        # whatever round-off the basis adds; one just outside decomposes
        rng = np.random.default_rng(5)
        for leading in (1.0 - 5e-7, 1.0 - 1e-8, 1.0 - 2e-9):
            for _ in range(30):
                j = random_basis_joint(rng, [leading, 0.6, 0.2])
                with pytest.raises(PerfectCorrelation):
                    with pytest.warns(UserWarning, match="clamped"):
                        cca_decompose(j)
        for _ in range(30):
            j = random_basis_joint(rng, [1.0 - 1.1e-6, 0.6, 0.2])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rho = cca_decompose(j).rho
            assert rho[0] == pytest.approx(1.0 - 1.1e-6, abs=1e-10)

    def test_clamp_warning_points_at_caller(self):
        j = validate_gaussian(np.eye(1), np.eye(1), np.array([[1.0 - 5e-7]]))
        with pytest.raises(PerfectCorrelation):
            with pytest.warns(UserWarning, match="clamped") as record:
                cca_decompose(j)
        assert record[0].filename == __file__

    def test_invariance_under_invertible_maps(self, rng):
        j = random_gaussian_joint(rng, 3, 3)
        rho = cca_decompose(j).rho
        a = rng.standard_normal((3, 3)) + 3 * np.eye(3)
        b = rng.standard_normal((3, 3)) + 3 * np.eye(3)
        j2 = validate_gaussian(a @ j.k_x @ a.T, b @ j.k_y @ b.T, a @ j.k_xy @ b.T)
        rho2 = cca_decompose(j2).rho
        np.testing.assert_allclose(rho, rho2, atol=1e-8)


class TestCcaProject:
    def test_zero_inputs(self):
        j = whitened_diag_joint([0.8, 0.5])
        basis = cca_decompose(j)
        u, v = cca_project(basis, 2, np.zeros(2), np.zeros(2))
        np.testing.assert_array_equal(u, [0.0, 0.0])
        np.testing.assert_array_equal(v, [0.0, 0.0])

    def test_whitened_top_component(self):
        j = whitened_diag_joint([0.8, 0.5])
        basis = cca_decompose(j)
        u, _ = cca_project(basis, 1, np.array([1.0, 0.0]), np.zeros(2))
        np.testing.assert_allclose(u, [1.0], atol=1e-14)

    def test_bad_k(self):
        j = whitened_diag_joint([0.8, 0.5])
        basis = cca_decompose(j)
        with pytest.raises(BadK):
            cca_project(basis, 0, np.zeros(2), np.zeros(2))
        with pytest.raises(BadK):
            cca_project(basis, 3, np.zeros(2), np.zeros(2))

    def test_wrong_width_refused(self):
        # numpy's matmul used to report the mismatch
        basis = cca_decompose(whitened_diag_joint([0.8, 0.5]))
        with pytest.raises(ShapeMismatch, match="x rows need 2"):
            cca_project(basis, 1, np.zeros((4, 3)), np.zeros((4, 2)))
        with pytest.raises(ShapeMismatch, match="y rows need 2"):
            cca_project(basis, 1, np.zeros(2), np.zeros(1))

    @pytest.mark.parametrize("bad", ["x", "y"])
    def test_non_finite_sample_refused(self, bad):
        # a NaN sample used to come back as NaN features
        basis = cca_decompose(whitened_diag_joint([0.8, 0.5]))
        x, y = [[0.0, 1.0]], [[1.0, 0.0]]
        if bad == "x":
            x = [[np.nan, 1.0]]
        else:
            y = [[1.0, np.inf]]
        with pytest.raises(InconsistentBlock, match="non-finite"):
            cca_project(basis, 1, x, y)

    def test_feature_correlations_match_rho(self, rng):
        j = random_gaussian_joint(rng, 3, 3)
        basis = cca_decompose(j)
        x, y = sample_joint(j, 100_000, rng)
        u, v = cca_project(basis, basis.n_components, x, y)
        for i in range(basis.n_components):
            emp = np.corrcoef(u[:, i], v[:, i])[0, 1]
            assert abs(emp - basis.rho[i]) < 2e-2


class TestLeadingPairFixedPoint:
    def test_diagonal(self):
        u, v, rho = leading_pair_fixed_point(np.diag([0.8, 0.5]))
        assert rho == pytest.approx(0.8, abs=1e-10)
        np.testing.assert_allclose(np.abs(u), [1.0, 0.0], atol=1e-6)

    def test_rank_one(self, rng):
        u0 = rng.standard_normal(3)
        u0 /= np.linalg.norm(u0)
        v0 = rng.standard_normal(4)
        v0 /= np.linalg.norm(v0)
        u, v, rho = leading_pair_fixed_point(0.3 * np.outer(u0, v0))
        assert rho == pytest.approx(0.3, abs=1e-12)
        assert min(np.linalg.norm(u - u0), np.linalg.norm(u + u0)) < 1e-8
        assert min(np.linalg.norm(v - v0), np.linalg.norm(v + v0)) < 1e-8

    def test_degenerate_spectrum(self):
        # equal top singular values: either a valid pair or NoConvergence
        from cica.errors import NoConvergence

        try:
            u, v, rho = leading_pair_fixed_point(np.diag([0.5, 0.5]), max_iter=2000)
        except NoConvergence:
            return
        assert rho == pytest.approx(0.5, abs=1e-8)
        np.testing.assert_allclose(np.diag([0.5, 0.5]) @ v, 0.5 * u, atol=1e-6)

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError):
            leading_pair_fixed_point(np.zeros((2, 2)))

    def test_agreement_with_svd(self, rng):
        hits = 0
        while hits < 8:
            j = random_gaussian_joint(rng, 3, 3)
            basis = cca_decompose(j)
            if basis.rho[0] - basis.rho[1] < 5e-2:
                continue
            hits += 1
            _, _, rho1 = leading_pair_fixed_point(basis.w_x @ j.k_xy @ basis.w_y)
            assert abs(rho1 - basis.rho[0]) < 1e-8
