"""CCA decomposition, projection, and fixed-point oracle tests."""

import tracemalloc

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

    @pytest.mark.filterwarnings("error")
    def test_perfect_correlation(self):
        j = validate_gaussian(np.eye(1), np.eye(1), np.array([[1.0 - 1e-10]]))
        with pytest.raises(PerfectCorrelation):
            cca_decompose(j)
        # a correlation within 1e-6 of 1 always raises, whatever round-off the
        # basis adds; one just outside decomposes, all without a warning
        rng = np.random.default_rng(5)
        for leading in (1.0 - 5e-7, 1.0 - 1e-8, 1.0 - 2e-9):
            for _ in range(30):
                j = random_basis_joint(rng, [leading, 0.6, 0.2])
                with pytest.raises(PerfectCorrelation):
                    cca_decompose(j)
        for _ in range(30):
            j = random_basis_joint(rng, [1.0 - 1.1e-6, 0.6, 0.2])
            rho = cca_decompose(j).rho
            assert rho[0] == pytest.approx(1.0 - 1.1e-6, abs=1e-10)

    @pytest.mark.filterwarnings("error")
    def test_perfect_correlation_message_shows_measured_rho(self):
        # unit blocks whiten exactly, so rho is k_xy itself; the band is closed at 1 - 1e-6
        for k_xy, shown in ((1.0 - 5e-7, "0.999999500000"), (1.0 + 5e-7, "1.000000500000"),
                            (1.0 - 1e-6, "0.999999000000")):
            j = validate_gaussian(np.eye(1), np.eye(1), np.array([[k_xy]]))
            with pytest.raises(PerfectCorrelation, match=f"correlation {shown} >= 1 - 1e-6"):
                cca_decompose(j)

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

    @pytest.mark.parametrize("k", [1.5, 1.0, True, "1", None])
    def test_non_integer_k_refused(self, k):
        # 1.5 escaped as numpy's "slice indices must be integers"; True kept one component
        basis = cca_decompose(whitened_diag_joint([0.8, 0.5]))
        with pytest.raises(BadK, match="an integer"):
            cca_project(basis, k, np.zeros(2), np.zeros(2))

    def test_numpy_integer_k_accepted(self):
        basis = cca_decompose(whitened_diag_joint([0.8, 0.5]))
        for k in (np.int64(2), np.int32(1), np.uint8(2)):
            u, v = cca_project(basis, k, np.ones((3, 2)), np.ones((3, 2)))
            assert u.shape == v.shape == (3, int(k))

    def test_projection_peak_near_output_bytes(self, rng):
        # the (dim x k) maps are formed first: x @ w_x built an N x dim
        # temporary, a peak of about 3 times the projections' bytes
        j = random_gaussian_joint(rng, 20, 20)
        basis = cca_decompose(j)
        x = rng.standard_normal((20_000, 20))
        y = rng.standard_normal((20_000, 20))
        tracemalloc.start()
        try:
            u, v = cca_project(basis, 5, x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out_bytes = u.nbytes + v.nbytes
        assert peak < 1.25 * out_bytes, f"peak {peak} bytes for {out_bytes} bytes of projections"

    def test_projection_matches_left_to_right_product(self, rng):
        j = random_gaussian_joint(rng, 6, 4)
        basis = cca_decompose(j)
        x, y = sample_joint(j, 2_000, rng)
        u, v = cca_project(basis, 3, x, y)
        for got, ref in ((u, x @ basis.w_x @ basis.u[:, :3]), (v, y @ basis.w_y @ basis.v[:, :3])):
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

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
