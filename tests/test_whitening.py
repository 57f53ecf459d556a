"""Inverse-square-root and whitening tests."""

import numpy as np
import pytest

from cica import canonical_matrix, cca_decompose, inv_sqrt_psd, validate_gaussian
from cica.errors import InconsistentBlock, NotPositiveDefinite, PerfectCorrelation
from conftest import random_gaussian_joint, sample_joint


class TestInvSqrtPsd:
    def test_identity(self):
        np.testing.assert_allclose(inv_sqrt_psd(np.eye(3)), np.eye(3), atol=1e-14)

    def test_diagonal(self):
        np.testing.assert_allclose(
            inv_sqrt_psd(np.diag([4.0, 9.0])), np.diag([0.5, 1.0 / 3.0]), atol=1e-14
        )

    def test_defining_property_brute_force(self):
        k = np.array([[2.0, 1.0], [1.0, 2.0]])
        m = inv_sqrt_psd(k)
        np.testing.assert_allclose(m @ k @ m, np.eye(2), atol=1e-10)
        # symmetric and PD
        np.testing.assert_allclose(m, m.T, atol=1e-14)
        assert np.linalg.eigvalsh(m)[0] > 0

    def test_invariant_under_eigenvector_sign_flips(self, rng):
        b = rng.standard_normal((4, 4))
        k = b @ b.T + 4 * np.eye(4)
        m = inv_sqrt_psd(k)
        # rebuild from a sign-flipped eigenbasis: the product must not change
        lam, q = np.linalg.eigh(k)
        flips = np.diag([1.0, -1.0, 1.0, -1.0])
        q2 = q @ flips
        m2 = (q2 * (1.0 / np.sqrt(lam))) @ q2.T
        np.testing.assert_allclose(m, m2, atol=1e-12)

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefinite):
            inv_sqrt_psd(np.diag([1.0, -0.5]))
        with pytest.raises(NotPositiveDefinite):
            inv_sqrt_psd(np.diag([1.0, 0.0]))


class TestCanonicalMatrix:
    def test_zero_cross(self):
        j = validate_gaussian(np.eye(2), np.eye(2), np.zeros((2, 2)))
        basis = canonical_matrix(j)
        np.testing.assert_array_equal(basis.w_x @ j.k_xy @ basis.w_y, np.zeros((2, 2)))
        np.testing.assert_array_equal(basis.rho, [0.0, 0.0])

    def test_already_whitened(self):
        j = validate_gaussian(np.eye(2), np.eye(2), np.diag([0.8, 0.5]))
        basis = canonical_matrix(j)
        np.testing.assert_allclose(basis.w_x @ j.k_xy @ basis.w_y, np.diag([0.8, 0.5]), atol=1e-14)
        np.testing.assert_allclose(basis.rho, [0.8, 0.5], atol=1e-14)

    def test_whitening_property(self, rng):
        j = random_gaussian_joint(rng, 3, 4)
        basis = canonical_matrix(j)
        np.testing.assert_allclose(basis.w_x @ j.k_x @ basis.w_x, np.eye(3), atol=1e-8)
        np.testing.assert_allclose(basis.w_y @ j.k_y @ basis.w_y, np.eye(4), atol=1e-8)

    def test_singular_values_at_most_one(self, rng):
        for _ in range(20):
            j = random_gaussian_joint(rng, 3, 3)
            basis = canonical_matrix(j)
            s = np.linalg.svd(basis.w_x @ j.k_xy @ basis.w_y, compute_uv=False)
            assert s.max() <= 1.0 + 1e-8

    def test_monte_carlo_sampling_oracle(self, rng):
        j = random_gaussian_joint(rng, 2, 2)
        basis = canonical_matrix(j)
        x, y = sample_joint(j, 100_000, rng)
        xh = x @ basis.w_x
        yh = y @ basis.w_y
        emp = np.linalg.svd(xh.T @ yh / len(xh), compute_uv=False)
        np.testing.assert_allclose(emp, basis.rho, atol=2e-2)

    @pytest.mark.parametrize("sigma", [1.001, 1.0 + 5e-7, 1.0 - 5e-7])
    @pytest.mark.parametrize("scale", [1e-8, 1.0, 1e4])
    def test_verdict_does_not_depend_on_units(self, scale, sigma):
        # K_xy = L_x diag(sigma, 0.5) L_y^T has canonical correlations (sigma, 0.5)
        # for Cholesky factors L, at every scale of the three blocks
        k_x = np.array([[2.0, 0.5], [0.5, 1.0]])
        k_y = np.array([[1.0, 0.3], [0.3, 3.0]])
        k_xy = np.linalg.cholesky(k_x) @ np.diag([sigma, 0.5]) @ np.linalg.cholesky(k_y).T
        blocks = (scale * k_x, scale * k_y, scale * k_xy)
        if sigma > 1.0 + 1e-6:
            with pytest.raises(InconsistentBlock, match="singular value 1.001 > 1 \\+ 1e-6"):
                validate_gaussian(*blocks)
        else:
            j = validate_gaussian(*blocks)
            with pytest.warns(UserWarning, match="clamped"), pytest.raises(PerfectCorrelation):
                cca_decompose(j)

    def test_near_one_clamped_with_warning(self):
        j = validate_gaussian(np.eye(1), np.eye(1), np.array([[1.0 - 5e-7]]))
        with pytest.warns(UserWarning, match="clamped") as record:
            basis = canonical_matrix(j)
        assert record[0].filename == __file__
        assert basis.rho[0] == 1.0 - 1e-9
