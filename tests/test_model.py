"""Domain-type validation tests."""

import numpy as np
import pytest

from cica import (
    InfoValue,
    canonical_matrix,
    inv_sqrt_psd,
    validate_discrete,
    validate_gaussian,
)
from cica.errors import (
    InconsistentBlock,
    NegativeMass,
    NotNormalized,
    NotPositiveDefinite,
    ShapeMismatch,
)
from conftest import block_covariance


class TestValidateGaussian:
    def test_independent_blocks(self):
        j = validate_gaussian(np.eye(2), np.eye(2), np.zeros((2, 2)))
        assert j.dim_x == 2 and j.dim_y == 2
        assert np.all(j.k_xy == 0)

    def test_correlation_above_one_rejected(self):
        with pytest.raises(InconsistentBlock):
            validate_gaussian(np.eye(1), np.eye(1), np.array([[1.5]]))

    def test_diag_cross_block_accepted(self):
        j = validate_gaussian(np.eye(2), np.eye(2), np.diag([0.8, 0.5]))
        svals = np.linalg.svd(j.k_xy, compute_uv=False)
        np.testing.assert_allclose(np.sort(svals)[::-1], [0.8, 0.5])

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefinite, match="^k_x has minimum eigenvalue"):
            validate_gaussian(np.diag([1.0, 0.0]), np.eye(2), np.zeros((2, 2)))
        with pytest.raises(NotPositiveDefinite, match="^k_y has minimum eigenvalue"):
            validate_gaussian(np.eye(2), np.diag([1.0, -0.5]), np.zeros((2, 2)))

    def test_whitening_is_frozen_inverse_sqrt_of_blocks(self, rng):
        b = rng.standard_normal((3, 3))
        c = rng.standard_normal((2, 2))
        j = validate_gaussian(b @ b.T + np.eye(3), c @ c.T + np.eye(2), np.zeros((3, 2)))
        for w, k in ((j.w_x, j.k_x), (j.w_y, j.k_y)):
            assert not w.flags.writeable
            np.testing.assert_array_equal(w, inv_sqrt_psd(k))
        # the basis shares the joint's whitening instead of recomputing it
        basis = canonical_matrix(j)
        assert basis.w_x is j.w_x and basis.w_y is j.w_y
        assert not any(a.flags.writeable for a in j.cross_svd)

    def test_non_finite_rejected(self):
        with pytest.raises(InconsistentBlock):
            validate_gaussian(np.array([[np.nan, 0.0], [0.0, 1.0]]), np.eye(2), np.zeros((2, 2)))
        with pytest.raises(InconsistentBlock):
            validate_gaussian(np.eye(2), np.eye(2), np.array([[np.inf, 0.0], [0.0, 0.1]]))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            validate_gaussian(np.eye(2), np.eye(2), np.zeros((3, 2)))
        with pytest.raises(ShapeMismatch):
            validate_gaussian(np.array([[1.0, 0.5], [0.0, 1.0]]), np.eye(2), np.zeros((2, 2)))

    def test_empty_block_rejected(self):
        # each used to raise numpy's "zero-size array to reduction operation maximum"
        with pytest.raises(ShapeMismatch, match="k_x must be square and nonempty"):
            validate_gaussian(np.zeros((0, 0)), np.eye(1), np.zeros((0, 1)))
        with pytest.raises(ShapeMismatch, match="k_y must be square and nonempty"):
            validate_gaussian(np.eye(1), np.zeros((0, 0)), np.zeros((1, 0)))

    def test_block_covariance_roundtrip(self):
        j = validate_gaussian(np.eye(2), np.eye(3), np.full((2, 3), 0.1))
        blk = block_covariance(j)
        assert blk.shape == (5, 5)
        np.testing.assert_array_equal(blk[:2, 2:], j.k_xy)

    def test_inputs_not_mutated_and_output_frozen(self):
        k_x = np.eye(2)
        before = k_x.copy()
        j = validate_gaussian(k_x, np.eye(2), np.zeros((2, 2)))
        np.testing.assert_array_equal(k_x, before)
        with pytest.raises(ValueError):
            j.k_x[0, 0] = 5.0

    def test_revalidation_idempotent(self):
        rng = np.random.default_rng(3)
        b = rng.standard_normal((4, 4))
        cov = b @ b.T + 4 * np.eye(4)
        j = validate_gaussian(cov[:2, :2], cov[2:, 2:], cov[:2, 2:])
        j2 = validate_gaussian(j.k_x, j.k_y, j.k_xy)
        np.testing.assert_array_equal(j.k_x, j2.k_x)
        np.testing.assert_array_equal(j.k_xy, j2.k_xy)


class TestValidateDiscrete:
    def test_uniform(self):
        j = validate_discrete(np.full((2, 2), 0.25))
        assert j.cards == (2, 2)
        np.testing.assert_allclose(j.marginal(0), [0.5, 0.5])
        pmf = np.zeros((2, 2, 2))
        pmf[0, 0, 0] = pmf[1, 1, 1] = 0.5
        j = validate_discrete(pmf)
        assert j.cards == (2, 2, 2)
        np.testing.assert_allclose(j.marginal(1), [0.5, 0.5])

    def test_dsbs_table(self):
        j = validate_discrete([[0.45, 0.05], [0.05, 0.45]])
        assert j.pmf.sum() == pytest.approx(1.0, abs=1e-15)

    def test_not_normalized(self):
        with pytest.raises(NotNormalized):
            validate_discrete([[0.45, 0.05], [0.05, 0.35]])
        with pytest.raises(NotNormalized):
            validate_discrete(np.full((2, 2, 2), 0.2))
        # finite entries whose total overflows: no numpy warning, and a plain float in the message
        with pytest.raises(NotNormalized, match=r"sums to inf, expected"):
            validate_discrete([[1e308, 1e308]])

    def test_non_finite_rejected(self):
        for bad in ([[np.nan, 0.5], [0.25, 0.25]], [[np.inf, 0.5], [0.25, 0.25]]):
            with pytest.raises(NotNormalized):
                validate_discrete(bad)
        pmf = np.full((2, 2, 2), 0.125)
        pmf[1, 0, 1] = np.nan
        with pytest.raises(NotNormalized):
            validate_discrete(pmf)

    def test_negative_mass(self):
        with pytest.raises(NegativeMass):
            validate_discrete([[0.5, -0.1], [0.3, 0.3]])

    def test_tiny_negative_clamped(self):
        j = validate_discrete([[0.5 + 5e-15, -5e-15], [0.25, 0.25]])
        assert j.pmf.min() == 0.0
        assert j.pmf.sum() == pytest.approx(1.0, abs=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ShapeMismatch):
            validate_discrete(np.zeros((0, 2)))
        with pytest.raises(ShapeMismatch):
            validate_discrete(np.array([0.5, 0.5]))


class TestValidateMultiDiscrete:
    def test_three_sources(self):
        pmf = np.zeros((2, 2, 2))
        pmf[0, 0, 0] = pmf[1, 1, 1] = 0.5
        j = validate_discrete(pmf)
        assert j.cards == (2, 2, 2)
        np.testing.assert_allclose(j.marginal(1), [0.5, 0.5])

    def test_one_axis_rejected(self):
        with pytest.raises(ShapeMismatch):
            validate_discrete(np.array([0.5, 0.5]))

    def test_not_normalized(self):
        with pytest.raises(NotNormalized):
            validate_discrete(np.full((2, 2, 2), 0.2))


class TestInfoValue:
    def test_nonnegative(self):
        with pytest.raises(ValueError):
            InfoValue(-1.0)

    def test_tiny_negative_clamped(self):
        assert InfoValue(-1e-12).nats == 0.0

    def test_bits(self):
        assert InfoValue(np.log(2.0)).bits == pytest.approx(1.0, abs=1e-15)
        assert float(InfoValue(0.25)) == 0.25
