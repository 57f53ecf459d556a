"""Sample-based model estimation tests."""

import warnings

import numpy as np
import pytest

from cica import cca_decompose, estimate_gaussian, estimate_pmf
from cica.errors import (
    InconsistentBlock,
    IndexOutOfRange,
    NotPositiveDefinite,
    ShapeMismatch,
    TooFewSamples,
)
from conftest import sample_joint, whitened_diag_joint


class TestEstimateGaussian:
    def test_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            estimate_gaussian(np.zeros((3, 2)), np.zeros((3, 2)))

    def test_constant_samples_degenerate(self):
        with pytest.raises(NotPositiveDefinite):
            estimate_gaussian(np.ones((10, 2)), np.ones((10, 2)), ridge=0.0)

    def test_non_finite_sample_rejected(self, rng):
        x = rng.standard_normal((20, 2))
        y = rng.standard_normal((20, 2))
        x[3, 1] = np.inf
        bad_y = y.copy()
        bad_y[7, 0] = np.nan
        for xs, ys in ((x, y), (y, bad_y)):
            # the typed error comes before numpy can warn about the sample
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(InconsistentBlock):
                    estimate_gaussian(xs, ys)

    def test_row_count_mismatch(self):
        with pytest.raises(ShapeMismatch):
            estimate_gaussian(np.zeros((10, 2)), np.zeros((9, 2)))

    def test_recovers_canonical_correlations(self, rng):
        truth = whitened_diag_joint([0.7, 0.3])
        x, y = sample_joint(truth, 100_000, rng)
        est = estimate_gaussian(x, y)
        rho = cca_decompose(est).rho
        np.testing.assert_allclose(rho, [0.7, 0.3], atol=2e-2)

    def test_ridge_shifts_diagonal(self, rng):
        x = rng.standard_normal((50_000, 2))
        y = rng.standard_normal((50_000, 2))
        est = estimate_gaussian(x, y, ridge=0.1)
        np.testing.assert_allclose(est.k_x, 1.1 * np.eye(2), atol=2e-2)

    def test_row_permutation_bit_identical(self, rng):
        truth = whitened_diag_joint([0.6, 0.2])
        x, y = sample_joint(truth, 501, rng)
        perm = rng.permutation(len(x))
        a = estimate_gaussian(x, y)
        b = estimate_gaussian(x[perm], y[perm])
        np.testing.assert_array_equal(a.k_x, b.k_x)
        np.testing.assert_array_equal(a.k_y, b.k_y)
        np.testing.assert_array_equal(a.k_xy, b.k_xy)

    def test_mean_removal(self, rng):
        truth = whitened_diag_joint([0.5])
        x, y = sample_joint(truth, 20_000, rng)
        shifted = estimate_gaussian(x + 100.0, y - 7.0)
        base = estimate_gaussian(x, y)
        np.testing.assert_allclose(shifted.k_x, base.k_x, atol=1e-8)
        np.testing.assert_allclose(shifted.k_xy, base.k_xy, atol=1e-8)


class TestEstimatePmf:
    def test_point_mass(self):
        j = estimate_pmf(np.zeros((5, 2), dtype=int), (2, 2), smoothing=0.0)
        assert j.pmf[0, 0] == 1.0

    def test_uniform_recovery(self, rng):
        pairs = rng.integers(0, 2, size=(100_000, 2))
        j = estimate_pmf(pairs, (2, 2))
        tv = 0.5 * np.abs(j.pmf - 0.25).sum()
        assert tv < 1e-2

    def test_smoothing_fills_empty_cells(self):
        pairs = np.array([[0, 0], [1, 1]])
        j = estimate_pmf(pairs, (2, 2), smoothing=1.0)
        assert j.pmf.min() > 0

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            estimate_pmf(np.array([[0, 3]]), (2, 2))

    def test_row_permutation_bit_identical(self, rng):
        pairs = rng.integers(0, 3, size=(1000, 2))
        perm = rng.permutation(len(pairs))
        a = estimate_pmf(pairs, (3, 3), smoothing=0.5)
        b = estimate_pmf(pairs[perm], (3, 3), smoothing=0.5)
        np.testing.assert_array_equal(a.pmf, b.pmf)
