"""Sample-based model estimation tests."""

import os
import resource
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import cica
from cica import cca_decompose, estimate_gaussian, estimate_pmf, estimation
from cica.errors import (
    InconsistentBlock,
    IndexOutOfRange,
    NotPositiveDefinite,
    ShapeMismatch,
    TooFewSamples,
)
from conftest import reference_sample_joint, sample_joint, whitened_diag_joint


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

    def test_one_dimensional_samples_are_one_column(self, rng):
        # a 1-D array was read as one row of N columns and refused as too few samples
        x = rng.standard_normal(20)
        y = 0.5 * x + rng.standard_normal(20)
        j = estimate_gaussian(x, y)
        want = estimate_gaussian(x[:, None], y[:, None])
        for got, ref in ((j.k_x, want.k_x), (j.k_y, want.k_y), (j.k_xy, want.k_xy)):
            assert got.shape == (1, 1) and got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("three_d", ["x", "y"])
    def test_three_dimensional_samples_refused(self, rng, three_d):
        # np.hstack used to fail on the mismatched dimensions
        x = rng.standard_normal((20, 2, 2) if three_d == "x" else (20, 2))
        y = rng.standard_normal((20, 2, 2) if three_d == "y" else (20, 2))
        with pytest.raises(ShapeMismatch, match="1-D or 2-D"):
            estimate_gaussian(x, y)

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

    def test_negative_ridge_rejected(self, rng):
        # ridge=-0.05 used to shrink the blocks' diagonals and inflate every rho
        x, y = sample_joint(whitened_diag_joint([0.95, 0.75]), 200, rng)
        with pytest.raises(ValueError, match="ridge must be finite and >= 0, got -0.05"):
            estimate_gaussian(x, y, ridge=-0.05)

    @pytest.mark.parametrize("ridge", [np.nan, np.inf])
    def test_non_finite_ridge_rejected(self, rng, ridge):
        # nan used to surface as "covariance blocks have non-finite entries"
        x, y = sample_joint(whitened_diag_joint([0.5]), 50, rng)
        with pytest.raises(ValueError, match="ridge must be finite and >= 0"):
            estimate_gaussian(x, y, ridge=ridge)

    def test_empty_block_rejected(self, rng):
        # a zero-column block used to warn, then raise a numpy reduction error
        for x, y in ((np.zeros((5, 0)), rng.standard_normal((5, 1))),
                     (rng.standard_normal((5, 1)), np.zeros((5, 0)))):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ShapeMismatch, match="at least one column"):
                    estimate_gaussian(x, y)

    def test_row_permutation_bit_identical(self, rng):
        truth = whitened_diag_joint([0.6, 0.2])
        x, y = sample_joint(truth, 501, rng)
        perm = rng.permutation(len(x))
        a = estimate_gaussian(x, y)
        b = estimate_gaussian(x[perm], y[perm])
        np.testing.assert_array_equal(a.k_x, b.k_x)
        np.testing.assert_array_equal(a.k_y, b.k_y)
        np.testing.assert_array_equal(a.k_xy, b.k_xy)

    @pytest.mark.parametrize("lead", ["distinct", "repeated", "signed zeros"])
    def test_canonical_order_is_the_full_lexsort(self, rng, lead, monkeypatch):
        x, y = sample_joint(whitened_diag_joint([0.6, 0.2]), 400, rng)
        if lead == "repeated":
            x[:, 0] = rng.integers(0, 4, len(x))
        elif lead == "signed zeros":
            # == ties -0.0 with 0.0; a bitwise tie check would miss it
            x[:2, 0] = [-0.0, 0.0]
        lexsorts = []
        lexsort = np.lexsort

        def spy(keys):
            lexsorts.append(keys)
            return lexsort(keys)

        monkeypatch.setattr(estimation.np, "lexsort", spy)
        a = estimate_gaussian(x, y, ridge=1e-6)
        assert len(lexsorts) == (lead != "distinct")
        ref = reference_sample_joint(x, y, 1e-6)
        perm = rng.permutation(len(x))
        b = estimate_gaussian(x[perm], y[perm], ridge=1e-6)
        for joint in (ref, b):
            for name in ("k_x", "k_y", "k_xy"):
                assert getattr(a, name).tobytes() == getattr(joint, name).tobytes(), name

    @pytest.mark.parametrize("tied", [False, True])
    def test_samples_left_unmodified(self, rng, tied):
        x, y = sample_joint(whitened_diag_joint([0.5, 0.3]), 300, rng)
        if tied:
            x[:, 0] = np.round(x[:, 0])
        before = x.tobytes(), y.tobytes()
        estimate_gaussian(x, y)
        assert (x.tobytes(), y.tobytes()) == before

    def test_peak_memory_one_copy_of_samples(self, rng):
        # one sorted copy, centred in place; stacking, then centring copies, peaked at 2x
        x = rng.standard_normal((20_000, 20))
        y = 0.5 * x + rng.standard_normal((20_000, 20))
        tracemalloc.start()
        try:
            estimate_gaussian(x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * (x.nbytes + y.nbytes), f"peak {peak} bytes"

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

    @pytest.mark.parametrize("smoothing", [-1.0, np.nan, np.inf])
    def test_bad_smoothing_rejected(self, smoothing):
        # -1.0 used to return [[0, 0.5], [0.5, 0]], the opposite dependence
        with pytest.raises(ValueError, match="smoothing must be finite and >= 0"):
            estimate_pmf([[0, 0], [1, 1]], (2, 2), smoothing=smoothing)

    def test_index_out_of_range(self):
        for bad in ([[0, 3]], [[-1, 0]]):
            with pytest.raises(IndexOutOfRange):
                estimate_pmf(np.array(bad), (2, 2))

    def test_cards_must_match_columns(self):
        # one card for a pair raised a bare IndexError; three gave a 2 x 2 table
        for cards in ((2,), (2, 2, 2)):
            with pytest.raises(ShapeMismatch, match="len\\(cards\\)"):
                estimate_pmf([[0, 1]], cards)
        with pytest.raises(ShapeMismatch):
            estimate_pmf([[0], [1]], (2,))

    @pytest.mark.parametrize("cards", [(2.5, 2), (2.0, 2), (True, 2), (2, "2")])
    def test_non_integer_card_rejected(self, cards):
        # (2.5, 2) used to be truncated to a 2 x 2 table
        with pytest.raises(ValueError, match="cards must be integers"):
            estimate_pmf([[0, 1], [1, 0], [1, 1]], cards)

    def test_numpy_integer_cards_accepted(self):
        j = estimate_pmf([[0, 1], [1, 0], [1, 1]], np.array([2, 2]))
        np.testing.assert_array_equal(j.pmf, [[0, 1 / 3], [1 / 3, 1 / 3]])

    def test_error_order(self):
        # shape, then range (-1 included), then integrality, then size
        with pytest.raises(ShapeMismatch):
            estimate_pmf([[-1, 0.5, 0]], (2, 2))
        with pytest.raises(IndexOutOfRange):
            estimate_pmf([[-1, 0.5]], (2, 2))
        with pytest.raises(ValueError, match="must be nonnegative integers"):
            estimate_pmf([[0.5, 0]], (100000, 100000))

    def test_three_source_counts(self):
        rows = [[0, 1, 2], [0, 1, 2], [1, 0, 0], [1, 1, 1]]
        j = estimate_pmf(rows, (2, 2, 3))
        want = np.zeros((2, 2, 3))
        want[0, 1, 2], want[1, 0, 0], want[1, 1, 1] = 0.5, 0.25, 0.25
        np.testing.assert_array_equal(j.pmf, want)
        assert j.cards == (2, 2, 3)

    def test_non_integral_index_rejected(self):
        # 1.5 is not truncated to 1
        with pytest.raises(ValueError, match="must be nonnegative integers"):
            estimate_pmf([[1.5, 0], [0, 1]], (2, 2))

    def test_too_many_cells_rejected_before_allocation(self):
        # the 100000 x 100000 table would take 74.5 GiB; under a 2 GiB
        # address-space cap only a cell check ahead of the allocation passes
        script = (
            "from cica import estimate_pmf\n"
            "from cica.errors import TooLarge\n"
            "try:\n"
            "    estimate_pmf([[0, 0]], (100000, 100000))\n"
            "except TooLarge:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(1)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(cica.__file__).resolve().parents[1]))
        r = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31)),
        )
        assert r.returncode == 0, r.stderr

    def test_row_permutation_bit_identical(self, rng):
        pairs = rng.integers(0, 3, size=(1000, 2))
        perm = rng.permutation(len(pairs))
        a = estimate_pmf(pairs, (3, 3), smoothing=0.5)
        b = estimate_pmf(pairs[perm], (3, 3), smoothing=0.5)
        np.testing.assert_array_equal(a.pmf, b.pmf)
