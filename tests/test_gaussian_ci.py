"""Water-filling and Gaussian closed-form tests.

Frozen expected values were computed independently from the defining
formulas I(rho) = 0.5 ln 1/(1-rho^2) and the gamma_i = 0 special case
0.5 ln (1+rho)/(1-rho) before wiring them to the implementation. Scalar
values C(rho, gamma) come from the paper's log form (relaxed_ci_log_form),
which shares no code with water-filling.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cica import (
    cca_decompose,
    ci_curve,
    component_count,
    validate_gaussian,
    waterfill,
)
from cica.errors import RhoOutOfRange, TooLarge, UnsortedRho
from conftest import mutual_info_rho, relaxed_ci_log_form, whitened_diag_joint

I_05 = 0.14384103622589042  # 0.5 ln(4/3)
I_08 = 0.5108256237659906  # 0.5 ln(1/0.36)
WYNER_05 = 0.5493061443340549  # 0.5 ln 3


def grid_search_allocation(rho, gamma, step):
    """Brute-force minimum of the separable objective over the simplex."""
    rho = np.asarray(rho, dtype=float)
    if rho.size == 1:
        return float(relaxed_ci_log_form(rho[0], gamma))
    best = np.inf
    g1_grid = np.arange(0.0, gamma + step, step)
    if rho.size == 2:
        for g1 in g1_grid:
            val = float(relaxed_ci_log_form(rho[0], g1)) + float(
                relaxed_ci_log_form(rho[1], max(gamma - g1, 0.0))
            )
            best = min(best, val)
        return best
    assert rho.size == 3
    c0 = relaxed_ci_log_form(rho[0], g1_grid)
    for i1, g1 in enumerate(g1_grid):
        rest = gamma - g1
        g2_grid = np.arange(0.0, rest + step, step)
        vals = (
            c0[i1]
            + relaxed_ci_log_form(rho[1], g2_grid)
            + relaxed_ci_log_form(rho[2], np.maximum(rest - g2_grid, 0.0))
        )
        best = min(best, vals.min())
    return best


def bisection_allocation(rho, gamma):
    """Reference water level by bisection and the summed scalar C values."""
    info = np.array([float(mutual_info_rho(r)) for r in rho])
    if gamma >= info.sum():
        return info.max(), 0.0
    lo, hi = 0.0, float(info.max())
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.minimum(mid, info).sum() < gamma:
            lo = mid
        else:
            hi = mid
    level = 0.5 * (lo + hi)
    return level, sum(float(relaxed_ci_log_form(r, min(level, i))) for r, i in zip(rho, info))


def loop_component_count(rho, gamma):
    """Reference k: the first row of the schedule whose lower edge gamma reaches."""
    info = [float(mutual_info_rho(r)) for r in rho]
    for ell in range(len(info)):
        if gamma >= (ell + 1) * info[ell] + sum(info[ell + 1:]):
            return ell
    return len(info)


def random_spectra(rng, count):
    """Descending spectra in [0, 1) with zeros, tiny values and ties mixed in."""
    for t in range(count):
        n = int(rng.integers(1, 40))
        rho = rng.uniform(0.0, 0.999, size=n)
        if t % 3 == 1:
            rho[rng.random(n) < 0.3] = 0.0
        elif t % 3 == 2:
            rho = np.minimum(np.round(rho, 1), 0.9)
        yield np.sort(rho)[::-1]


class TestMutualInfoRho:
    def test_zero(self):
        assert float(mutual_info_rho(0.0)) == 0.0

    def test_frozen_values(self):
        assert float(mutual_info_rho(0.5)) == pytest.approx(I_05, abs=1e-15)
        assert float(mutual_info_rho(0.8)) == pytest.approx(I_08, abs=1e-15)

    def test_out_of_range(self):
        for bad in (-0.1, 1.0, 1.5):
            with pytest.raises(RhoOutOfRange):
                mutual_info_rho(bad)


def single_ci(rho, gamma):
    """C_gamma of one component: waterfill's one-component case."""
    return float(waterfill([rho], gamma).c_gamma)


class TestSingleComponent:
    def test_gamma_zero_is_wyner(self):
        assert single_ci(0.5, 0.0) == pytest.approx(WYNER_05, abs=1e-15)

    def test_zero_at_full_budget(self):
        for rho in (0.3, 0.5, 0.8):
            assert single_ci(rho, float(mutual_info_rho(rho))) == 0.0
            assert single_ci(rho, 2.0) == 0.0

    def test_strictly_decreasing_in_gamma(self):
        gammas = np.linspace(0.0, float(mutual_info_rho(0.8)), 50)
        vals = [single_ci(0.8, g) for g in gammas]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert 0.0 < vals[25] < 0.5 * np.log(9.0)


@given(st.floats(0.0, 1.0, exclude_max=True), st.floats(0.0, 20.0))
def test_single_component_matches_log_form(rho, gamma):
    c = single_ci(rho, gamma)
    if gamma >= float(mutual_info_rho(rho)) - 1e-12:
        # within 1e-12 of saturation the component does not count toward k
        assert c == 0.0
    else:
        assert abs(c - float(relaxed_ci_log_form(rho, gamma))) <= 1e-12


class TestWaterfill:
    def test_two_components_split_evenly_while_active(self):
        alloc = waterfill([0.8, 0.5], 0.2)
        np.testing.assert_allclose(alloc.gamma_i, [0.1, 0.1], atol=1e-9)
        assert alloc.active_count == 2
        # brute-force oracle over the budget split
        oracle = grid_search_allocation([0.8, 0.5], 0.2, 1e-4)
        assert float(alloc.c_gamma) <= oracle + 1e-6

    def test_saturated_budget(self):
        alloc = waterfill([0.8, 0.5], I_08 + I_05 + 0.01)
        assert float(alloc.c_gamma) == 0.0
        np.testing.assert_allclose(alloc.gamma_i, [I_08, I_05], atol=1e-12)
        assert alloc.active_count == 0
        assert alloc.water_level == pytest.approx(I_08, abs=1e-12)

    def test_within_margin_of_saturation_is_zero(self):
        # both components lie within 1e-12 of saturation, so neither counts toward k
        alloc = waterfill([0.9, 0.5], float(mutual_info_rho(0.9)) + float(mutual_info_rho(0.5)) - 1e-13)
        assert alloc.active_count == 0
        assert float(alloc.c_gamma) == 0.0

    def test_singleton(self):
        for gamma in (0.0, 0.05, 0.2):
            alloc = waterfill([0.6], gamma)
            expected = min(gamma, float(mutual_info_rho(0.6)))
            assert alloc.gamma_i[0] == pytest.approx(expected, abs=1e-9)
            assert float(alloc.c_gamma) == pytest.approx(
                float(relaxed_ci_log_form(0.6, expected)), abs=1e-12
            )

    def test_budget_sum_invariant(self, rng):
        for _ in range(50):
            rho = np.sort(rng.uniform(0.05, 0.95, size=3))[::-1]
            total = sum(float(mutual_info_rho(r)) for r in rho)
            gamma = rng.uniform(0.0, total)
            alloc = waterfill(rho, gamma)
            assert abs(alloc.gamma_i.sum() - gamma) < 1e-9
            np.testing.assert_allclose(
                alloc.gamma_i,
                np.minimum(alloc.water_level, [float(mutual_info_rho(r)) for r in rho]),
                atol=1e-9,
            )

    def test_matches_bisection_reference(self, rng):
        for rho in random_spectra(rng, 300):
            total = sum(float(mutual_info_rho(r)) for r in rho)
            for gamma in (0.0, rng.uniform(0.0, 1e-3) * total, rng.uniform(0.0, total), 1.01 * total):
                level, c = bisection_allocation(rho, gamma)
                alloc = waterfill(rho, gamma)
                assert abs(alloc.water_level - level) <= 1e-12 * max(level, 1.0)
                assert abs(float(alloc.c_gamma) - c) <= 1e-12 * max(c, 1.0)

    def test_equal_derivative_structure(self):
        # numerical partial derivatives of the summed objective agree across
        # active components, since dC/dgamma depends only on gamma_i
        alloc = waterfill([0.9, 0.7, 0.6], 0.3)
        assert alloc.active_count == 3
        eps = 1e-7
        derivs = []
        for rho, g in zip([0.9, 0.7, 0.6], alloc.gamma_i):
            d = (
                float(relaxed_ci_log_form(rho, g + eps))
                - float(relaxed_ci_log_form(rho, g - eps))
            ) / (2 * eps)
            derivs.append(d)
        assert max(derivs) - min(derivs) < 1e-6

    def test_validation(self):
        with pytest.raises(UnsortedRho):
            waterfill([0.5, 0.8], 0.1)
        with pytest.raises(RhoOutOfRange):
            waterfill([1.0, 0.5], 0.1)


class TestComponentCount:
    def test_schedule_two_components(self):
        assert component_count([0.8, 0.5], 0.1) == 2
        assert component_count([0.8, 0.5], 0.4) == 1
        assert component_count([0.8, 0.5], 1.0) == 0

    def test_matches_loop_reference(self, rng):
        for rho in random_spectra(rng, 300):
            total = sum(float(mutual_info_rho(r)) for r in rho)
            for gamma in rng.uniform(0.0, 1.1 * total, size=5):
                assert component_count(rho, gamma) == loop_component_count(rho, gamma)

    def test_thresholds_frozen(self):
        assert 2 * I_05 == pytest.approx(0.28768207245178085, abs=1e-16)
        assert I_08 + I_05 == pytest.approx(0.654666659991881, abs=1e-15)

    def test_matches_waterfill_active_count(self, rng):
        for _ in range(10_000):
            n = rng.integers(1, 5)
            rho = np.sort(rng.uniform(0.05, 0.95, size=n))[::-1]
            info = np.array([float(mutual_info_rho(r)) for r in rho])
            gamma = rng.uniform(0.0, 1.2 * info.sum())
            alloc = waterfill(rho, gamma)
            assert component_count(rho, gamma) == alloc.active_count


class TestRelaxedCiGaussian:
    def test_independent_blocks(self):
        basis = cca_decompose(validate_gaussian(np.eye(2), np.eye(2), np.zeros((2, 2))))
        for gamma in (0.0, 0.1, 1.0):
            assert float(waterfill(basis.rho, gamma).c_gamma) == 0.0

    def test_scalar_wyner(self):
        basis = cca_decompose(validate_gaussian(np.eye(1), np.eye(1), np.array([[0.5]])))
        alloc = waterfill(basis.rho, 0.0)
        assert float(alloc.c_gamma) == pytest.approx(WYNER_05, abs=1e-12)
        assert basis.rho[0] == pytest.approx(0.5, abs=1e-14)

    def test_diag_sum_of_scalars(self):
        alloc = waterfill(cca_decompose(whitened_diag_joint([0.8, 0.5])).rho, 0.2)
        expected = float(relaxed_ci_log_form(0.8, 0.1)) + float(relaxed_ci_log_form(0.5, 0.1))
        assert float(alloc.c_gamma) == pytest.approx(expected, abs=1e-9)
        oracle = grid_search_allocation([0.8, 0.5], 0.2, 1e-4)
        assert float(alloc.c_gamma) <= oracle + 1e-6


class TestCiCurve:
    def test_single_point_is_wyner(self):
        j = whitened_diag_joint([0.8, 0.5])
        ((gamma, c, k),) = ci_curve(j, [0.0])
        assert gamma == 0.0 and k == 2
        expected = float(relaxed_ci_log_form(0.8, 0.0)) + float(relaxed_ci_log_form(0.5, 0.0))
        assert c == pytest.approx(expected, abs=1e-12)

    def test_monotone_and_convex(self):
        j = whitened_diag_joint([0.8, 0.5])
        total = I_08 + I_05
        grid = np.linspace(0.0, total, 40)
        rows = ci_curve(j, grid)
        c = np.array([r[1] for r in rows])
        k = np.array([r[2] for r in rows])
        assert np.all(np.diff(c) <= 1e-12)
        assert np.all(np.diff(k) <= 0)
        assert np.all(np.diff(c, 2) >= -1e-8)
        # lower bound: c_gamma >= sum I(rho_i) - gamma
        assert np.all(c >= np.maximum(total - grid, 0.0) - 1e-9)

    def test_beyond_total_information(self):
        j = whitened_diag_joint([0.8, 0.5])
        rows = ci_curve(j, [I_08 + I_05 + 0.1])
        assert rows[0][1] == 0.0 and rows[0][2] == 0

    def test_k_zero_rows_read_zero(self):
        # at gamma = sum_i I(rho_i) the level can land an ulp below max_i I(rho_i),
        # which left C_gamma a few 1e-16 above zero beside k = 0
        j = whitened_diag_joint(0.97 * 0.95 ** np.arange(100))
        total = sum(float(mutual_info_rho(r)) for r in cca_decompose(j).rho)
        rows = ci_curve(j, np.linspace(0.0, total, 200))
        assert rows[-1][2] == 0
        assert all(c == 0.0 for _, c, k in rows if k == 0)


class TestNonFiniteBudget:
    @pytest.mark.parametrize("gamma", [np.nan, np.inf])
    def test_one_budget_entry_points(self, gamma):
        with pytest.raises(ValueError, match="gamma_total must be finite"):
            waterfill([0.8, 0.5], gamma)
        with pytest.raises(ValueError, match="gamma must be finite"):
            component_count([0.8, 0.5], gamma)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_curve_grid(self, bad):
        # NaN slipped past grid.min() < 0, and inf gave a row at gamma = inf
        with pytest.raises(ValueError, match="finite"):
            ci_curve(whitened_diag_joint([0.8, 0.5]), [0.0, 0.1, bad])


def test_curve_size_checked_before_fill():
    # 16 components x (2**20 + 1) points exceed the 2**24-entry limit
    grid = np.linspace(0.0, 1.0, 2**20 + 1)
    with pytest.raises(TooLarge, match="curve points"):
        ci_curve(whitened_diag_joint(np.full(16, 0.5)), grid)
