"""Seeded fuzzing of the input validators.

Every call either returns a finite value or raises a CicaError or ValueError
from a validator (a ``_check_*`` or ``validate_*`` function). It never fails
deeper in, for example in InfoValue with "information value must be >= 0",
and it never returns a value for NaN input. Where the valid inputs are easy
to state, the tests also check the converse: a valid input is accepted.
"""

import dataclasses
import math
import traceback

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cica import (
    SolverOptions,
    ci_curve,
    ci_curve_discrete,
    component_count,
    discrete_ci,
    dsbs_joint,
    entropy,
    solve_relaxed_wyner,
    validate_discrete,
    waterfill,
)
from cica.errors import CicaError
from conftest import mutual_info_rho, whitened_diag_joint

#: NaN, +-inf, negatives, values at and above 1, and ordinary values
FLOATS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, -1e-15, 0.0, 1e-13, 1.0]),
    st.floats(-2.0, 2.0),
    st.floats(allow_nan=True, allow_infinity=True),
)
BUDGETS = st.one_of(FLOATS, st.floats(0.0, 5.0))


def outcome(fn, *args):
    """fn(*args), or None when it raised a typed error from a validator."""
    try:
        return fn(*args)
    except (CicaError, ValueError) as exc:
        where = traceback.extract_tb(exc.__traceback__)[-1].name
        assert where.startswith(("_check_", "validate_")), f"{type(exc).__name__} in {where}: {exc}"
        return None


def valid_budget(gamma):
    return math.isfinite(gamma) and gamma >= 0


def valid_mass(p):
    if p.size == 0 or not np.isfinite(p).all() or p.min() < -1e-14:
        return False
    with np.errstate(over="ignore"):  # huge finite entries: the sum is inf, and invalid
        return bool(abs(np.maximum(p, 0.0).sum() - 1.0) <= 1e-12)


def valid_spectrum(rho):
    rho = np.asarray(rho, dtype=float)
    return bool(
        rho.ndim == 1 and rho.size and np.all((rho >= 0) & (rho < 1)) and np.all(np.diff(rho) <= 0)
    )


def valid_grid(grid):
    grid = np.asarray(grid, dtype=float)
    return bool(
        grid.ndim == 1 and grid.size and np.isfinite(grid).all() and grid.min() >= 0
        and np.all(np.diff(grid) >= 0)
    )


@st.composite
def spectra(draw):
    """Descending spectra in [0, 1), unsorted ones, and ones with bad entries."""
    rho = draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=5))
    if draw(st.booleans()):
        rho.sort(reverse=True)
    if draw(st.booleans()):
        rho[draw(st.integers(0, len(rho) - 1))] = draw(FLOATS)
    return draw(st.sampled_from([rho, [], [rho]]))


@st.composite
def pmfs(draw, min_dims):
    """Normalized tables, optionally with one entry replaced by a bad value."""
    shape = draw(st.lists(st.integers(1, 3), min_size=min_dims, max_size=3))
    size = math.prod(shape)
    w = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=size, max_size=size)))
    p = w / w.sum()
    if draw(st.booleans()):
        p[draw(st.integers(0, size - 1))] = draw(FLOATS)
    return p.reshape(shape)


@given(spectra(), BUDGETS)
def test_waterfill(rho, gamma):
    alloc = outcome(waterfill, rho, gamma)
    assert (alloc is not None) == (valid_spectrum(rho) and valid_budget(gamma))
    if alloc is not None:
        assert math.isfinite(float(alloc.c_gamma)) and math.isfinite(alloc.water_level)
        assert np.isfinite(alloc.gamma_i).all()


@given(spectra(), BUDGETS)
def test_component_count(rho, gamma):
    k = outcome(component_count, rho, gamma)
    assert (k is not None) == (valid_spectrum(rho) and valid_budget(gamma))
    if k is not None:
        assert 0 <= k <= len(rho)


@given(FLOATS, BUDGETS)
def test_scalar_functions(rho, gamma):
    ok = 0.0 <= rho < 1.0
    info = outcome(mutual_info_rho, rho)
    assert (info is not None) == ok
    alloc = outcome(waterfill, [rho], gamma)
    assert (alloc is not None) == (ok and valid_budget(gamma))
    assert info is None or math.isfinite(float(info))
    assert alloc is None or math.isfinite(float(alloc.c_gamma))


@given(pmfs(min_dims=1))
def test_entropy(p):
    h = outcome(entropy, p)
    assert (h is not None) == valid_mass(p)
    assert h is None or math.isfinite(float(h))


@given(pmfs(min_dims=0))
def test_validate_discrete(p):
    joint = outcome(validate_discrete, p)
    assert (joint is not None) == (p.ndim >= 2 and valid_mass(p))
    if joint is not None:
        assert np.isfinite(joint.pmf).all() and abs(joint.pmf.sum() - 1.0) <= 1e-12


GRIDS = st.one_of(
    st.lists(FLOATS, max_size=5),
    st.lists(st.floats(0.0, 2.0), min_size=1, max_size=5).map(sorted),
    st.lists(st.floats(0.0, 2.0), min_size=1, max_size=5).map(lambda g: [sorted(g)]),
)


@given(GRIDS)
def test_ci_curve(grid):
    rows = outcome(ci_curve, whitened_diag_joint([0.8, 0.5]), grid)
    assert (rows is not None) == valid_grid(grid)
    if rows is not None:
        assert all(math.isfinite(c) for _, c, _ in rows)


class Reached(Exception):
    """Raised in place of the sweep: the grid passed validation."""


def no_sweep(*args, **kwargs):
    raise Reached


@given(GRIDS)
def test_ci_curve_discrete(grid):
    # only the check matters here, so the sweep is replaced and never runs
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(discrete_ci, "_Sweep", no_sweep)
        try:
            assert outcome(ci_curve_discrete, dsbs_joint(0.1), grid) is None
            reached = False
        except Reached:
            reached = True
    assert reached == valid_grid(grid)


@pytest.mark.parametrize(
    "name, value",
    [
        # integer fields: 2.5 was truncated or gave restart index 0.5, True read as 1,
        # and a float seed raised a bare TypeError
        ("card_w", 2.5),
        ("card_w", True),
        ("card_w", np.float64(2.0)),
        ("threads", np.float64(2.0)),
        ("threads", 1.5),
        ("seed", 1.5),
        ("seed", -1),
        ("seed", np.bool_(True)),
        # no field takes a float, so the integer check also refuses inf and NaN
        ("threads", math.inf),
        ("seed", math.nan),
    ],
)
def test_solver_options_out_of_range(name, value):
    # each used to fail deep in the sweep (NoConvergence, Infeasible, a numpy error) or not at all
    opts = SolverOptions(**{name: value})
    with pytest.raises(ValueError, match=name):
        solve_relaxed_wyner(dsbs_joint(0.1), 0.0, opts)


@pytest.mark.parametrize(
    "name",
    [
        "lambda_min", "lambda_grid_max", "lambda_max", "prob_floor", "max_states", "record_history",
        "n_lambda", "max_iter", "tol", "slack", "restarts",
    ],
)
def test_removed_solver_knobs_refused(name):
    # the multiplier grid, the restarts per multiplier, the stopping rule, the
    # slack on gamma, the probability floor and the cell limit are fixed;
    # a caller that sets one of them gets an error, never a silently ignored value
    with pytest.raises(TypeError, match=name):
        SolverOptions(**{name: 1})


def test_solver_options_fields():
    # the fields the CLI and the benchmark set; the rest of the sweep is fixed
    names = [f.name for f in dataclasses.fields(SolverOptions)]
    assert names == ["card_w", "seed", "threads"]


@pytest.mark.parametrize(
    "opts",
    [SolverOptions(), SolverOptions(seed=7, threads=2), SolverOptions(card_w=np.int64(2), seed=np.int32(3))],
)
def test_solver_options_in_range(opts):
    _, report = solve_relaxed_wyner(dsbs_joint(0.1), 0.0, opts)
    assert math.isfinite(float(report.objective))
