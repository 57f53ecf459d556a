"""Discrete solver tests: functionals, DSBS oracle, solver contracts.

DSBS oracle values were frozen from the closed form (bits converted to
nats) evaluated with plain math before the solver existed:
C(0.05) = 0.6530425383369941, C(0.1) = 0.6049515261814267,
C(0.2) = 0.48929599185999795.
"""

import contextlib
import copy
import dataclasses
import functools
import itertools
import types

import numpy as np
import pytest

from cica import (
    SolverOptions,
    build_coupling,
    ci_curve_discrete,
    discrete_ci,
    dsbs_joint,
    entropy,
    latent_mutual_information,
    project_discrete_map,
    relaxation_given_w,
    solve_relaxed_wyner,
    toy_binary_example,
    total_correlation,
    validate_discrete,
    waterfill,
)
from cica.errors import (
    A0OutOfRange,
    Infeasible,
    InvalidCoupling,
    NoConvergence,
    NotNormalized,
    TooLarge,
)
from cica.model import MAX_STATES
from conftest import (
    dsbs_wyner,
    latent_major,
    quantized_gaussian,
    reference_descend,
    reference_functionals,
)

LN2 = np.log(2.0)
H_09_01 = 0.3250829733914482
I_DSBS_01 = 0.3680642071684971
WYNER_DSBS = {
    0.05: 0.6530425383369941,
    0.1: 0.6049515261814267,
    0.2: 0.48929599185999795,
}


def product_joint(px, py):
    return validate_discrete(np.outer(px, py))


def lambda_grid():
    """The sweep's multiplier grid, read at call time so that patched constants apply."""
    return np.geomspace(discrete_ci._LAMBDA_MIN, discrete_ci._LAMBDA_GRID_MAX, discrete_ci._N_LAMBDA)


def grid_batch(joint, opts):
    """The engine and the first batch (q0, lam) that a sweep over joint draws."""
    card_w = opts.card_w or joint.pmf.size + 1
    lam = np.repeat(lambda_grid(), discrete_ci._RESTARTS)
    q0 = np.random.default_rng(opts.seed).random((lam.size, card_w) + joint.pmf.shape)
    q0 /= q0.sum(axis=1, keepdims=True)
    return discrete_ci._Engine(joint.pmf, card_w), q0, lam


def assert_same_runs(got, want):
    assert len(got) == len(want) == 5
    for name, a, b in zip(("q", "obj", "relax", "iters", "converged"), got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b), name


MULTI_PMF = np.random.default_rng(1).dirichlet(np.ones(8)).reshape(2, 2, 2)

#: pmfs whose single-budget solves the multiplier cut must leave unchanged
CUT_PMFS = {
    "4x4": np.random.default_rng(2).dirichlet(np.full(16, 0.5)).reshape(4, 4),
    "dsbs": dsbs_joint(0.1).pmf,
    "multi222": MULTI_PMF,
    "3x3": np.random.default_rng(3).dirichlet(np.ones(9)).reshape(3, 3),
}
#: (pmf name, gamma as an absolute budget or as a fraction of TC)
CUT_CASES = [
    ("4x4", 0.01, None), ("4x4", 0.05, None), ("4x4", None, 0.3),
    ("dsbs", 0.01, None), ("dsbs", None, 0.3),
    ("multi222", 0.05, None),
    ("3x3", 0.01, None), ("3x3", 0.05, None),
]
CUT_OPTS = SolverOptions(seed=7)
#: curves with grid[0] > 0, name -> (pmf, grid, opts): bench 4x4, the random
#: 6x6 (Dirichlet(0.5), generator seed 0; card_w 13 keeps its uncut sweep near
#: 3 s) and the survey's 3x3x3 (generator seed 6); the cut must leave each
#: one's rows as they are
CUT_CURVES = {
    "4x4": (CUT_PMFS["4x4"], [0.05, 0.1, 0.2], CUT_OPTS),
    "6x6": (np.random.default_rng(0).dirichlet(np.full(36, 0.5)).reshape(6, 6), [0.02, 0.05, 0.1],
            SolverOptions(seed=0, card_w=13)),
    "3x3x3": (np.random.default_rng(6).dirichlet(np.full(27, 0.5)).reshape(3, 3, 3), [0.02, 0.1],
              SolverOptions(seed=0)),
}
CLOUD_FIELDS = ("q", "obj", "relax", "lam", "iters", "converged")
#: a smallest multiplier above 1/(M - 1) for pairs and triples, so that a
#: one- or two-point grid is descended; below the fallback tables' thresholds
DESCENDED_LAMBDA_MIN = 1.1


def descended_runs(joint):
    """The grid runs that a full sweep over joint descends: those at lam > 1/(M - 1)."""
    return discrete_ci._RESTARTS * int(np.count_nonzero(lambda_grid() > 1.0 / (joint.pmf.ndim - 1)))


def cut_id(case):
    name, gamma, tc_frac = case
    return f"{name}-{gamma}" if gamma is not None else f"{name}-{tc_frac}tc"


def cut_case(name, gamma, tc_frac):
    joint = validate_discrete(CUT_PMFS[name])
    if gamma is None:
        gamma = tc_frac * float(total_correlation(joint))
    return joint, gamma


class Cloud(types.SimpleNamespace):
    """A run cloud built outside _Sweep, which select reads as it reads a sweep's."""

    select = discrete_ci._Sweep.select


def reference_cloud(joint, opts):
    """The uncut cloud: entry 0, then every grid run above 1/(M - 1) descended with no budget.

    It is the cloud a sweep would hold if its descent had no budget. The
    joint must have nothing to merge or drop, and the cloud holds no
    fallback entry, so it serves budgets that some run meets within the slack.
    """
    engine, q0, lam = grid_batch(joint, opts)
    above = lam > 1.0 / (joint.pmf.ndim - 1)
    q, obj, relax, iters, converged = engine.descend(q0[above], lam[above])
    trivial = np.full((1,) + q0.shape[1:], 1.0 / engine.card_w)
    return Cloud(
        q=np.concatenate([trivial, q]), obj=np.concatenate([[0.0], obj]),
        relax=np.concatenate([[engine.tc], relax]), lam=np.concatenate([[0.0], lam[above]]),
        iters=np.concatenate([[0], iters]), converged=np.concatenate([[True], converged]),
    )


@functools.cache
def uncut_cloud(name):
    """The reference cloud of CUT_PMFS[name] with CUT_OPTS."""
    return reference_cloud(validate_discrete(CUT_PMFS[name]), CUT_OPTS)


@contextlib.contextmanager
def traced_parts():
    """Wrap _Engine._parts; the yielded list gets (run keys, F) of every call.

    A run's key is the hash of its (W, cells) block's bytes.
    """
    calls = []
    parts = discrete_ci._Engine._parts

    def traced(self, q, *args):
        out = parts(self, q, *args)
        calls.append(([hash(q[:, j].tobytes()) for j in range(q.shape[1])], out[2].copy()))
        return out

    discrete_ci._Engine._parts = traced
    try:
        yield calls
    finally:
        discrete_ci._Engine._parts = parts


class SoloRuns:
    """Every run of a batch, each descended alone with no budget, read through _parts.

    A run's rows do not depend on its batch, so in any descent of the batch
    a row is some run's start (k = 0) or its k-th candidate, and ``step``
    maps the row's key to every such (run, k): a run's steps can repeat
    their bytes once the probability floor saturates them. ``candidates[r]``
    counts run r's candidates, and ``relax[r][k]`` is the relaxation of its
    iterate after k of them, each accepted or rejected as the engine does.
    """

    def __init__(self, engine, q0, lam):
        self.step, self.relax, self.candidates = {}, [], []
        m = engine.n_src
        with traced_parts() as calls:
            for r, lam_r in enumerate(lam):
                calls.clear()
                engine.descend(q0[r:r + 1], lam[r:r + 1])
                relax, G = [], np.inf
                for k, ((key,), (F,)) in enumerate(calls):
                    self.step.setdefault(key, []).append((r, k))
                    # the engine's Lagrangian, term by term in its order
                    B = sum(F[2:2 + m])
                    L = (1.0 + lam_r) * F[0] + ((m - 1) * lam_r - 1.0) * F[1] - lam_r * B
                    if L <= G + 1e-12:
                        G, iterate = L, engine._objective_relax(F[None])[1][0]
                    relax.append(iterate)
                self.relax.append(relax)
                self.candidates.append(len(calls) - 1)
        self.candidates = np.array(self.candidates)

    def trace(self, engine, q0, lam, budget=None):
        """descend's runs, and the (run, k) of every row of each of its _parts calls.

        Where a row's key has several (run, k), it is the next step of a run
        after the row before it, if one of them is.
        """
        with traced_parts() as calls:
            out = engine.descend(q0, lam, budget)
        seen = np.full(lam.size, -1)  # the last step of each run read so far
        steps = []
        for keys, _ in calls:
            steps.append([])
            for key in keys:
                after = steps[-1][-1][0] if steps[-1] else -1
                r, k = min(self.step[key],
                           key=lambda s: (s[0] <= after or s[1] != seen[s[0]] + 1, s))
                seen[r] = max(seen[r], k)
                steps[-1].append((r, k))
        return out, steps


@functools.cache
def solo_batch(name, full):
    """(engine, q0, lam, SoloRuns) of CUT_PMFS[name]'s grid batch with CUT_OPTS.

    The batch is the full grid, or with full False the runs that a sweep
    descends, at lam > 1/(M - 1).
    """
    joint = validate_discrete(CUT_PMFS[name])
    engine, q0, lam = grid_batch(joint, CUT_OPTS)
    if not full:
        above = lam > 1.0 / (joint.pmf.ndim - 1)
        q0, lam = q0[above], lam[above]
    return engine, q0, lam, SoloRuns(engine, q0, lam)


class TestFunctionals:
    def test_entropy_point_mass(self):
        assert float(entropy([1.0, 0.0, 0.0])) == 0.0

    def test_entropy_uniform(self):
        assert float(entropy([0.5, 0.5])) == pytest.approx(LN2, abs=1e-15)

    def test_entropy_frozen(self):
        assert float(entropy([0.9, 0.1])) == pytest.approx(H_09_01, abs=1e-15)

    def test_entropy_not_normalized(self):
        for bad in (
            [0.5, 0.4], [np.nan, 1.0], [0.5, np.nan, 0.5], [np.inf, 0.0], [-np.inf, 1.0],
            [1e308, 1e308],  # finite entries whose total overflows
        ):
            with pytest.raises(NotNormalized):
                entropy(bad)

    def test_plogp_matches_xlogy(self):
        # scipy's xlogy(p, p) is the reference: the libm-based helper must match it bit for bit
        xlogy = pytest.importorskip("scipy.special").xlogy
        rng = np.random.default_rng(5)
        p = np.concatenate([
            rng.random(100_000),
            rng.dirichlet(np.full(64, 0.1), size=1_000).ravel(),
            10.0 ** rng.uniform(-310, 0, 20_000),
            [0.0, 1.0, 0.5, 5e-324, np.finfo(float).tiny],
        ])
        got, want = discrete_ci._plogp(p), xlogy(p, p)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_mi_product(self):
        assert float(total_correlation(product_joint([0.3, 0.7], [0.25, 0.75]))) < 1e-15

    def test_mi_dsbs(self):
        assert float(total_correlation(dsbs_joint(0.1))) == pytest.approx(
            I_DSBS_01, abs=1e-12
        )

    def test_mi_copy(self):
        j = validate_discrete([[0.5, 0.0], [0.0, 0.5]])
        assert float(total_correlation(j)) == pytest.approx(LN2, abs=1e-15)

    def test_total_correlation_pair_equals_mi(self):
        # I(X;Y) summed cell by cell from its definition
        j = dsbs_joint(0.2)
        px, py = j.pmf.sum(axis=1), j.pmf.sum(axis=0)
        mi = sum(p * np.log(p / (px[x] * py[y])) for (x, y), p in np.ndenumerate(j.pmf))
        assert float(total_correlation(j)) == pytest.approx(mi, abs=1e-14)


class TestDsbsWyner:
    def test_independent(self):
        assert float(dsbs_wyner(0.5)) == pytest.approx(0.0, abs=1e-12)

    def test_equal_sources(self):
        assert float(dsbs_wyner(0.0)) == pytest.approx(LN2, abs=1e-15)

    def test_frozen_oracle_values(self):
        for a0, expected in WYNER_DSBS.items():
            assert float(dsbs_wyner(a0)) == pytest.approx(expected, abs=1e-12)

    def test_out_of_range(self):
        # the oracle takes a0 as given; the library's DSBS constructor checks it
        for bad in (-0.01, 0.51):
            with pytest.raises(A0OutOfRange):
                dsbs_joint(bad)


class TestCoupling:
    def test_constant_w(self):
        j = dsbs_joint(0.1)
        q = np.full((3, 2, 2), 1.0 / 3.0)
        c = build_coupling(q, j)
        assert float(relaxation_given_w(c)) == pytest.approx(
            float(total_correlation(j)), abs=1e-12
        )
        assert float(latent_mutual_information(c)) == pytest.approx(0.0, abs=1e-12)

    def test_copy_both(self):
        # W = (X, Y): conditioning on everything kills the dependence
        j = dsbs_joint(0.1)
        q = np.zeros((4, 2, 2))
        for x in range(2):
            for y in range(2):
                q[2 * x + y, x, y] = 1.0
        c = build_coupling(q, j)
        assert float(relaxation_given_w(c)) == pytest.approx(0.0, abs=1e-12)
        assert float(latent_mutual_information(c)) == pytest.approx(
            float(entropy(j.pmf.ravel())), abs=1e-12
        )

    def test_relaxation_matches_conditional_mi(self, rng):
        j = dsbs_joint(0.2)
        q = rng.random((5, 2, 2))
        q /= q.sum(axis=0, keepdims=True)
        c = build_coupling(q, j)
        # I(X;Y|W) summed cell by cell from p(w, x, y)
        pwxy = c.q_w_given_xy * j.pmf[None]
        pw = pwxy.sum(axis=(1, 2))[:, None, None]
        pwx = pwxy.sum(axis=2, keepdims=True)
        pwy = pwxy.sum(axis=1, keepdims=True)
        cmi = float((pwxy * np.log(pwxy * pw / (pwx * pwy))).sum())
        assert float(relaxation_given_w(c)) == pytest.approx(cmi, abs=1e-12)

    def test_cardinality_bound(self):
        j = dsbs_joint(0.1)
        with pytest.raises(InvalidCoupling):
            build_coupling(np.full((6, 2, 2), 1.0 / 6.0), j)

    @pytest.mark.parametrize("all_nan", [True, False])
    def test_non_finite_entry(self, all_nan):
        # NaN failed no comparison, so the coupling carried a NaN q(w) into the features
        q = np.full((2, 2, 2), np.nan if all_nan else 0.5)
        q[0, 0, 0] = np.nan
        with pytest.raises(InvalidCoupling, match="non-finite"):
            build_coupling(q, dsbs_joint(0.1))

    def test_unnormalized_slice(self):
        j = dsbs_joint(0.1)
        q = np.full((3, 2, 2), 1.0 / 3.0)
        q[0, 0, 0] += 1e-6
        with pytest.raises(InvalidCoupling):
            build_coupling(q, j)

    def test_analytic_dsbs_optimum(self):
        # the known gamma = 0 optimum: W uniform bit, X and Y independent
        # flips of W with probability a1 = (1 - sqrt(1 - 2 a0)) / 2; this
        # reproduces the DSBS exactly and makes X, Y conditionally
        # independent, so I(X;Y|W) = 0 and I(X,Y;W) equals the closed form
        a0 = 0.1
        a1 = (1 - np.sqrt(1 - 2 * a0)) / 2
        j = dsbs_joint(a0)
        flip = np.array([[1 - a1, a1], [a1, 1 - a1]])  # p(x | w)
        q = np.zeros((2, 2, 2))
        for w in range(2):
            for x in range(2):
                for y in range(2):
                    q[w, x, y] = 0.5 * flip[w, x] * flip[w, y] / j.pmf[x, y]
        c = build_coupling(q, j)
        assert float(relaxation_given_w(c)) <= 1e-6
        assert float(latent_mutual_information(c)) == pytest.approx(
            float(dsbs_wyner(a0)), abs=1e-12
        )

    def test_induced_marginals_recomputable(self, monkeypatch):
        j = dsbs_joint(0.1)
        monkeypatch.setattr(discrete_ci, "_N_LAMBDA", 4)
        monkeypatch.setattr(discrete_ci, "_RESTARTS", 2)
        monkeypatch.setattr(discrete_ci, "_MAX_ITER", 2000)
        c, _ = solve_relaxed_wyner(j, 0.1, SolverOptions(seed=3))
        pwx = (c.q_w_given_xy * j.pmf[None]).sum(axis=2) / j.marginal(0)[None, :]
        np.testing.assert_allclose(pwx, c.q_w_given_sources[0], atol=1e-10)
        qw = (c.q_w_given_xy * j.pmf[None]).sum(axis=(1, 2))
        np.testing.assert_allclose(qw, c.q_w, atol=1e-10)


class TestSolveRelaxedWyner:
    def test_product_joint_any_gamma(self):
        for j in (product_joint([0.3, 0.7], [0.6, 0.4]), validate_discrete(np.ones((2, 2, 2)) / 8)):
            for gamma in (0.0, 0.05):
                _, rep = solve_relaxed_wyner(j, gamma, SolverOptions(seed=7))
                assert float(rep.objective) <= 1e-6

    def test_copy_source_gamma_zero(self):
        three_copies = np.zeros((2, 2, 2))
        three_copies[0, 0, 0] = three_copies[1, 1, 1] = 0.5
        for pmf, tol in (([[0.5, 0.0], [0.0, 0.5]], 1e-3), (three_copies, 2e-2)):
            _, rep = solve_relaxed_wyner(validate_discrete(pmf), 0.0, SolverOptions(seed=7))
            assert abs(float(rep.objective) - LN2) < tol

    @pytest.mark.parametrize("a0", [0.05, 0.1, 0.2])
    def test_dsbs_oracle(self, a0):
        _, rep = solve_relaxed_wyner(dsbs_joint(a0), 0.0, SolverOptions(seed=7))
        assert abs(float(rep.objective) - WYNER_DSBS[a0]) < 2e-2

    def test_feasibility_and_coupling_invariants(self):
        j = dsbs_joint(0.1)
        opts = SolverOptions(seed=11)
        for gamma in (0.0, 0.05, 0.2):
            c, rep = solve_relaxed_wyner(j, gamma, opts)
            assert float(rep.achieved_gamma) <= gamma + discrete_ci._SLACK + 1e-9
            assert float(relaxation_given_w(c)) == pytest.approx(
                float(rep.achieved_gamma), abs=1e-9
            )
            assert float(latent_mutual_information(c)) == pytest.approx(
                float(rep.objective), abs=1e-9
            )
            assert c.card_w <= j.cards[0] * j.cards[1] + 1

    def test_lower_bound_property(self):
        j = dsbs_joint(0.1)
        i_xy = float(total_correlation(j))
        for gamma in (0.0, 0.1, 0.3):
            _, rep = solve_relaxed_wyner(j, gamma, SolverOptions(seed=5))
            assert float(rep.objective) >= i_xy - gamma - 2e-2

    def test_permutation_invariance(self, monkeypatch):
        pmf = np.array([[0.30, 0.05], [0.05, 0.30], [0.05, 0.25]])
        j = validate_discrete(pmf)
        jp = validate_discrete(pmf[[2, 0, 1]][:, [1, 0]])
        assert float(total_correlation(j)) > 0.1  # dependence worth hiding
        monkeypatch.setattr(discrete_ci, "_TOL", 1e-12)
        monkeypatch.setattr(discrete_ci, "_MAX_ITER", 60_000)
        opts = SolverOptions(seed=5)
        for gamma in (0.0, 0.05):
            _, r1 = solve_relaxed_wyner(j, gamma, opts)
            _, r2 = solve_relaxed_wyner(jp, gamma, opts)
            assert abs(float(r1.objective) - float(r2.objective)) < 1e-6

    def test_data_processing(self):
        pxy = dsbs_joint(0.1).pmf
        channel = np.array([[0.85, 0.15], [0.2, 0.8]])  # p(z | y)
        pxz = validate_discrete(pxy @ channel)
        for gamma in (0.0, 0.05):
            _, r_xy = solve_relaxed_wyner(dsbs_joint(0.1), gamma, SolverOptions(seed=7))
            _, r_xz = solve_relaxed_wyner(pxz, gamma, SolverOptions(seed=7))
            assert float(r_xz.objective) <= float(r_xy.objective) + 2e-2

    def test_deterministic_given_seed_and_threads(self):
        j = dsbs_joint(0.2)
        c1, r1 = solve_relaxed_wyner(j, 0.1, SolverOptions(seed=9, threads=1))
        for threads in (4, 3):  # 3 threads split the 128 grid runs 42/43/43
            c2, r2 = solve_relaxed_wyner(j, 0.1, SolverOptions(seed=9, threads=threads))
            assert float(r1.objective) == float(r2.objective)
            assert float(r1.achieved_gamma) == float(r2.achieved_gamma)
            assert r1.lam == r2.lam
            assert r1.iterations == r2.iterations
            np.testing.assert_array_equal(c1.q_w_given_xy, c2.q_w_given_xy)

    @pytest.mark.parametrize("value", [0, -1])
    def test_solver_counts_below_one_rejected_before_allocation(self, monkeypatch, value):
        def no_engine(*args):
            raise AssertionError("the count check must run before the engine allocates")

        monkeypatch.setattr(discrete_ci, "_Engine", no_engine)
        with pytest.raises(ValueError, match="threads"):
            solve_relaxed_wyner(dsbs_joint(0.1), 0.0, SolverOptions(threads=value))

    def test_fallback_when_no_run_meets_budget(self, monkeypatch):
        # no grid run reaches relaxation 1e-9, so the answer is W = Y: ln 2 at relaxation 0
        monkeypatch.setattr(discrete_ci, "_SLACK", 1e-9)
        monkeypatch.setattr(discrete_ci, "_N_LAMBDA", 4)
        monkeypatch.setattr(discrete_ci, "_RESTARTS", 2)
        _, rep = solve_relaxed_wyner(dsbs_joint(0.1), 0.0, SolverOptions(seed=1))
        assert float(rep.objective) == pytest.approx(LN2, abs=1e-15)
        assert float(rep.achieved_gamma) == 0.0
        # the runs at 5 and 50 are descended, those at 0.05 and 0.5 are not
        assert (rep.lam, rep.iterations, rep.restarts_used, rep.converged) == (0.0, 0, 4, True)
        # card_w = 1 cannot hold W = Y, so the budget is infeasible
        monkeypatch.undo()
        with pytest.raises(Infeasible, match="card_w >= 2") as excinfo:
            solve_relaxed_wyner(dsbs_joint(0.1), 0.0, SolverOptions(seed=1, card_w=1))
        details = excinfo.value.details
        assert details["card_w"] == 1 and details["card_w_needed"] == 2
        assert details["runs_executed"] == 72
        assert details["best_achieved_gamma"] == pytest.approx(I_DSBS_01, abs=1e-12)
        assert "lambda_max" not in details

    def test_too_large_pair_before_allocation(self, monkeypatch):
        def no_engine(*args):
            raise AssertionError("the size guard must run before the engine allocates")

        monkeypatch.setattr(discrete_ci, "_Engine", no_engine)
        with pytest.raises(TooLarge):
            solve_relaxed_wyner(validate_discrete(np.ones((9, 9)) / 81), 0.0)

    def test_cell_limit_bounds_every_round(self):
        # MAX_STATES is the one resource guard: the widest round, one step for
        # every grid run at card_w = cells + 1, holds 532,480 float64 entries
        # (4.1 MiB) per array
        entries = discrete_ci._N_LAMBDA * discrete_ci._RESTARTS * (MAX_STATES + 1) * MAX_STATES
        assert entries == 532_480

    @pytest.mark.parametrize("gamma", [np.nan, np.inf, -np.inf])
    def test_non_finite_gamma_rejected_before_allocation(self, monkeypatch, gamma):
        def no_engine(*args):
            raise AssertionError("the budget check must run before the engine allocates")

        monkeypatch.setattr(discrete_ci, "_Engine", no_engine)
        with pytest.raises(ValueError, match="gamma must be finite"):
            solve_relaxed_wyner(dsbs_joint(0.1), gamma)
        with pytest.raises(ValueError, match="grid must be nonempty, finite"):
            ci_curve_discrete(dsbs_joint(0.1), [0.0, gamma])

    def test_lagrangian_increase_raises(self, monkeypatch):
        calls = itertools.count()
        lagrangian = discrete_ci._Engine._lagrangian
        monkeypatch.setattr(
            discrete_ci._Engine,
            "_lagrangian",
            lambda self, *args: lagrangian(self, *args) + next(calls),
        )
        monkeypatch.setattr(discrete_ci, "_LAMBDA_MIN", DESCENDED_LAMBDA_MIN)
        monkeypatch.setattr(discrete_ci, "_N_LAMBDA", 1)
        monkeypatch.setattr(discrete_ci, "_RESTARTS", 1)
        with pytest.raises(NoConvergence, match="Lagrangian increased"):
            solve_relaxed_wyner(dsbs_joint(0.1), 0.0, SolverOptions(seed=1))

    def test_no_convergence(self, monkeypatch):
        monkeypatch.setattr(discrete_ci, "_MAX_ITER", 1)
        monkeypatch.setattr(discrete_ci, "_LAMBDA_MIN", DESCENDED_LAMBDA_MIN)
        monkeypatch.setattr(discrete_ci, "_N_LAMBDA", 2)
        monkeypatch.setattr(discrete_ci, "_RESTARTS", 2)
        with pytest.raises(NoConvergence):
            solve_relaxed_wyner(dsbs_joint(0.1), 0.2, SolverOptions(seed=1))

    def test_gamma_at_mutual_information(self):
        j = dsbs_joint(0.1)
        _, rep = solve_relaxed_wyner(j, float(total_correlation(j)), SolverOptions(seed=7))
        assert float(rep.objective) <= 1e-6


class TestDescendOracle:
    """The compacting engine returns exactly what the full-batch descent did."""

    @pytest.mark.parametrize(
        "joint, card_w",
        [
            (dsbs_joint(0.1), None),
            (toy_binary_example(0.1), 17),
            (validate_discrete(MULTI_PMF), None),
        ],
        ids=["dsbs", "toy17", "multi222"],
    )
    @pytest.mark.parametrize("max_iter", [None, 5], ids=["plain", "capped"])
    def test_matches_reference(self, monkeypatch, joint, card_w, max_iter):
        if max_iter is not None:
            monkeypatch.setattr(discrete_ci, "_MAX_ITER", max_iter)
        engine, q0, lam = grid_batch(joint, SolverOptions(seed=3, card_w=card_w))
        want = reference_descend(engine, q0, lam)
        if max_iter is not None:
            assert not want[4].all()  # some runs hit the cap
        assert_same_runs(engine.descend(q0, lam), want)

    def test_matches_reference_with_stuck_runs(self, monkeypatch):
        # concentrated starts under a high probability floor: the floored step
        # raises the Lagrangian at every step size, so some runs freeze stuck
        monkeypatch.setattr(discrete_ci, "_PROB_FLOOR", 0.2)
        opts = SolverOptions()
        engine, _, lam = grid_batch(dsbs_joint(0.1), opts)
        q0 = np.random.default_rng(0).random((lam.size, engine.card_w, 2, 2)) ** 8
        q0 /= q0.sum(axis=1, keepdims=True)
        want = reference_descend(engine, q0, lam)
        got = engine.descend(q0, lam)
        # here every stuck run freezes at its start after one iteration; the
        # reference flags it converged, the engine does not, and every other
        # field is the reference's
        stuck = np.all(got[0] == q0, axis=(1, 2, 3))
        assert stuck.any() and np.all(got[3][stuck] == 1) and want[4][stuck].all()
        assert_same_runs(got, want[:4] + (want[4] & ~stuck,))

    def test_leaves_q0_unchanged(self):
        # a single run's latent-major layout is q0's memory order, yet the
        # descent must still work on a copy
        engine, q0, lam = grid_batch(dsbs_joint(0.1), SolverOptions(seed=3))
        start = q0.copy()
        for r in range(0, lam.size, 8):
            engine.descend(q0[r:r + 1], lam[r:r + 1])
        assert np.array_equal(q0, start)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize(
        "joint, card_w",
        [(dsbs_joint(0.1), None), (toy_binary_example(0.1), 4)],
        ids=["dsbs", "toy4"],
    )
    def test_functional_rows_follow_live_runs(self, monkeypatch, joint, card_w, threads):
        # each live run is evaluated once per round, and a run-iteration takes
        # about two rounds, so about two rows; stacking the rungs eta and eta/2
        # in retry rounds read 2.35 rows, and the full-batch descent 15 to 18
        rows = []
        iters = []
        parts = discrete_ci._Engine._parts
        descend = discrete_ci._Engine.descend

        def counted_parts(self, q, *args):
            rows.append(q.size // (self.card_w * self.pmf.size))  # runs, in any layout
            return parts(self, q, *args)

        def counted_descend(self, q0, lam, *args):
            out = descend(self, q0, lam, *args)
            iters.append(int(out[3].sum()))
            return out

        monkeypatch.setattr(discrete_ci._Engine, "_parts", counted_parts)
        monkeypatch.setattr(discrete_ci._Engine, "descend", counted_descend)
        opts = SolverOptions(seed=7, card_w=card_w, threads=threads)
        _, rep = solve_relaxed_wyner(joint, 0.0, opts)
        assert sum(rows) <= 2.1 * sum(iters) + rep.restarts_used

    @pytest.mark.parametrize(
        "joint, card_w",
        [(dsbs_joint(0.1), None), (toy_binary_example(0.1), 4)],
        ids=["dsbs", "toy4"],
    )
    def test_one_evaluation_per_live_run_per_round(self, monkeypatch, joint, card_w):
        # a round evaluates every live run once: a rejected run waits for the
        # next round at half its step, so the batch only shrinks and the
        # slowest run takes about two rounds per iteration (2.01 on these
        # solves; retry rounds that stacked the rungs eta and eta/2 read 2.2 to
        # 2.3 and grew the batch again within an iteration)
        calls = []
        parts = discrete_ci._Engine._parts
        descend = discrete_ci._Engine.descend

        def counted_parts(self, q, *args):
            calls[-1][0].append(q.size // (self.card_w * self.pmf.size))
            return parts(self, q, *args)

        def counted_descend(self, q0, lam, *args):
            calls.append([[], 0])
            out = descend(self, q0, lam, *args)
            calls[-1][1] = int(out[3].max())
            return out

        monkeypatch.setattr(discrete_ci._Engine, "_parts", counted_parts)
        monkeypatch.setattr(discrete_ci._Engine, "descend", counted_descend)
        solve_relaxed_wyner(joint, 0.0, SolverOptions(seed=7, card_w=card_w))
        assert calls
        for rows, iters in calls:
            assert len(rows) - 1 <= 2.1 * iters
            # no call after the descent's first evaluates more runs than the one before
            assert all(b <= a for a, b in zip(rows, rows[1:]))

    @pytest.mark.parametrize("threads", [2, 3])
    def test_one_batch_per_sweep_at_any_thread_count(self, monkeypatch, threads):
        # the 9 x 8 grid runs above lam = 1 descend as one batch whatever the
        # thread count, and the report counts them
        batches = []
        descend = discrete_ci._Engine.descend

        def counted_descend(self, q0, lam, *args):
            batches.append(q0.shape[0])
            return descend(self, q0, lam, *args)

        monkeypatch.setattr(discrete_ci._Engine, "descend", counted_descend)
        opts = SolverOptions(seed=7, card_w=4, threads=threads)
        _, rep = solve_relaxed_wyner(toy_binary_example(0.1), 0.0, opts)
        assert batches == [72]
        assert rep.restarts_used == 72


#: (pmf, card_w) of engines whose rows must not depend on the batch
ENGINE_ROW_CASES = {
    # one latent symbol: a flattened (runs x cells) product is gemm for a
    # batch and gemv for one run, and the two round differently here
    "4x4-w1": (CUT_PMFS["4x4"], 1),
    "toy-w17": (toy_binary_example(0.1).pmf, 17),
    "multi222": (MULTI_PMF, None),
    "off-support-cell": (np.array([[0.5, 0.0], [0.2, 0.3]]), None),
    # the per-run and per-cell scales broadcast over runs x cells, for M = 4 at the default
    # card_w 17 and a non-square pair
    "2x2x2x2": (np.random.default_rng(4).dirichlet(np.ones(16)).reshape(2, 2, 2, 2), None),
    "2x5-w3": (np.random.default_rng(5).dirichlet(np.ones(10)).reshape(2, 5), 3),
}


def assert_same_bits(a, b, name):
    assert a.shape == b.shape and a.dtype == b.dtype, name
    assert a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("case", ENGINE_ROW_CASES)
def test_engine_rows_independent_of_batch(case):
    # a run's functionals, gradient, step and Lagrangian are the same bits
    # alone, in any sub-batch and in the full batch, so compaction cannot
    # move a run
    pmf, card_w = ENGINE_ROW_CASES[case]
    engine, q0, lam = grid_batch(validate_discrete(pmf), SolverOptions(seed=5, card_w=card_w))
    q = latent_major(q0)
    eta = np.random.default_rng(1).uniform(1e-6, 4.0, lam.size)
    coef = engine._coef(lam)
    full = engine._parts(q)
    g_full = engine._gradient(full, coef)
    step_full = engine._step(full[0], g_full, eta)
    G_full = engine._lagrangian(full[2], coef)
    rng = np.random.default_rng(0)
    batches = [np.array([r]) for r in range(lam.size)] + [
        np.sort(rng.choice(lam.size, size=k, replace=False)) for k in (2, 3, 7, 31, 64, 127)
    ]
    for rows in batches:
        parts = engine._parts(q.take(rows, axis=1))
        # the run axis is 1 of log q and logs, and 0 of F
        for name, got, want, axis in zip(("log q", "logs", "F"), parts, full, (1, 1, 0)):
            assert_same_bits(got, want.take(rows, axis=axis), name)
        g = engine._gradient(parts, coef[rows])
        assert_same_bits(g, g_full.take(rows, axis=1), "gradient")
        step = engine._step(parts[0], g, eta[rows])
        assert_same_bits(step, step_full.take(rows, axis=1), "step")
        assert_same_bits(engine._lagrangian(parts[2], coef[rows]), G_full[rows], "Lagrangian")


@pytest.mark.parametrize("case", ENGINE_ROW_CASES)
def test_engine_matches_source_by_source_reference(case):
    # the incidence product sums in another order, so values agree to rounding;
    # a gradient entry sums (1 + lam) log q and M marginal logs scaled by lam,
    # so both sides round at about eps (1 + lam) M max|log q| (measured up to
    # 0.79 of that), and the 1 + keeps a floor where max|log q| is 0
    pmf, card_w = ENGINE_ROW_CASES[case]
    engine, q0, lam = grid_batch(validate_discrete(pmf), SolverOptions(seed=5, card_w=card_w))
    parts = engine._parts(latent_major(q0))
    g = engine._gradient(parts, engine._coef(lam))
    # a zero-probability cell's entry moves only q there, which no functional reads
    support = pmf > 0
    for r in range(0, lam.size, 5):
        F, g_ref = reference_functionals(pmf, q0[r], lam[r])
        # F's last column is sum_i B_i
        np.testing.assert_allclose(parts[2][r], np.append(F, F[2:].sum()), rtol=1e-13, atol=1e-13)
        log_q = np.abs(np.log(q0[r])).max()
        bound = np.finfo(float).eps * (1 + lam[r]) * pmf.ndim * (1 + log_q)
        got = g[:, r].reshape(q0[r].shape)[:, support]
        np.testing.assert_allclose(got, g_ref[:, support], rtol=0, atol=bound)


@pytest.mark.parametrize("rho", [0.0, 0.5, 0.9, -0.3])
def test_quantized_gaussian_oracle(rho):
    # at n = 2 the diagonal mass is P(XY > 0) = 1/2 + arcsin(rho) / pi (Sheppard)
    pmf = quantized_gaussian(rho, 2)
    assert abs(np.trace(pmf) - (0.5 + np.arcsin(rho) / np.pi)) <= 1e-14
    for n in (3, 4):
        pmf = quantized_gaussian(rho, n)
        np.testing.assert_allclose(pmf.sum(axis=0), 1.0 / n, rtol=0, atol=1e-14)
        np.testing.assert_allclose(pmf, pmf.T, rtol=0, atol=1e-15)


def quantized_point_cases():
    """(rho, n, gamma) of the point solves checked against the Gaussian ceiling."""
    loose = pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 6: the slope-penalised single-run selection reads 0.152951 "
        "against the ceiling 0.094603",
    )
    for rho, n, gamma in itertools.product((0.5, 0.9), (2, 3, 4), (0.0, 0.05, 0.1, 0.2)):
        yield pytest.param(rho, n, gamma, marks=loose if (rho, n, gamma) == (0.5, 4, 0.1) else ())


@pytest.mark.parametrize("rho, n, gamma", quantized_point_cases())
def test_point_solve_below_gaussian_value(rho, n, gamma):
    # quantizing each coordinate is a function of it, so it cannot raise C_gamma
    j = validate_discrete(quantized_gaussian(rho, n))
    _, rep = solve_relaxed_wyner(j, gamma, SolverOptions(seed=0))
    assert float(rep.objective) <= float(waterfill([rho], gamma).c_gamma) + 1e-9


#: single-budget solves pinned to the engine before the incidence product:
#: (joint, gamma, card_w) -> (lam, iterations, restarts_used, objective); the
#: toy solves its merged table, DSBS(0.1), at card_w 4 and 5. restarts_used
#: counts the descended runs: 9 multipliers above 1/(M - 1) for a pair, 10 for
#: three sources, and for bench 4x4 the 3 up to the first that meets gamma
QUALITY_PINS = {
    "bench-4x4": (
        (CUT_PMFS["4x4"], 0.05, None), (1.9905358527674863, 49, 24, 0.42761978393672484)),
    "toy-w4": ((toy_binary_example(0.1).pmf, 0.0, 4), (50.0, 164, 72, 0.6027875141447153)),
    "toy-w17": ((toy_binary_example(0.1).pmf, 0.0, 17), (50.0, 264, 72, 0.6027866205924634)),
    "dsbs-0.05": ((dsbs_joint(0.05).pmf, 0.0, None), (50.0, 183, 72, 0.6522717714223363)),
    "dsbs-0.1": ((dsbs_joint(0.1).pmf, 0.0, None), (50.0, 264, 72, 0.6027866205924635)),
    "dsbs-0.2": ((dsbs_joint(0.2).pmf, 0.0, None), (50.0, 269, 72, 0.4834515624430602)),
    "multi222": ((MULTI_PMF, 0.0, None), (50.0, 363, 80, 0.5157149785264278)),
}


@pytest.mark.parametrize("case", QUALITY_PINS)
def test_quality_pin(case):
    (pmf, gamma, card_w), (lam, iterations, restarts_used, objective) = QUALITY_PINS[case]
    opts = SolverOptions(seed=7, card_w=card_w)
    _, rep = solve_relaxed_wyner(validate_discrete(pmf), gamma, opts)
    assert (rep.lam, rep.iterations, rep.restarts_used) == (lam, iterations, restarts_used)
    assert abs(float(rep.objective) - objective) <= 1e-12


class TestMultiplierCut:
    """A sweep stops at the first multiplier that meets its gamma, for a solve and a curve alike."""

    @pytest.mark.parametrize("case", CUT_CASES, ids=cut_id)
    def test_same_selection_as_uncut_sweep(self, case):
        joint, gamma = cut_case(*case)
        uncut = uncut_cloud(case[0])
        i = uncut.select(gamma)
        # a run met gamma + slack: no fallback entry after the descended runs
        assert uncut.q.shape[0] == 1 + descended_runs(joint)
        c, rep = solve_relaxed_wyner(joint, gamma, CUT_OPTS)
        assert c.q_w_given_xy.tobytes() == uncut.q[i].tobytes()
        assert float(rep.objective) == max(float(uncut.obj[i]), 0.0)
        assert float(rep.achieved_gamma) == max(float(uncut.relax[i]), 0.0)
        assert rep.lam == uncut.lam[i]
        assert rep.iterations == uncut.iters[i]
        assert rep.converged == uncut.converged[i]

    @pytest.mark.parametrize("case", CUT_CASES, ids=cut_id)
    def test_cloud_is_uncut_runs_up_to_first_multiplier_meeting_gamma(self, case):
        joint, gamma = cut_case(*case)
        uncut = uncut_cloud(case[0])
        cut = discrete_ci._Sweep(joint, CUT_OPTS, gamma)
        keep = uncut.lam <= uncut.lam[uncut.relax <= gamma].min()
        for name in CLOUD_FIELDS:
            got, want = getattr(cut, name), getattr(uncut, name)[keep]
            assert got.tobytes() == want.tobytes(), name

    def test_descend_returns_no_run_above_the_cut(self):
        engine, q0, lam, solo = solo_batch("dsbs", True)
        want = engine.descend(q0, lam)
        got, steps = solo.trace(engine, q0, lam, 0.05)
        lam_star = lam[want[2] <= 0.05].min()
        low = lam <= lam_star
        # exactly the uncut runs up to lam*, bit for bit, and none above it
        assert got[1].size == np.count_nonzero(low) < lam.size
        assert_same_runs(got, [a[low] for a in want])
        # no run at lam <= lam* is cut or held back by the runs above it: each
        # call evaluates the same steps of those runs as a budgeted descent of
        # them alone does
        _, low_steps = solo.trace(engine, q0[low], lam[low], 0.05)
        assert [[s for s in call if low[s[0]]] for call in steps] == low_steps
        # the call after the first run at lam* froze meeting the budget, and
        # every later call, evaluates no run above lam*, though some of them
        # had not finished
        done = np.zeros(lam.size, dtype=int)
        met = (lam == lam_star) & (want[2] <= 0.05)
        for t, call in enumerate(steps):
            done[[r for r, _ in call]] = [k for _, k in call]
            if (done == solo.candidates)[met].any():
                break
        assert all(low[r] for call in steps[t + 1:] for r, _ in call)
        assert (done < solo.candidates)[~low].any()

    def test_run_count(self):
        # the first multiplier with a run at relax <= 0.05 is the 10th of 16; the
        # report counts the 3 x 8 runs above lam = 1 up to it, not the 9 x 8 descended
        joint = validate_discrete(CUT_PMFS["4x4"])
        _, rep = solve_relaxed_wyner(joint, 0.05, CUT_OPTS)
        uncut = uncut_cloud("4x4")
        lam_met = uncut.lam[uncut.relax <= 0.05].min()
        assert lam_met == lambda_grid()[9]
        assert rep.restarts_used == np.count_nonzero((uncut.lam > 0) & (uncut.lam <= lam_met)) == 24
        assert type(rep.restarts_used) is int  # reports are written with the json module

    @pytest.mark.parametrize("name", CUT_CURVES)
    def test_curve_cut_leaves_its_rows(self, monkeypatch, name):
        pmf, grid, opts = CUT_CURVES[name]
        joint = validate_discrete(pmf)
        sweeps = []
        sweep = discrete_ci._Sweep
        monkeypatch.setattr(discrete_ci, "_Sweep",
                            lambda *args: sweeps.append(sweep(*args)) or sweeps[-1])
        rows = ci_curve_discrete(joint, grid, opts)
        uncut = reference_cloud(joint, opts)
        # no run above the first multiplier that meets grid[0] enters the curve's cloud
        (cut,) = sweeps
        assert cut.lam.max() == uncut.lam[uncut.relax <= grid[0]].min() < uncut.lam.max()
        # and the uncut cloud's envelope gives the same rows
        monkeypatch.setattr(discrete_ci, "_Sweep", lambda *args: uncut)
        assert ci_curve_discrete(joint, grid, opts) == rows

    def test_curve_at_total_correlation_descends_nothing(self, monkeypatch):
        rows = []
        parts = discrete_ci._Engine._parts
        monkeypatch.setattr(discrete_ci._Engine, "_parts",
                            lambda self, q, *args: rows.append(q.shape[1]) or parts(self, q, *args))
        j = dsbs_joint(0.1)
        tc = float(total_correlation(j))
        assert ci_curve_discrete(j, [tc], SolverOptions(seed=7)) == [(tc, 0.0, tc)]
        assert rows == []


class TestParking:
    """With a budget above 0, descend steps only the live runs up to theta."""

    def test_no_call_evaluates_a_run_above_theta(self):
        # bench 4x4 at gamma 0.05, the runs a sweep descends; theta is the
        # lowest multiplier whose run's current iterate, live or frozen, has
        # relax <= gamma
        gamma = 0.05
        engine, q0, lam, solo = solo_batch("4x4", False)
        want = engine.descend(q0, lam)
        got, steps = solo.trace(engine, q0, lam, gamma)
        assert_same_runs(got, [a[lam <= lam[want[2] <= gamma].min()] for a in want])
        assert steps[0] == [(r, 0) for r in range(lam.size)]
        done = np.zeros(lam.size, dtype=int)  # candidates evaluated per run
        parked = 0
        for call in steps[1:]:
            theta = lam[[solo.relax[r][k] <= gamma for r, k in enumerate(done)]].min(initial=np.inf)
            runs = [r for r, _ in call]
            # each row is its run's next candidate, so a parked run resumes where
            # it stopped, and no row is above theta
            assert call == [(r, done[r] + 1) for r in runs]
            assert lam[runs].max() <= theta
            done[runs] += 1
            parked += bool(((lam > theta) & (done < solo.candidates)).any())
        assert parked

    @pytest.mark.parametrize("budget", [0.0, None])
    def test_every_call_evaluates_every_live_run(self, budget):
        # nothing parks at budget 0 or with no budget: call k evaluates the k-th
        # candidate of every run that has one
        engine, q0, lam, solo = solo_batch("4x4", False)
        got, steps = solo.trace(engine, q0, lam, budget)
        assert got[2].min() > 0.0  # no run meets budget 0, so none is cut
        assert len(steps) == 1 + solo.candidates.max()
        for k, call in enumerate(steps):
            assert call == [(r, k) for r in range(lam.size) if solo.candidates[r] >= k]


#: tables whose fallback coupling the oracle checks: W = X for the 2x3 pair
#: (Y has the larger alphabet), W = (X_1, X_3) for the 2x3x2 triple
FALLBACK_PMFS = {
    "2x3": np.random.default_rng(4).dirichlet(np.ones(6)).reshape(2, 3),
    "2x3x2": np.random.default_rng(5).dirichlet(np.ones(12)).reshape(2, 3, 2),
}


@pytest.fixture
def fallback_opts(monkeypatch):
    """One multiplier, 1.1, with two starts whose runs stay at relaxation TC > 0, and no slack.

    No run meets gamma = 0, so every solve takes the fallback coupling.
    """
    monkeypatch.setattr(discrete_ci, "_LAMBDA_MIN", DESCENDED_LAMBDA_MIN)
    monkeypatch.setattr(discrete_ci, "_N_LAMBDA", 1)
    monkeypatch.setattr(discrete_ci, "_RESTARTS", 2)
    monkeypatch.setattr(discrete_ci, "_SLACK", 0.0)
    return SolverOptions(seed=7)


class TestFallbackCoupling:
    """When no run meets gamma + slack, the answer is a relaxation-0 coupling."""

    @pytest.mark.parametrize("name", FALLBACK_PMFS)
    def test_oracle(self, fallback_opts, name):
        pmf = FALLBACK_PMFS[name]
        joint = validate_discrete(pmf)
        c, rep = solve_relaxed_wyner(joint, 0.0, fallback_opts)
        assert (rep.lam, rep.iterations, rep.converged) == (0.0, 0, True)
        assert float(rep.achieved_gamma) == 0.0
        assert float(relaxation_given_w(c)) <= 1e-12
        assert abs(float(latent_mutual_information(c)) - float(rep.objective)) <= 1e-12
        # the objective is the entropy of every source but the middle, largest one
        assert abs(float(rep.objective) - float(entropy(pmf.sum(axis=1).ravel()))) <= 1e-12
        rebuilt = build_coupling(c.q_w_given_xy, joint)
        np.testing.assert_array_equal(rebuilt.q_w_given_xy, c.q_w_given_xy)

    def test_tie_leaves_out_the_first_largest_source(self, fallback_opts):
        # both sources have 3 symbols, so W = Y: q(w | x, y) = [w == y]
        pmf = np.random.default_rng(6).dirichlet(np.ones(9)).reshape(3, 3)
        c, rep = solve_relaxed_wyner(validate_discrete(pmf), 0.0, fallback_opts)
        want = np.broadcast_to(np.eye(3)[:, None], (3, 3, 3))
        np.testing.assert_array_equal(c.q_w_given_xy[:3], want)
        assert not c.q_w_given_xy[3:].any()
        assert float(rep.objective) == pytest.approx(float(entropy(pmf.sum(axis=0))), abs=1e-12)

    def test_no_convergence_is_not_masked(self, monkeypatch, fallback_opts):
        # one iteration stops every descent run unconverged; the fallback does not
        # count, and building the sweep raises, so no reader sees that cloud
        monkeypatch.setattr(discrete_ci, "_MAX_ITER", 1)
        joint = validate_discrete(FALLBACK_PMFS["2x3"])
        with pytest.raises(NoConvergence):
            solve_relaxed_wyner(joint, 0.0, fallback_opts)
        with pytest.raises(NoConvergence):
            discrete_ci._Sweep(joint, fallback_opts, 0.0)
        with pytest.raises(NoConvergence):
            ci_curve_discrete(joint, [0.0, 0.1], fallback_opts)
        # a fallback that does not fit card_w is reported first
        with pytest.raises(Infeasible):
            discrete_ci._Sweep(joint, dataclasses.replace(fallback_opts, card_w=1), 0.0)


#: the benchmark's discrete curve grid
BENCH_GRID = np.linspace(0.0, 0.36, 9)


def fallback_curve(monkeypatch):
    """test_fallback_within_curve's setting: (joint, grid, opts) whose gamma = 0 takes the fallback."""
    monkeypatch.setattr(discrete_ci, "_N_LAMBDA", 2)
    monkeypatch.setattr(discrete_ci, "_RESTARTS", 1)
    monkeypatch.setattr(discrete_ci, "_SLACK", 1e-9)
    return dsbs_joint(0.1), [0.0, 0.05, 0.2, 0.3], SolverOptions(seed=3)


def bench_curve(monkeypatch):
    return dsbs_joint(0.1), BENCH_GRID, SolverOptions(seed=7, threads=2)


class TestCloudReaders:
    """The cloud is complete when built: select only reads it, the curve only its envelope."""

    @pytest.mark.parametrize("fallback", [False, True], ids=["4x4", "fallback"])
    def test_select_only_reads(self, monkeypatch, fallback):
        if fallback:
            joint, grid, opts = fallback_curve(monkeypatch)
            sweep = discrete_ci._Sweep(joint, opts, 0.0)
            assert sweep.relax[-1] == 0.0 and sweep.iters[-1] == 0  # the fallback entry
        else:
            sweep = uncut_cloud("4x4")
            grid = [0.01, 0.05, 0.1, 0.2]
        before = {name: getattr(sweep, name).copy() for name in CLOUD_FIELDS}
        forward = [sweep.select(g) for g in grid]
        assert [sweep.select(g) for g in reversed(grid)] == forward[::-1]
        assert [sweep.select(g) for g in grid[1::2] + grid[::2]] == forward[1::2] + forward[::2]
        for name in CLOUD_FIELDS:
            assert getattr(sweep, name).tobytes() == before[name].tobytes(), name

    @pytest.mark.parametrize("fallback", [False, True], ids=["4x4", "fallback"])
    def test_select_is_the_first_best_score(self, monkeypatch, fallback):
        if fallback:
            joint, grid, opts = fallback_curve(monkeypatch)
            sweep = discrete_ci._Sweep(joint, opts, 0.0)
        else:
            joint, sweep = validate_discrete(CUT_PMFS["4x4"]), uncut_cloud("4x4")
            grid = [0.01, 0.02, 0.05, 0.1, 0.2, 0.5]
        # the descent runs are in execution order: lambda never falls
        runs = sweep.lam[1:1 + descended_runs(joint)]
        assert (np.diff(runs) >= 0).all()
        for g in grid:
            best, best_score = None, np.inf
            for i, (obj, relax) in enumerate(zip(sweep.obj.tolist(), sweep.relax.tolist())):
                score = obj + discrete_ci._LAMBDA_GRID_MAX * max(0.0, relax - g)
                if relax <= g + discrete_ci._SLACK and score < best_score:
                    best, best_score = i, score
            assert sweep.select(g) == best, g

    def test_select_tie_goes_to_the_earlier_entry(self):
        sweep = copy.copy(uncut_cloud("4x4"))
        sweep.obj, sweep.relax = sweep.obj.copy(), sweep.relax.copy()
        i = sweep.select(0.05)
        later = sweep.obj.size - 1
        assert 0 < i < later
        sweep.obj[later], sweep.relax[later] = sweep.obj[i], sweep.relax[i]
        assert sweep.select(0.05) == i
        # the same entry copied before it wins instead
        sweep.obj[0], sweep.relax[0] = sweep.obj[i], sweep.relax[i]
        assert sweep.select(0.05) == 0

    def test_curve_reads_only_its_envelope(self, monkeypatch):
        calls = []
        select, envelope = discrete_ci._Sweep.select, discrete_ci._lower_convex_envelope
        monkeypatch.setattr(discrete_ci._Sweep, "select",
                            lambda self, g: calls.append("select") or select(self, g))
        monkeypatch.setattr(discrete_ci, "_lower_convex_envelope",
                            lambda points: calls.append("envelope") or envelope(points))
        ci_curve_discrete(dsbs_joint(0.1), BENCH_GRID, SolverOptions(seed=7))
        assert calls == ["envelope"]
        calls.clear()
        solve_relaxed_wyner(dsbs_joint(0.1), 0.0, SolverOptions(seed=7))
        assert calls == ["select"]

    @pytest.mark.parametrize("case", [bench_curve, fallback_curve], ids=["dsbs", "fallback"])
    def test_achieved_is_where_the_envelope_reaches_the_bound(self, monkeypatch, case):
        joint, grid, opts = case(monkeypatch)
        rows = ci_curve_discrete(joint, grid, opts)
        sweep = discrete_ci._Sweep(joint, opts, grid[0])
        hx, hy = discrete_ci._lower_convex_envelope(zip(sweep.relax.tolist(), sweep.obj.tolist()))
        left, low = hx[0], hx[np.argmin(hy)]
        assert left <= grid[0] + discrete_ci._SLACK
        for g, ub, achieved in rows:
            assert 0.0 <= achieved <= g + discrete_ci._SLACK
            if left <= g <= low:
                assert achieved == g
            else:
                assert achieved == (left if g < left else low)
            assert np.interp(achieved, hx, hy) == ub
        if case is fallback_curve:
            assert left == 0.0 and rows[0][2] == 0.0


def same_solve(a, b):
    """Whether two reports agree bit for bit: objective, achieved gamma, lam, iterations, runs."""
    fields = ("objective", "achieved_gamma")
    return all(float(getattr(a, f)).hex() == float(getattr(b, f)).hex() for f in fields) and (
        (a.lam, a.iterations, a.restarts_used) == (b.lam, b.iterations, b.restarts_used))


def first_appearance(labels):
    """labels renumbered 0, 1, ... in order of first appearance; -1 stays -1."""
    order = {}
    return np.array([-1 if v < 0 else order.setdefault(v, len(order)) for v in labels.tolist()])


class TestReduction:
    """The sweep solves the table with zero-mass symbols dropped and equal slices merged."""

    def test_zero_row_solves_as_its_reduction(self):
        small = validate_discrete(np.random.default_rng(4).dirichlet(np.ones(6)).reshape(2, 3))
        big = validate_discrete(np.insert(small.pmf, 1, 0.0, axis=0))
        reduced, classes = discrete_ci._reduce(big.pmf)
        assert np.array_equal(reduced, small.pmf)
        assert classes[0].tolist() == [0, -1, 1] and classes[1].tolist() == [0, 1, 2]
        opts = SolverOptions(seed=7)
        for gamma in (0.0, 0.05):
            c, rep = solve_relaxed_wyner(big, gamma, opts)
            c_small, rep_small = solve_relaxed_wyner(small, gamma, opts)
            assert same_solve(rep, rep_small)
            # the default card_w is the given table's cells + 1; the zero row takes row 0's slices
            assert c.q_w_given_xy.shape == (10, 3, 3)
            np.testing.assert_allclose(c.q_w_given_xy.sum(axis=0), 1.0, rtol=0, atol=1e-12)
            np.testing.assert_array_equal(c.q_w_given_xy[:, 1], c.q_w_given_xy[:, 0])
            np.testing.assert_array_equal(c.q_w_given_xy[:7, [0, 2]], c_small.q_w_given_xy)

    @pytest.mark.parametrize("seed", [1, 3])
    def test_split_row_solves_as_the_unsplit_table(self, seed):
        # row 1 split into two equal halves: the merge is exact
        whole = validate_discrete(np.random.default_rng(seed).dirichlet(np.ones(12)).reshape(3, 4))
        split = np.insert(whole.pmf, 2, whole.pmf[1] / 2, axis=0)
        split[1] /= 2
        split = validate_discrete(split)
        reduced, classes = discrete_ci._reduce(split.pmf)
        assert np.array_equal(reduced, whole.pmf)
        assert classes[0].tolist() == [0, 1, 1, 2]
        opts = SolverOptions(seed=7)
        for gamma in (0.0, 0.05):
            c, rep = solve_relaxed_wyner(split, gamma, opts)
            assert same_solve(rep, solve_relaxed_wyner(whole, gamma, opts)[1])
            assert c.q_w_given_xy.shape == (17, 4, 4)
            np.testing.assert_array_equal(c.q_w_given_xy[:, 1], c.q_w_given_xy[:, 2])

    @pytest.mark.parametrize("a0", [0.05, 0.1, 0.2])
    def test_toy_solves_as_dsbs(self, a0):
        toy, dsbs = toy_binary_example(a0), dsbs_joint(a0)
        reduced, classes = discrete_ci._reduce(toy.pmf)
        assert np.array_equal(reduced, dsbs.pmf)
        # the class of a two-bit symbol is its B1, the xor of its bits
        assert [c.tolist() for c in classes] == [[0, 1, 1, 0]] * 2
        for card_w in (4, 17):
            _, rep = solve_relaxed_wyner(toy, 0.0, SolverOptions(seed=7, card_w=card_w))
            _, want = solve_relaxed_wyner(dsbs, 0.0, SolverOptions(seed=7, card_w=min(card_w, 5)))
            assert same_solve(rep, want)

    @pytest.mark.parametrize("seed", range(3))
    def test_relabelled_table_gives_relabelled_classes(self, seed):
        pmf = np.insert(toy_binary_example(0.1).pmf, 2, 0.0, axis=0)  # a zero-mass x symbol
        _, classes = discrete_ci._reduce(pmf)
        rng = np.random.default_rng(seed)
        perms = [rng.permutation(n) for n in pmf.shape]
        _, got = discrete_ci._reduce(pmf[np.ix_(*perms)])
        for cls, perm, relabelled in zip(classes, perms, got):
            assert relabelled.tolist() == first_appearance(cls[perm]).tolist()

    def test_card_w_above_the_reduced_bound(self):
        # toy at card_w 17 solves DSBS(0.1) at card_w 5 and pads 12 zero rows
        c, _ = solve_relaxed_wyner(toy_binary_example(0.1), 0.0, SolverOptions(seed=7, card_w=17))
        small, _ = solve_relaxed_wyner(dsbs_joint(0.1), 0.0, SolverOptions(seed=7, card_w=5))
        assert c.card_w == 17 and c.q_w_given_xy.shape == (17, 4, 4)
        assert not c.q_w_given_xy[5:].any()
        cls = np.array([0, 1, 1, 0])
        np.testing.assert_array_equal(c.q_w_given_xy[:5], small.q_w_given_xy[:, cls][:, :, cls])
        got, want = project_discrete_map(c), project_discrete_map(small)
        for m, t, m_small, t_small in zip(got.maps, got.ties, want.maps, want.ties):
            np.testing.assert_array_equal(m, m_small[cls])
            np.testing.assert_array_equal(t, t_small[cls])

    def test_curve_is_the_reduction_curve(self):
        opts = SolverOptions(seed=7)
        assert ci_curve_discrete(toy_binary_example(0.1), BENCH_GRID, opts) == ci_curve_discrete(
            dsbs_joint(0.1), BENCH_GRID, opts)


class TestTrivialMultipliers:
    """No run is descended at lam <= 1/(M - 1), where entry 0 minimises F_lam."""

    @pytest.mark.parametrize("pmf", [CUT_PMFS["4x4"], MULTI_PMF], ids=["4x4", "multi222"])
    def test_descend_sees_only_multipliers_above_the_line(self, monkeypatch, pmf):
        seen = []
        descend = discrete_ci._Engine.descend

        def spy(self, q0, lam, *args):
            seen.append(np.asarray(lam).copy())
            return descend(self, q0, lam, *args)

        monkeypatch.setattr(discrete_ci._Engine, "descend", spy)
        joint = validate_discrete(pmf)
        line = 1.0 / (pmf.ndim - 1)
        _, rep = solve_relaxed_wyner(joint, 0.05, CUT_OPTS)
        ci_curve_discrete(joint, [0.0, 0.1], CUT_OPTS)
        assert len(seen) == 2 and all(lam.min() > line for lam in seen)
        grid = lambda_grid()
        # the curve's sweep descends every grid run above the line: 9 multipliers
        # for a pair, 10 for three sources
        np.testing.assert_array_equal(seen[1], np.repeat(grid[grid > line], discrete_ci._RESTARTS))
        assert seen[1].size == descended_runs(joint) == 8 * (7 + pmf.ndim)

    def test_budget_above_total_correlation_descends_nothing(self, monkeypatch):
        # TC = 0.0566 <= gamma = 0.1, so entry 0 meets gamma at the lowest multiplier:
        # no _parts row is evaluated, the report counts no run, and with nothing
        # descended NoConvergence cannot apply
        rows = []
        parts = discrete_ci._Engine._parts
        monkeypatch.setattr(discrete_ci._Engine, "_parts",
                            lambda self, q, *args: rows.append(q.shape[1]) or parts(self, q, *args))
        monkeypatch.setattr(discrete_ci, "_MAX_ITER", 1)
        joint = validate_discrete(quantized_gaussian(0.5, 2))
        c, rep = solve_relaxed_wyner(joint, 0.1, SolverOptions(seed=0))
        assert rows == []
        assert (rep.lam, rep.iterations, rep.restarts_used, rep.converged) == (0.0, 0, 0, True)
        assert float(rep.objective) == 0.0
        assert float(rep.achieved_gamma) == float(total_correlation(joint)) == float.fromhex(
            "0x1.cff008f1afce0p-5")
        assert (c.q_w_given_xy == 0.2).all()


class TestSolveMulti:
    def test_pair_reduction_agrees(self):
        j2 = dsbs_joint(0.1)
        jm = validate_discrete(j2.pmf)
        opts = SolverOptions(seed=7)
        _, r2 = solve_relaxed_wyner(j2, 0.05, opts)
        _, rm = solve_relaxed_wyner(jm, 0.05, opts)
        assert abs(float(r2.objective) - float(rm.objective)) < 1e-3

    def test_three_copies_common_bit(self):
        pmf = np.zeros((2, 2, 2))
        pmf[0, 0, 0] = pmf[1, 1, 1] = 0.5
        jm = validate_discrete(pmf)
        _, rep = solve_relaxed_wyner(jm, 0.0, SolverOptions(seed=7))
        assert abs(float(rep.objective) - LN2) < 2e-2

    def test_three_independent(self):
        # the pair's total correlation rounds to 2.2e-16, not 0, yet within the
        # fixed slack the constant coupling is feasible: C_0 = 0, not the fallback's ln 2
        for pmf in (np.ones((2, 2, 2)) / 8.0, np.outer([0.4, 0.6], [0.5, 0.5])):
            _, rep = solve_relaxed_wyner(validate_discrete(pmf), 0.0, SolverOptions(seed=7))
            assert float(rep.objective) == 0.0 and rep.lam == 0.0

    def test_too_large(self):
        pmf = np.ones((5, 5, 5)) / 125.0
        jm = validate_discrete(pmf)
        with pytest.raises(TooLarge):
            solve_relaxed_wyner(jm, 0.0)


class TestCiCurveDiscrete:
    def test_flat_zero_for_product(self):
        j = product_joint([0.4, 0.6], [0.5, 0.5])
        rows = ci_curve_discrete(j, [0.0, 0.05, 0.1], SolverOptions(seed=7))
        for _, ub, _ in rows:
            assert ub <= 1e-6

    def test_upper_bound_tiny_at_full_budget(self):
        j = dsbs_joint(0.1)
        rows = ci_curve_discrete(j, [float(total_correlation(j))], SolverOptions(seed=7))
        assert rows[0][1] <= 1e-3

    def test_fallback_within_curve(self, monkeypatch):
        # no run meets gamma = 0 within the slack, so the first curve point takes
        # the relaxation-0 fallback; the later points read the cloud without it
        j, grid, opts = fallback_curve(monkeypatch)
        later = grid[1:]
        rows = ci_curve_discrete(j, grid, opts)
        _, rep = solve_relaxed_wyner(j, 0.0, opts)
        assert rep.iterations == 0 and rep.restarts_used == 1  # the one run at lam = 50
        assert rows[0] == (0.0, float(rep.objective), float(rep.achieved_gamma)) == (0.0, LN2, 0.0)
        assert rows[1:] == ci_curve_discrete(j, later, opts)

    def test_dsbs_curve_convex_nonincreasing(self):
        j = dsbs_joint(0.1)
        grid = np.linspace(0.0, float(total_correlation(j)), 9)
        rows = ci_curve_discrete(j, grid, SolverOptions(seed=7))
        ub = np.array([r[1] for r in rows])
        assert np.all(np.diff(ub) <= 1e-12)
        assert np.all(np.diff(ub, 2) >= -1e-3)
        # achieved budgets respect the slack
        for (g, _, ach) in rows:
            assert ach <= g + 5e-3 + 1e-12

    @pytest.mark.parametrize("pmf", [dsbs_joint(0.1).pmf, MULTI_PMF], ids=["dsbs", "multi222"])
    def test_zero_at_and_above_total_correlation(self, pmf):
        # the constant coupling reaches (TC, 0); a run ending just above TC
        # with a positive objective must not lift the curve's right end
        j = validate_discrete(pmf)
        tc = float(total_correlation(j))
        for grid in ([tc, 1.5 * tc, 10.0], [1.5 * tc, 10.0]):
            rows = ci_curve_discrete(j, grid, SolverOptions(seed=7))
            assert [r[1] for r in rows] == [0.0] * len(grid)

    @pytest.mark.parametrize("pmf", [dsbs_joint(0.1).pmf, MULTI_PMF, CUT_PMFS["4x4"]],
                             ids=["dsbs", "multi222", "4x4"])
    def test_envelope_below_every_covered_run(self, pmf):
        # time sharing: the bound at gamma is no worse than any run with relax <= gamma
        sweep = discrete_ci._Sweep(validate_discrete(pmf), SolverOptions(seed=7), 0.0)
        hull = discrete_ci._lower_convex_envelope(zip(sweep.relax.tolist(), sweep.obj.tolist()))
        tc = sweep.engine.tc
        for g in np.concatenate([np.unique(sweep.relax), [tc + 1e-12, 1.5 * tc, 10.0]]):
            assert np.interp(g, *hull) <= sweep.obj[sweep.relax <= g].min(), g

    @pytest.mark.parametrize("rho", [0.5, 0.9])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_quantized_gaussian_below_gaussian_value(self, rho, n):
        # quantizing each coordinate is a function of it, so it cannot raise C_gamma
        grid = [0.0, 0.05, 0.1, 0.2]
        j = validate_discrete(quantized_gaussian(rho, n))
        for g, ub, _ in ci_curve_discrete(j, grid, SolverOptions(seed=0)):
            assert ub <= float(waterfill([rho], g).c_gamma) + 1e-9, g

    def test_tensorization(self):
        j1 = dsbs_joint(0.1)
        j2 = dsbs_joint(0.2)
        prod = validate_discrete(np.kron(j1.pmf, j2.pmf))
        total = float(total_correlation(prod))
        grid = np.linspace(0.0, total, 7)
        rows_p = ci_curve_discrete(prod, grid, SolverOptions(seed=7, card_w=8))
        fine = np.linspace(0.0, total, 121)
        ub1 = np.array([r[1] for r in ci_curve_discrete(j1, fine, SolverOptions(seed=11))])
        ub2 = np.array([r[1] for r in ci_curve_discrete(j2, fine, SolverOptions(seed=12))])
        for g, ub, _ in rows_p:
            splits = fine[fine <= g + 1e-12]
            combined = min(
                np.interp(g1, fine, ub1) + np.interp(g - g1, fine, ub2) for g1 in splits
            )
            assert abs(ub - combined) < 3e-2
