"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings. Expected values for closed forms were frozen from the
defining formulas evaluated independently (see test_gaussian_ci /
test_discrete_ci docstrings).
"""

import json
import math
import subprocess
import sys
import time

import numpy as np

from cica import (
    SolverOptions,
    cca_decompose,
    ci_curve_discrete,
    component_count,
    discrete_ci,
    dsbs_joint,
    feature_mutual_information,
    project_discrete_map,
    project_gaussian,
    solve_relaxed_wyner,
    toy_binary_example,
    total_correlation,
    validate_discrete,
    validate_gaussian,
    waterfill,
)
from cica.projections import binary_vector_covariance
from conftest import block_covariance, mutual_info_rho, random_gaussian_joint
from test_gaussian_ci import grid_search_allocation

LN2 = math.log(2.0)
I_05 = 0.14384103622589042
I_08 = 0.5108256237659906
WYNER_DSBS = {
    0.05: 0.6530425383369941,
    0.1: 0.6049515261814267,
    0.2: 0.48929599185999795,
}


class _Criterion:
    def __init__(self, num, name, limit_s):
        self.num = num
        self.name = name
        self.limit_s = limit_s
        self.failures = []

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def check(self, ok, message):
        if not ok:
            self.failures.append(message)

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        ok = exc_type is None and not self.failures and elapsed < self.limit_s
        status = "PASS" if ok else "FAIL"
        print(f"ACCEPTANCE {self.num} [{self.name}]: {status} ({elapsed:.2f}s / {self.limit_s:.0f}s)")
        if exc_type is not None:
            return False
        if elapsed >= self.limit_s:
            self.failures.append(f"runtime {elapsed:.2f}s exceeded {self.limit_s}s")
        assert not self.failures, "; ".join(self.failures)
        return True


def test_criterion_1_scalar_closed_form():
    with _Criterion(1, "scalar Gaussian closed form", 1.0) as c:
        for rho in np.arange(0.1, 0.95, 0.1):
            rho = round(float(rho), 1)
            got = float(waterfill([rho], 0.0).c_gamma)
            want = 0.5 * math.log((1 + rho) / (1 - rho))
            c.check(abs(got - want) < 1e-12, f"rho={rho}: {got} vs {want}")


def test_criterion_2_waterfilling_optimality():
    with _Criterion(2, "water-filling vs simplex grid search", 60.0) as c:
        rng = np.random.default_rng(7)
        for i in range(100):
            rho = np.sort(rng.uniform(0.05, 0.95, size=3))[::-1]
            total = sum(float(mutual_info_rho(r)) for r in rho)
            gamma = float(rng.uniform(0.0, total))
            alloc = waterfill(rho, gamma)
            oracle = grid_search_allocation(rho, gamma, 1e-3)
            # the 1e-3 lattice overshoots the flat optimum, so the check is
            # one-sided; the I - gamma lower bound guards against undershoot
            c.check(
                float(alloc.c_gamma) <= oracle + 1e-5,
                f"instance {i}: waterfill {float(alloc.c_gamma)} > grid {oracle} + 1e-5",
            )
            c.check(
                float(alloc.c_gamma) >= max(total - gamma, 0.0) - 1e-9,
                f"instance {i}: below the I - gamma lower bound",
            )


def test_criterion_3_component_schedule():
    with _Criterion(3, "component-count schedule", 1.0) as c:
        rho = [0.8, 0.5]
        thr_k1 = 2 * float(mutual_info_rho(0.5))
        thr_k0 = float(mutual_info_rho(0.8)) + float(mutual_info_rho(0.5))
        c.check(abs(thr_k1 - 0.28768207245178085) < 1e-15, "threshold 2 I(0.5) drifted")
        c.check(abs(thr_k0 - 0.654666659991881) < 1e-15, "threshold sum I drifted")
        expected = [
            (0.0, 2), (0.1, 2), (thr_k1 - 1e-9, 2),
            (thr_k1, 1), (thr_k1 + 1e-9, 1), (0.4, 1), (thr_k0 - 1e-9, 1),
            (thr_k0, 0), (thr_k0 + 1e-9, 0), (1.0, 0),
        ]
        for gamma, k in expected:
            got = component_count(rho, gamma)
            c.check(got == k, f"gamma={gamma!r}: k={got}, expected {k}")


def test_criterion_4_cica_equals_cca():
    with _Criterion(4, "projections match top-k CCA", 10.0) as c:
        rng = np.random.default_rng(11)
        for i in range(50):
            dim_x = int(rng.integers(1, 4))
            dim_y = int(rng.integers(1, 4))
            joint = random_gaussian_joint(rng, dim_x, dim_y)
            basis = cca_decompose(joint)
            total = sum(float(mutual_info_rho(r)) for r in basis.rho)
            for frac in (0.0, 0.25, 0.5, 0.75, 0.95):
                gamma = frac * total
                k = component_count(basis.rho, gamma)
                cca_u = basis.u[:, :k].T @ basis.w_x
                cca_v = basis.v[:, :k].T @ basis.w_y
                for version in ("map", "cond_exp", "marginal"):
                    out = project_gaussian(basis, k, version)
                    for row, ref in zip(out.u_of_x, cca_u):
                        cos = row @ ref / (np.linalg.norm(row) * np.linalg.norm(ref))
                        c.check(cos >= 1 - 1e-8, f"joint {i} u-row cosine {cos}")
                    for row, ref in zip(out.v_of_y, cca_v):
                        cos = row @ ref / (np.linalg.norm(row) * np.linalg.norm(ref))
                        c.check(cos >= 1 - 1e-8, f"joint {i} v-row cosine {cos}")


def test_criterion_5_discrete_solver_vs_dsbs_oracle():
    with _Criterion(5, "discrete solver vs DSBS closed form", 120.0) as c:
        for a0, want in WYNER_DSBS.items():
            _, rep = solve_relaxed_wyner(dsbs_joint(a0), 0.0, SolverOptions(seed=7))
            got = float(rep.objective)
            c.check(abs(got - want) < 2e-2, f"a0={a0}: {got} vs {want}")
        xx = validate_discrete([[0.5, 0.0], [0.0, 0.5]])
        _, rep = solve_relaxed_wyner(xx, 0.0, SolverOptions(seed=7))
        c.check(
            abs(float(rep.objective) - LN2) < 1e-3,
            f"C_0(X;X) = {float(rep.objective)} vs ln 2",
        )


def test_criterion_6_property_suite(monkeypatch):
    with _Criterion(6, "information-measure properties of solver outputs", 300.0) as c:
        # lower bound: objective >= I(X;Y) - gamma - 2e-2
        j = dsbs_joint(0.1)
        i_xy = float(total_correlation(j))
        for gamma in (0.0, 0.1, 0.3):
            _, rep = solve_relaxed_wyner(j, gamma, SolverOptions(seed=5))
            c.check(
                float(rep.objective) >= i_xy - gamma - 2e-2,
                f"lower bound violated at gamma={gamma}",
            )
        # convex nonincreasing curve (envelope check)
        grid = np.linspace(0.0, i_xy, 9)
        ub = np.array([r[1] for r in ci_curve_discrete(j, grid, SolverOptions(seed=7))])
        c.check(np.all(np.diff(ub) <= 1e-3), "curve not nonincreasing")
        c.check(np.all(np.diff(ub, 2) >= -1e-3), "curve not convex")
        # permutation invariance
        pmf = np.array([[0.30, 0.05], [0.05, 0.30], [0.05, 0.25]])
        jp = validate_discrete(pmf)
        jq = validate_discrete(pmf[[2, 0, 1]][:, [1, 0]])
        opts = SolverOptions(seed=5)
        with monkeypatch.context() as tight:
            tight.setattr(discrete_ci, "_TOL", 1e-12)
            tight.setattr(discrete_ci, "_MAX_ITER", 60_000)
            for gamma in (0.0, 0.05):
                _, r1 = solve_relaxed_wyner(jp, gamma, opts)
                _, r2 = solve_relaxed_wyner(jq, gamma, opts)
                diff = abs(float(r1.objective) - float(r2.objective))
                c.check(diff < 1e-6, f"permutation invariance off by {diff} at gamma={gamma}")
        # tensorization on a product of two independent pairs
        j1, j2 = dsbs_joint(0.1), dsbs_joint(0.2)
        prod = validate_discrete(np.kron(j1.pmf, j2.pmf))
        total = float(total_correlation(prod))
        grid = np.linspace(0.0, total, 7)
        rows_p = ci_curve_discrete(prod, grid, SolverOptions(seed=7, card_w=8))
        fine = np.linspace(0.0, total, 121)
        ub1 = np.array([r[1] for r in ci_curve_discrete(j1, fine, SolverOptions(seed=11))])
        ub2 = np.array([r[1] for r in ci_curve_discrete(j2, fine, SolverOptions(seed=12))])
        for g, ub_g, _ in rows_p:
            splits = fine[fine <= g + 1e-12]
            combined = min(
                np.interp(g1, fine, ub1) + np.interp(g - g1, fine, ub2) for g1 in splits
            )
            c.check(
                abs(ub_g - combined) < 3e-2,
                f"tensorization gap {ub_g - combined} at gamma={g}",
            )
        # data processing on a chain X - Y - Z
        channel = np.array([[0.85, 0.15], [0.2, 0.8]])
        pxz = validate_discrete(j.pmf @ channel)
        for gamma in (0.0, 0.05):
            _, r_xy = solve_relaxed_wyner(j, gamma, SolverOptions(seed=7))
            _, r_xz = solve_relaxed_wyner(pxz, gamma, SolverOptions(seed=7))
            c.check(
                float(r_xz.objective) <= float(r_xy.objective) + 2e-2,
                f"data processing violated at gamma={gamma}",
            )


def test_criterion_7_toy_example():
    with _Criterion(7, "toy example: CCA blind, CICA not", 60.0) as c:
        joint = toy_binary_example(0.1)
        k_x, k_y, k_xy = binary_vector_covariance(joint)
        blk = block_covariance(validate_gaussian(k_x, k_y, k_xy))
        c.check(
            np.abs(blk - 0.25 * np.eye(4)).max() < 1e-12,
            "covariance is not a scaled identity",
        )
        basis = cca_decompose(validate_gaussian(k_x, k_y, k_xy))
        c.check(basis.rho.max() <= 1e-10, f"CCA found correlation {basis.rho.max()}")
        coupling, _ = solve_relaxed_wyner(joint, 0.0, SolverOptions(seed=7, card_w=4))
        out = project_discrete_map(coupling)
        mi = float(feature_mutual_information(joint, out.u_of_x, out.v_of_y))
        hb01_bits = -(0.1 * math.log2(0.1) + 0.9 * math.log2(0.9))
        bound = (1 - hb01_bits) * LN2 - 5e-2
        c.check(mi >= bound, f"feature MI {mi} below {bound}")


def test_criterion_8_cli_determinism_and_round_trip(tmp_path):
    with _Criterion(8, "CLI determinism and JSON round trip", 10.0) as c:
        pmf = tmp_path / "dsbs.csv"
        pmf.write_text("x,y,p\n0,0,0.45\n0,1,0.05\n1,0,0.05\n1,1,0.45\n")

        def run(out, *extra):
            r = subprocess.run(
                [sys.executable, "-m", "cica.cli", *extra, "--out", str(out), "--no-meta"],
                capture_output=True,
                text=True,
            )
            c.check(r.returncode == 0, f"exit {r.returncode}: {r.stderr}")
            return out.read_bytes()

        d_args = ("discrete", "--pmf", str(pmf), "--gamma", "0.05", "--seed", "11",
                  "--threads", "2")
        b1 = run(tmp_path / "d1.json", *d_args)
        b2 = run(tmp_path / "d2.json", *d_args)
        c.check(b1 == b2, "discrete reports differ byte-wise")
        cov = tmp_path / "cov.json"
        cov.write_text(json.dumps({"k_x": [[1.0]], "k_y": [[1.0]], "k_xy": [[0.5]]}))
        g_args = ("gaussian", "--cov", str(cov), "--gamma", "0.05")
        g1 = run(tmp_path / "g1.json", *g_args)
        g2 = run(tmp_path / "g2.json", *g_args)
        c.check(g1 == g2, "gaussian reports differ byte-wise")
        rep = json.loads(b1)
        c.check(json.loads(json.dumps(rep)) == rep, "JSON round trip changed values")
        c.check(
            json.loads(json.dumps(rep))["upper_bound"] == rep["upper_bound"],
            "numeric field drifted in round trip",
        )
