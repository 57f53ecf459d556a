"""Fixed discrete solve cases, for comparing two versions of the solver.

Run from the root of a checkout (pytest does not collect this file):

    PYTHONPATH=src python tests/solve_cases.py cases.json
    PYTHONPATH=src python tests/solve_cases.py --compare parent.json change.json

Each point case is one ``solve_relaxed_wyner`` call on a fixed table, budget,
latent alphabet and solver seed. Per case the JSON holds the objective and
the achieved gamma as float hex, lam, iterations, restarts_used,
converged, the sha256 of the returned coupling's bytes, the descent runs
that the engine's ``_parts`` evaluated (``parts_rows``) over its calls
(``parts_calls``), and seconds. ``bracket_gap`` is
the objective less the lower bound max(TC - gamma, 0) / (M - 1), and for
the quantized Gaussians ``ceiling_gap`` is the objective less the Gaussian
pair's C_gamma, ``waterfill([rho], gamma).c_gamma``, which no discrete
value may exceed; a positive ceiling gap is a certified loose bound. The
run count is q.size // (card_w * cells), which holds in any array layout.
Each curve case is one ``ci_curve_discrete`` call on a fixed table, grid
and solver seed. Its JSON holds the rows (gamma, upper bound, achieved
gamma), each entry as float hex, the ``_parts`` runs and calls and seconds, and for
the quantized Gaussian ``ceiling_gap``, the largest upper bound less the
Gaussian C_gamma over the rows. The achieved column is the abscissa at
which the envelope reaches the bound: gamma itself between the hull's left
end and its lowest vertex, else the nearer of the two (the quantized
Gaussian's row at gamma 0.2 reads its lowest vertex, 0.104650, where the
bound is 0). A point case's achieved gamma is its one selected run's
relaxation. Every field but seconds is deterministic, so ``--compare``
reports each other field that differs and exits 1 if any does. Its last
line gives each file's summed ``parts_rows``, ``parts_calls`` and seconds.

Point cases: the 14 solves (five Dirichlet(0.5) survey tables at gamma
0.02 and 0.1, the random 6x6, and the bench 4x4 at gamma 0.05, 0.1 and
0.2), DSBS a0 in {0.05, 0.1, 0.2} at gamma 0, the toy at card_w 4 and 17,
the bench 2x2x2 at gamma 0 and 0.05, and quantized Gaussians (rho in
{0.5, 0.9}, n in {2, 3, 4}) at gamma 0.1. The survey, the 6x6 and the
quantized Gaussians use solver seed 0, the rest seed 7. Curve cases: DSBS(0.1) over
the benchmark's grid, 9 points from 0 to 0.36, and the bench 4x4 over
[0, 0.05, 0.1, 0.2], both with solver seed 7, and the quantized Gaussian
(0.5, 4) over the same four points with solver seed 0. Two more curves
start above 0, so their sweeps stop at the first multiplier that meets
grid[0]: the bench 4x4 over [0.05, 0.1, 0.2] with seed 7 and the random
6x6 over [0.02, 0.05, 0.1] with seed 0.
"""

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from conftest import quantized_gaussian  # noqa: E402

from cica import (  # noqa: E402
    SolverOptions,
    ci_curve_discrete,
    discrete_ci,
    dsbs_joint,
    solve_relaxed_wyner,
    toy_binary_example,
    total_correlation,
    validate_discrete,
    waterfill,
)

#: (generator seed, shape) of the survey's Dirichlet(0.5) tables
SURVEY = [(1, (5, 5)), (3, (5, 5)), (4, (6, 6)), (5, (4, 6)), (6, (3, 3, 3))]


def dirichlet(seed, shape, alpha):
    size = int(np.prod(shape))
    return np.random.default_rng(seed).dirichlet(np.full(size, alpha)).reshape(shape)


def cases():
    """(name, pmf, gamma, card_w, solver seed, Gaussian ceiling or None) of every case."""
    out = []
    for seed, shape in SURVEY:
        for gamma in (0.02, 0.1):
            name = f"survey {'x'.join(map(str, shape))} seed {seed} gamma {gamma}"
            out.append((name, dirichlet(seed, shape, 0.5), gamma, None, 0, None))
    out.append(("random 6x6 gamma 0.05", dirichlet(0, (6, 6), 0.5), 0.05, None, 0, None))
    for gamma in (0.05, 0.1, 0.2):
        out.append((f"bench 4x4 gamma {gamma}", dirichlet(2, (4, 4), 0.5), gamma, None, 7, None))
    for a0 in (0.05, 0.1, 0.2):
        out.append((f"dsbs {a0} gamma 0", dsbs_joint(a0).pmf, 0.0, None, 7, None))
    for card_w in (4, 17):
        out.append((f"toy card_w {card_w}", toy_binary_example(0.1).pmf, 0.0, card_w, 7, None))
    for gamma in (0.0, 0.05):
        pmf = dirichlet(1, (2, 2, 2), 1.0)
        out.append((f"bench 2x2x2 gamma {gamma}", pmf, gamma, None, 7, None))
    for rho in (0.5, 0.9):
        for n in (2, 3, 4):
            ceiling = float(waterfill([rho], 0.1).c_gamma)
            out.append((f"quantized gaussian ({rho}, {n}) gamma 0.1", quantized_gaussian(rho, n),
                        0.1, None, 0, ceiling))
    return out


def curve_cases():
    """(name, pmf, grid, solver seed, rho of the quantized Gaussian or None) of every curve."""
    grid = [0.0, 0.05, 0.1, 0.2]
    return [
        ("dsbs 0.1 curve", dsbs_joint(0.1).pmf, np.linspace(0.0, 0.36, 9), 7, None),
        ("bench 4x4 curve", dirichlet(2, (4, 4), 0.5), grid, 7, None),
        ("quantized gaussian (0.5, 4) curve", quantized_gaussian(0.5, 4), grid, 0, 0.5),
        ("bench 4x4 curve from 0.05", dirichlet(2, (4, 4), 0.5), grid[1:], 7, None),
        ("random 6x6 curve from 0.02", dirichlet(0, (6, 6), 0.5), [0.02, 0.05, 0.1], 0, None),
    ]


def counted(call):
    """(call(), descent runs that the engine's _parts evaluated, _parts calls, seconds)."""
    rows = []
    parts = discrete_ci._Engine._parts

    def counted_parts(self, q, *args):
        rows.append(q.size // (self.card_w * self.pmf.size))
        return parts(self, q, *args)

    discrete_ci._Engine._parts = counted_parts
    try:
        start = time.perf_counter()
        out = call()
        seconds = time.perf_counter() - start
    finally:
        discrete_ci._Engine._parts = parts
    return out, sum(rows), len(rows), seconds


def run_case(pmf, gamma, card_w, seed, ceiling=None):
    joint = validate_discrete(pmf)
    opts = SolverOptions(seed=seed, card_w=card_w)
    (coupling, rep), runs, calls, seconds = counted(lambda: solve_relaxed_wyner(joint, gamma, opts))
    objective = float(rep.objective)
    lower = max(float(total_correlation(joint)) - gamma, 0.0) / (pmf.ndim - 1)
    out = {
        "objective": objective.hex(),
        "achieved_gamma": float(rep.achieved_gamma).hex(),
        "lam": rep.lam,
        "iterations": rep.iterations,
        "restarts_used": rep.restarts_used,
        "converged": rep.converged,
        "coupling_sha256": hashlib.sha256(coupling.q_w_given_xy.tobytes()).hexdigest(),
        "parts_rows": runs,
        "parts_calls": calls,
        "bracket_gap": objective - lower,
        "seconds": seconds,
    }
    if ceiling is not None:
        out["ceiling_gap"] = objective - ceiling
    return out


def run_curve(pmf, grid, seed, rho=None):
    joint = validate_discrete(pmf)
    rows, runs, calls, seconds = counted(
        lambda: ci_curve_discrete(joint, grid, SolverOptions(seed=seed)))
    out = {
        "rows": [[float(v).hex() for v in row] for row in rows],
        "parts_rows": runs,
        "parts_calls": calls,
        "seconds": seconds,
    }
    if rho is not None:
        out["ceiling_gap"] = max(ub - float(waterfill([rho], g).c_gamma) for g, ub, _ in rows)
    return out


def compare(a, b):
    """Lines naming every case and field but seconds where a and b differ."""
    diffs = [f"case sets differ: {sorted(set(a) ^ set(b))}"] if set(a) != set(b) else []
    for name in sorted(set(a) & set(b)):
        for field in sorted((set(a[name]) | set(b[name])) - {"seconds"}):
            if a[name].get(field) != b[name].get(field):
                diffs.append(f"{name}: {field} {a[name].get(field)!r} != {b[name].get(field)!r}")
    return diffs


def totals(cases):
    """A case file's summed parts_rows, parts_calls and seconds, as one phrase."""
    rows, calls, seconds = (sum(case.get(field, 0) for case in cases.values())
                            for field in ("parts_rows", "parts_calls", "seconds"))
    return f"parts_rows {rows}, parts_calls {calls}, {seconds:.2f} s"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", nargs="?", help="JSON file to write the case results to")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two case files")
    args = parser.parse_args(argv)
    if args.compare:
        a, b = (json.loads(Path(p).read_text(encoding="utf-8")) for p in args.compare)
        diffs = compare(a, b)
        print("\n".join(diffs) or f"{len(a)} cases match in every field but seconds")
        print("totals: " + "; ".join(f"{p} {totals(c)}" for p, c in zip(args.compare, (a, b))))
        return 1 if diffs else 0
    if not args.out:
        parser.error("give an output file or --compare A B")
    results = {}
    jobs = [(name, run_case, case) for name, *case in cases()]
    jobs += [(name, run_curve, case) for name, *case in curve_cases()]
    for name, run, case in jobs:
        results[name] = run(*case)
        print(f"{name}: {results[name]['seconds']:.2f} s", file=sys.stderr)
    Path(args.out).write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
