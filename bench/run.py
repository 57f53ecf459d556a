"""Benchmark for cica: CLI wall time, bound quality and per-layer time.

Run from the root of a checkout:

    python3 bench/run.py --workload discrete-long --seed 1 --seconds 30 --trace 0

One process runs one workload as a closed loop: a single caller issues the
workload's operations one after another through ``cica.cli.main(argv)``
in-process (plus two library-only curves), each starting when the previous
one has finished. A warm-up pass is followed by timed passes until
``--seconds`` have elapsed; every pass draws fresh seeded inputs, and every
output is checked. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones. With ``--trace 1``
each pass runs once untraced and once traced (alternating which goes
first), and the metrics are per-layer ones from the traced runs, plus the
tracing overhead.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

#: BLAS pools pinned to one thread so the solver's pool is the only parallelism;
#: set before numpy loads, which the modules below import
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 7
#: the self times of all spans must account for the traced wall time this closely
TRACE_COVERAGE_TOL = 0.05


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class SetupTimer:
    """Wall time of a fresh interpreter importing cica.cli, which every CLI call pays.

    Samples are taken between passes, so that they spread over the run
    instead of landing in one burst of machine noise.
    """

    def __init__(self, root):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(root / "src"), self.env.get("PYTHONPATH")])
        )
        self.root = root
        self.samples = []
        self._once()  # byte-compiles the sources on a fresh checkout

    def _once(self):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", "import cica.cli"], env=self.env, cwd=self.root
        )
        # a blocking wait: Popen.wait with a timeout polls in 50 ms steps
        code = proc.wait()
        elapsed = time.perf_counter() - start
        if code != 0:
            raise RuntimeError(f"`import cica.cli` in a fresh interpreter exited with {code}")
        return elapsed

    def sample(self):
        if len(self.samples) < SETUP_REPEATS:
            self.samples.append(self._once())

    def finish(self):
        while len(self.samples) < SETUP_REPEATS:
            self.samples.append(self._once())
        return self.samples


def execute(op, cli):
    """Run one operation; returns (value, error text or None)."""
    try:
        if op.argv is None:
            return op.call(), None
        try:
            return cli.main(op.argv), None
        except SystemExit as exc:  # argparse usage errors
            return exc.code, None
    except Exception:  # an operation that raises is a failed operation; the loop goes on
        return None, traceback.format_exc(limit=4)


def run_pass(ops, cli, tracer=None):
    """Run the operations back to back; returns (wall, per-op times, results)."""
    times = []
    results = []
    start = time.perf_counter()
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        t0 = time.perf_counter()
        results.append(execute(op, cli))
        times.append(time.perf_counter() - t0)
    return time.perf_counter() - start, times, results


def check_pass(ops, results):
    verdicts = []
    for op, (value, error) in zip(ops, results):
        if error is not None:
            verdicts.append(checks.Verdict(problems=[f"raised:\n{error}"]))
            continue
        try:
            verdicts.append(op.check(value))
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            verdicts.append(checks.Verdict(problems=[f"malformed output: {exc!r}"]))
    return verdicts


class Tally:
    """Operations attempted and failed, with the first few problems kept for the log."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, label, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append((label, problems))

    def add_pass(self, ops, verdicts):
        for op, verdict in zip(ops, verdicts):
            self.add(op.label, verdict.problems)


def rerun_nometa(ops, cli, tally):
    """Rerun the --no-meta operation of a pass: its report must be byte-identical."""
    for op in ops:
        if op.nometa_out is None:
            continue
        before = Path(op.nometa_out).read_bytes()
        value, error = execute(op, cli)
        problems = []
        if error is not None or value != 0:
            problems.append(f"--no-meta rerun failed: {error or value}")
        elif Path(op.nometa_out).read_bytes() != before:
            problems.append("--no-meta rerun wrote a different report")
        tally.add(f"{op.label} (--no-meta rerun)", problems)


def pass_quality(verdicts):
    bounds = sum(sum(v.bounds) for v in verdicts)
    gaps = [g for v in verdicts for g in v.gaps]
    return bounds, max(gaps) if gaps else 0.0


def src_lines(root):
    return sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted((root / "src").rglob("*.py"))
    )


def run_info(root, args):
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "solver_threads": workloads.THREADS,
        "solver_seed": workloads.SOLVER_SEED,
        "src_lines": src_lines(root),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def describe(name, values, unit):
    """Human-readable line: the value and the samples behind it."""
    if len(values) == 1:
        return f"{name}: {values[0]:.6g} {unit} (n=1)"
    return (
        f"{name}: median {statistics.median(values):.6g} {unit} "
        f"(n={len(values)}, min {min(values):.6g}, max {max(values):.6g})"
    )


def measure(args, root, work, cica, tally):
    """Untraced run: samples of each end-to-end metric."""
    cli = cica.cli
    setup = SetupTimer(root)
    ops = workloads.build_pass(args.workload, args.seed, 0, work, cica)
    _, _, results = run_pass(ops, cli)  # warm-up: lazy imports, first-call costs
    tally.add_pass(ops, check_pass(ops, results))
    walls, bounds, per_op = [], [], [[] for _ in ops]
    index = 0
    deadline = time.perf_counter() + args.seconds
    while not walls or time.perf_counter() < deadline:
        index += 1
        ops = workloads.build_pass(args.workload, args.seed, index, work, cica)
        wall, times, results = run_pass(ops, cli)
        verdicts = check_pass(ops, results)
        tally.add_pass(ops, verdicts)
        walls.append(wall)
        bounds.append(pass_quality(verdicts)[0])
        for store, t in zip(per_op, times):
            store.append(t)
        setup.sample()
    rerun_nometa(ops, cli, tally)
    setup = setup.finish()
    print("wall_s per operation:")
    for op, values in zip(ops, per_op):
        print("  " + describe(op.label, values, "s"))
    return {
        "wall_s": walls,
        "setup_s": setup,
        "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0],
        "success_rate": [(tally.attempted - tally.failed) / tally.attempted],
        "bound_nats_sum": bounds,
    }


def measure_traced(args, root, work, cica, tally):
    """Traced run: samples of each per-layer metric, from pairs of untraced and
    traced passes over the same inputs."""
    cli = cica.cli
    tracer = tracing.Tracer()
    ops = workloads.build_pass(args.workload, args.seed, 0, work, cica)
    _, _, results = run_pass(ops, cli)
    tally.add_pass(ops, check_pass(ops, results))
    layers, overheads, gaps, traced_passes = [], [], [], []
    index = 0
    deadline = time.perf_counter() + args.seconds
    while not layers or time.perf_counter() < deadline:
        index += 1
        ops = workloads.build_pass(args.workload, args.seed, index, work, cica)
        walls = {}
        for traced in ((False, True) if index % 2 else (True, False)):
            if traced:
                with tracer.patched():
                    wall, _, results = run_pass(ops, cli, tracer)
            else:
                wall, _, results = run_pass(ops, cli)
            verdicts = check_pass(ops, results)
            tally.add_pass(ops, verdicts)
            walls[traced] = wall
        spans = tracer.take()
        traced_passes.append(spans)
        covered = tracing.covered_by_self_times(spans)
        if abs(covered - walls[True]) > TRACE_COVERAGE_TOL * walls[True]:
            tally.add(
                "trace coverage",
                [f"span self times sum to {covered:.6g} s, traced wall is {walls[True]:.6g} s"],
            )
        layers.append(tracing.layer_metrics(spans))
        overheads.append((walls[True] - walls[False]) / walls[False])
        gaps.append(pass_quality(verdicts)[1])
    rerun_nometa(ops, cli, tally)
    trace_path = work.parent / f"trace-{args.workload}-seed{args.seed}.json"
    tracing.dump(trace_path, traced_passes)
    print(f"spans of {len(traced_passes)} traced passes written to {trace_path.relative_to(root)}")
    print("layer calls, busy s and self s per traced pass (medians):")
    tables = [tracing.span_table(spans) for spans in traced_passes]
    for name in sorted({n for table in tables for n in table}):
        rows = [table.get(name, (0, 0.0, 0.0)) for table in tables]
        calls, busy, own = (statistics.median(col) for col in zip(*rows))
        print(f"  {name}: calls {calls:g}, busy {busy:.6g} s, self {own:.6g} s")
    series = {name: [layer[name] for layer in layers] for name in layers[0]}
    series["quality.dsbs_gap_nats"] = gaps
    series["trace.overhead_frac"] = overheads
    return series


def main(argv=None):
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "cica" / "__init__.py").is_file():
        print(f"bench: no cica sources under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("bench: --seconds must be positive", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(src))
    import cica
    import cica.cli

    if Path(cica.__file__).resolve().parent != (src / "cica").resolve():
        print(f"bench: imported cica from {cica.__file__}, not from {src}", file=sys.stderr)
        return 2
    print("run_info " + json.dumps(run_info(root, args), sort_keys=True))
    work = root / ".bench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    tally = Tally()
    try:
        if args.trace:
            series = measure_traced(args, root, work, cica, tally)
        else:
            series = measure(args, root, work, cica, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = {}
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        values = series[m["name"]]
        print(describe(m["name"], values, m["unit"]))
        metrics[m["name"]] = {"value": statistics.median(values), "unit": m["unit"]}
    print(f"operations: {tally.attempted} attempted, {tally.failed} failed")
    for label, problems in tally.problems:
        print(f"FAILED {label}: " + "; ".join(problems))
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
