"""Smoke test of the benchmark itself.

Run from the root of the repository:

    python3 -m pytest bench/test_smoke.py -q

It checks that one short run emits every metric named in BENCHMARK.json
with its unit, that the output checks flag deliberately corrupted reports,
and that the benchmark refuses to run where the sources are missing.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from cica import cli  # noqa: E402


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize(
    "workload, trace, group",
    [("gaussian", 0, "end_to_end"), ("discrete-short", 1, "per_layer")],
)
def test_every_metric_is_emitted_with_its_unit(workload, trace, group):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in _spec()[group]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
        assert name in proc.stdout.rsplit("\n", 2)[0], f"{name} missing from the readable lines"


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "discrete-short", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.fixture(scope="module")
def dsbs_report(tmp_path_factory):
    """A real report from the CLI for a DSBS at gamma 0."""
    work = tmp_path_factory.mktemp("dsbs")
    pmf = workloads.dsbs_pmf(0.2)
    workloads.write_pmf(work / "p.csv", pmf)
    out = work / "r.json"
    code = cli.main(
        ["discrete", "--pmf", str(work / "p.csv"), "--gamma", "0", *workloads.SOLVER_FLAGS,
         "--out", str(out), "--no-meta"]
    )
    return code, out, pmf


def _corrupt(path, tmp_path, edit):
    report = json.loads(Path(path).read_text(encoding="utf-8"))
    edit(report)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(report), encoding="utf-8")
    return bad


def test_checker_accepts_the_real_report(dsbs_report):
    code, out, pmf = dsbs_report
    verdict = checks.check_discrete(code, out, pmf, 0.0, checks.dsbs_wyner(0.2))
    assert verdict.problems == []
    assert len(verdict.bounds) == 1 and len(verdict.gaps) == 1


@pytest.mark.parametrize(
    "edit",
    [
        lambda r: r.update(achieved_gamma=0.05),  # over budget
        lambda r: r.update(upper_bound=0.0),  # below I(X;Y) - gamma
        lambda r: r["coupling"]["q_w_given_xy"][0][0].__setitem__(0, 0.7),  # slice sum != 1
    ],
    ids=["gamma-over-budget", "bound-below-lower", "coupling-unnormalized"],
)
def test_checker_flags_a_corrupted_discrete_report(dsbs_report, tmp_path, edit):
    code, out, pmf = dsbs_report
    bad = _corrupt(out, tmp_path, edit)
    assert checks.check_discrete(code, bad, pmf, 0.0).problems


def test_checker_flags_a_nonzero_exit(dsbs_report):
    _, out, pmf = dsbs_report
    assert checks.check_discrete(5, out, pmf, 0.0).problems


def test_checker_flags_a_wrong_gaussian_value(tmp_path):
    rho = workloads.spectrum(5, 0.9, 0.7)
    model = workloads.gaussian_model(np.random.default_rng(0), rho)
    workloads.write_cov(tmp_path / "cov.json", model)
    out, curve = tmp_path / "g.json", tmp_path / "g.csv"
    code = cli.main(
        ["gaussian", "--cov", str(tmp_path / "cov.json"), "--gamma", "0.3",
         "--curve", str(curve), "--curve-points", "20", "--out", str(out)]
    )
    assert checks.check_gaussian(code, out, 0.3, curve, 20, rho).problems == []
    bad = _corrupt(out, tmp_path, lambda r: r.update(c_gamma=r["c_gamma"] + 1e-6))
    assert checks.check_gaussian(code, bad, 0.3).problems
    lines = curve.read_text(encoding="utf-8").splitlines()
    lines[1], lines[2] = lines[2], lines[1]  # c_gamma now increases
    curve.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert checks.check_gaussian(code, out, 0.3, curve, 20, rho).problems


def test_c_gamma_reference_matches_the_scalar_closed_form():
    rho, gamma = 0.8, 0.1
    s = np.sqrt(1 - np.exp(-2 * gamma))
    scalar = 0.5 * np.log((1 + rho) * (1 - s) / ((1 - rho) * (1 + s)))
    assert checks.c_gamma_reference([rho], gamma) == pytest.approx(scalar, abs=1e-12)
    assert checks.c_gamma_reference([rho, 0.0], 10.0) == 0.0


def test_self_times_subtract_children():
    spans = [
        tracing.Span(0, None, "cli", 0, 0.0, 10.0),
        tracing.Span(1, 0, "cca.decompose", 0, 1.0, 4.0),
        tracing.Span(2, 1, "whitening.canonical_matrix", 0, 2.0, 3.0),
        tracing.Span(3, 0, "cca.decompose", 0, 5.0, 6.0),
    ]
    assert tracing.self_times(spans) == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}
    assert tracing.covered_by_self_times(spans) == 10.0
    metrics = tracing.layer_metrics(spans)
    assert metrics["cca.decompose_s"] == 4.0 and metrics["cca.decompose_calls"] == 2
    assert metrics["cli.self_s"] == 6.0
