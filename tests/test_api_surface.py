"""Names that the benchmark tracer and the README tour look up must exist.

bench/tracing.py patches each (module, name) pair in its PATCHES table with a
bare getattr, and the benchmark's own tests are not part of this suite, so a
removed import would otherwise surface only when the benchmark runs traced.
bench/checks.py holds its own copy of the solver's slack, which must agree,
and its output checks must pass on the library's outputs for the benchmark's
own inputs. The library's own checks must also survive ``python -O``.
"""

import ast
import dataclasses
import functools
import importlib.util
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

import cica
from cica import cli, discrete_ci

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "cica").glob("*.py"))


@functools.cache
def _bench(name):
    """The module bench/<name>.py, loaded by file path."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tracer_patches():
    return [(mod, attr) for mod, attr, _, _ in _bench("tracing").PATCHES]


@pytest.mark.parametrize("module, attr", _tracer_patches())
def test_tracer_patch_targets_resolve(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))


def test_bench_checks_use_the_solver_slack():
    # a report passes the benchmark's checks only if its achieved gamma is within
    # the slack that the solver itself accepts
    assert _bench("checks").SLACK == discrete_ci._SLACK


#: the benchmark's solver flags and its fixed inputs, unrelabeled
BENCH_FLAGS = ["--threads", "2", "--seed", "7"]


def test_bench_checks_pass_on_the_discrete_curve():
    grid = np.linspace(0.0, 0.36, 9)
    joint = cica.dsbs_joint(0.1)
    rows = cica.ci_curve_discrete(joint, grid, cica.SolverOptions(seed=7, threads=2))
    assert _bench("checks").check_discrete_curve(rows, joint.pmf, grid).problems == []


def test_bench_checks_pass_on_the_discrete_report(tmp_path):
    # the discrete-long 4x4 base, Dirichlet(0.5) of generator seed 2, at gamma 0.05
    pmf = np.random.default_rng(2).dirichlet(np.full(16, 0.5)).reshape(4, 4)
    path, out = tmp_path / "long.csv", tmp_path / "long.json"
    path.write_text("x,y,p\n" + "".join(
        f"{x},{y},{float(pmf[x, y])!r}\n" for x, y in np.ndindex(*pmf.shape)))
    code = cli.main(["discrete", "--pmf", str(path), "--gamma", "0.05", *BENCH_FLAGS,
                     "--out", str(out)])
    assert _bench("checks").check_discrete(code, out, pmf, 0.05).problems == []


def test_bench_checks_pass_on_the_toy_report(tmp_path):
    out = tmp_path / "toy17.json"
    code = cli.main(["toy", "--a0", "0.1", "--card-w", "17", *BENCH_FLAGS, "--out", str(out)])
    assert _bench("checks").check_toy(code, out, 0.1).problems == []


@pytest.mark.parametrize("name", ["discrete-long", "discrete-short", "gaussian"])
def test_bench_workload_pass_is_correct(monkeypatch, tmp_path, name):
    # one pass of each benchmark workload as bench/run.py runs it: every output
    # meets its own check, and every --no-meta report reruns to the same bytes
    monkeypatch.syspath_prepend(str(ROOT / "bench"))  # workloads imports checks by bare name
    ops = _bench("workloads").build_pass(name, 0, 0, tmp_path, cica)
    for op in ops:
        value = op.call() if op.argv is None else cli.main(op.argv)
        assert op.check(value).problems == [], op.label
    for op in ops:
        if op.nometa_out is not None:
            before = Path(op.nometa_out).read_bytes()
            assert cli.main(op.argv) == 0
            assert Path(op.nometa_out).read_bytes() == before, op.label


def test_aliases_not_exported():
    # the package exports the M-source names; the aliases stay in their modules
    # only for the tracer, which the patch-target test above checks
    for name in ("solve_relaxed_wyner_multi", "validate_multi_discrete", "mutual_information"):
        assert name not in cica.__all__ and not hasattr(cica, name)


def test_readme_tour_names_are_exported():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = readme[readme.index("## Library quick tour"):readme.index("## Command line")]
    names = set(re.findall(r"\bcica\.([A-Za-z_]\w*)", tour))
    assert names
    missing = sorted(n for n in names if n not in cica.__all__ or not hasattr(cica, n))
    assert not missing


def test_readme_command_lines_parse():
    # a renamed or dropped flag fails here instead of leaving the README stale
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line.strip() for line in block.replace("\\\n", " ").splitlines()]
    commands = [shlex.split(line, comments=True) for line in lines if line.startswith("cica ")]
    assert commands
    parser = cli.build_parser()
    for argv in commands:
        parser.parse_args(argv[1:])


def test_readme_names_every_solver_option():
    # a removed knob must leave the README, and a new one must enter it
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    fields = {f.name for f in dataclasses.fields(cica.SolverOptions)}
    assert sorted(f for f in fields if f"`{f}`" not in readme) == []
    assert sorted(set(re.findall(r"\bSolverOptions\.(\w+)", readme)) - fields) == []


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_unread_imports_are_tracer_targets(path):
    # an import that the module never reads is kept only so the tracer can patch it
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    patched = {attr for mod, attr in _tracer_patches() if mod == f"cica.{path.stem}"}
    assert sorted(imported - read - patched) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # python -O strips assert statements, so an invariant must raise on its own
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)] == []


def test_library_never_warns():
    # the library reports through typed errors, never a Python warning on stderr
    calls = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and (
                isinstance(node.func, ast.Attribute) and node.func.attr == "warn"
                or isinstance(node.func, ast.Name) and node.func.id == "warn"
            ):
                calls.append(f"{path.name}:{node.lineno}")
    assert calls == []


def test_gaussian_cli_traces_waterfill_layer(tmp_path):
    cov = tmp_path / "cov.json"
    cov.write_text(
        json.dumps({"k_x": [[1.0, 0.0], [0.0, 1.0]], "k_y": [[1.0, 0.0], [0.0, 1.0]],
                    "k_xy": [[0.8, 0.0], [0.0, 0.5]]})
    )
    tracer = _bench("tracing").Tracer()
    with tracer.patched():
        code = cli.main(["gaussian", "--cov", str(cov), "--gamma", "0.1",
                         "--out", str(tmp_path / "r.json"), "--no-meta"])
    assert code == 0
    names = [span.name for span in tracer.take()]
    assert {"whitening.canonical_matrix", "projections.gaussian"} <= set(names)
    # the report's k is the allocation's active_count: one fill, no component_count
    assert names.count("gaussian_ci.waterfill") == 1
    assert "gaussian_ci.component_count" not in names


def test_every_error_type_is_raised():
    # an error type that no module raises is dead surface, e.g. one whose check moved elsewhere
    errors = cica.errors
    raised = set()
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None))
    defined = {
        name for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, errors.CicaError)
    } - {"CicaError"}
    assert sorted(defined - raised) == []
