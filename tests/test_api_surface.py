"""Names that the benchmark tracer and the README tour look up must exist.

bench/tracing.py patches each (module, name) pair in its PATCHES table with a
bare getattr, and the benchmark's own tests are not part of this suite, so a
removed import would otherwise surface only when the benchmark runs traced.
The library's own checks must also survive ``python -O``.
"""

import ast
import dataclasses
import functools
import importlib.util
import json
import re
import shlex
from pathlib import Path

import pytest

import cica
from cica import cli

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "cica").glob("*.py"))


@functools.cache
def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tracer_patches():
    return [(mod, attr) for mod, attr, _, _ in _tracing().PATCHES]


@pytest.mark.parametrize("module, attr", _tracer_patches())
def test_tracer_patch_targets_resolve(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))


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
    tracer = _tracing().Tracer()
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
