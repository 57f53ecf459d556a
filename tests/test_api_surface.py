"""Names that the benchmark tracer and the README tour look up must exist.

bench/tracing.py patches each (module, name) pair in its PATCHES table with a
bare getattr, and the benchmark's own tests are not part of this suite, so a
removed import would otherwise surface only when the benchmark runs traced.
"""

import importlib.util
import re
from pathlib import Path

import pytest

import cica

ROOT = Path(__file__).resolve().parents[1]


def _tracer_patches():
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(mod, attr) for mod, attr, _, _ in module.PATCHES]


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
