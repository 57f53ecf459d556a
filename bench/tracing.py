"""Spans around the library's layers, recorded from the benchmark's own files.

Tracing wraps the public functions of each module and patches every name
where its callers look it up (``cica.cli.solve_relaxed_wyner``,
``cica.gaussian_ci.cca_decompose``, ...), so no program file changes. Spans
stay in memory; ``Tracer.dump`` writes them out when the run ends.
"""

import functools
import importlib
import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    op: int
    start: float
    end: float
    attrs: dict = field(default_factory=dict)


def _solve_attrs(result):
    report = result[1]
    return {"restarts_used": int(report.restarts_used), "iterations": int(report.iterations)}


SOLVE = "discrete_ci.solve"
CLI = "cli"

#: (module, attribute looked up by callers, span name, attrs read from the result)
PATCHES = [
    ("cica.cli", "main", CLI, None),
    ("cica.cli", "solve_relaxed_wyner", SOLVE, _solve_attrs),
    ("cica.cli", "solve_relaxed_wyner_multi", SOLVE, _solve_attrs),
    ("cica.discrete_ci", "ci_curve_discrete", "discrete_ci.curve", None),
    ("cica.discrete_ci", "build_coupling", "discrete_ci.coupling", None),
    ("cica.cli", "mutual_information", "discrete_ci.functionals", None),
    ("cica.cli", "total_correlation", "discrete_ci.functionals", None),
    ("cica.cli", "feature_mutual_information", "discrete_ci.functionals", None),
    ("cica.discrete_ci", "mutual_information", "discrete_ci.functionals", None),
    ("cica.discrete_ci", "latent_mutual_information", "discrete_ci.functionals", None),
    ("cica.cli", "waterfill", "gaussian_ci.waterfill", None),
    ("cica.gaussian_ci", "waterfill", "gaussian_ci.waterfill", None),
    ("cica.projections", "waterfill", "gaussian_ci.waterfill", None),
    ("cica.cli", "component_count", "gaussian_ci.component_count", None),
    ("cica.gaussian_ci", "component_count", "gaussian_ci.component_count", None),
    ("cica.projections", "component_count", "gaussian_ci.component_count", None),
    ("cica.gaussian_ci", "ci_curve", "gaussian_ci.ci_curve", None),
    ("cica.cli", "cca_decompose", "cca.decompose", None),
    ("cica.gaussian_ci", "cca_decompose", "cca.decompose", None),
    ("cica.projections", "cca_decompose", "cca.decompose", None),
    ("cica.cli", "cca_project", "cca.project", None),
    ("cica.cca", "canonical_matrix", "whitening.canonical_matrix", None),
    ("cica.cli", "project_gaussian", "projections.gaussian", None),
    ("cica.cli", "project_discrete_map", "projections.discrete_map", None),
    ("cica.cli", "estimate_gaussian", "estimation.estimate", None),
    ("cica.cli", "validate_gaussian", "model.validate", None),
    ("cica.cli", "validate_discrete", "model.validate", None),
    ("cica.cli", "validate_multi_discrete", "model.validate", None),
    ("cica.estimation", "validate_gaussian", "model.validate", None),
    ("cica.projections", "validate_discrete", "model.validate", None),
    ("cica.model", "validate_gaussian", "model.validate", None),
    ("cica.model", "validate_discrete", "model.validate", None),
]


class Tracer:
    """In-memory span recorder; one stack of open spans per thread."""

    def __init__(self):
        self.spans = []
        self.op = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, attrs_of=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = Span(next(self._ids), stack[-1] if stack else None, name, self.op, 0.0, 0.0)
            stack.append(span.id)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if attrs_of is not None:
                    span.attrs = attrs_of(result)
                return result
            finally:
                span.end = time.perf_counter()
                stack.pop()
                with self._lock:
                    self.spans.append(span)

        return traced

    @contextmanager
    def patched(self):
        """Patch every traced name for the duration of the block."""
        originals = [
            (importlib.import_module(mod), attr) for mod, attr, _, _ in PATCHES
        ]
        saved = [(module, attr, getattr(module, attr)) for module, attr in originals]
        try:
            for (module, attr, fn), (_, _, name, attrs_of) in zip(saved, PATCHES):
                setattr(module, attr, self.wrap(name, fn, attrs_of))
            yield self
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)

    def take(self):
        """Return the spans recorded so far and start a new list."""
        with self._lock:
            spans, self.spans = self.spans, []
        return spans


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total = 0.0
    end = float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans):
    """Span id -> duration minus the part of it that child spans cover."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - _covered(children.get(s.id, [])) for s in spans
    }


def _outermost(spans):
    """Spans with no ancestor of the same name, so nested calls count once."""
    by_id = {s.id: s for s in spans}
    out = []
    for s in spans:
        parent = by_id.get(s.parent)
        while parent is not None and parent.name != s.name:
            parent = by_id.get(parent.parent)
        if parent is None:
            out.append(s)
    return out


def layer_metrics(spans):
    """Per-layer busy time (nested same-layer calls counted once) and calls."""
    busy = {}
    calls = {}
    for s in _outermost(spans):
        busy[s.name] = busy.get(s.name, 0.0) + (s.end - s.start)
    for s in spans:
        calls[s.name] = calls.get(s.name, 0) + 1
    selfs = self_times(spans)
    cli_self = sum(selfs[s.id] for s in spans if s.name == CLI)
    solves = [s for s in spans if s.name == SOLVE]
    runs = sum(s.attrs.get("restarts_used", 0) for s in solves)
    solve_s = busy.get(SOLVE, 0.0)

    def t(name):
        return busy.get(name, 0.0)

    def n(name):
        return calls.get(name, 0)

    return {
        "discrete_ci.solve_s": solve_s,
        "discrete_ci.solves": len(solves),
        "discrete_ci.sweep_runs": runs,
        "discrete_ci.runs_per_s": runs / solve_s if solve_s > 0 else 0.0,
        "discrete_ci.selected_iterations": sum(s.attrs.get("iterations", 0) for s in solves),
        "discrete_ci.curve_s": t("discrete_ci.curve"),
        "discrete_ci.coupling_s": t("discrete_ci.coupling"),
        "discrete_ci.functionals_s": t("discrete_ci.functionals"),
        "gaussian_ci.waterfill_s": t("gaussian_ci.waterfill"),
        "gaussian_ci.waterfill_calls": n("gaussian_ci.waterfill"),
        "gaussian_ci.component_count_s": t("gaussian_ci.component_count"),
        "gaussian_ci.component_count_calls": n("gaussian_ci.component_count"),
        "gaussian_ci.ci_curve_s": t("gaussian_ci.ci_curve"),
        "cca.decompose_s": t("cca.decompose"),
        "cca.decompose_calls": n("cca.decompose"),
        "cca.project_s": t("cca.project"),
        "whitening.canonical_matrix_s": t("whitening.canonical_matrix"),
        "whitening.canonical_matrix_calls": n("whitening.canonical_matrix"),
        "projections.gaussian_s": t("projections.gaussian"),
        "projections.gaussian_calls": n("projections.gaussian"),
        "projections.discrete_map_s": t("projections.discrete_map"),
        "estimation.estimate_s": t("estimation.estimate"),
        "model.validate_s": t("model.validate"),
        "model.validate_calls": n("model.validate"),
        "cli.self_s": cli_self,
    }


def span_table(spans):
    """name -> (calls, busy seconds, self seconds) for the human-readable dump."""
    selfs = self_times(spans)
    table = {}
    for s in spans:
        calls, busy, own = table.get(s.name, (0, 0.0, 0.0))
        table[s.name] = (calls + 1, busy, own + selfs[s.id])
    for s in _outermost(spans):
        calls, busy, own = table[s.name]
        table[s.name] = (calls, busy + s.end - s.start, own)
    return table


def covered_by_self_times(spans):
    """Sum of self times over all spans: the time the top-level spans cover."""
    return sum(self_times(spans).values())


def dump(path, passes):
    """Write every traced pass's spans as JSON."""
    payload = [[asdict(s) for s in spans] for spans in passes]
    path.write_text(json.dumps(payload), encoding="utf-8")
