"""Command-line front end: model ingestion, analysis commands, JSON reports.

Exit codes: 0 success; 2 I/O, parse, or usage errors; 3 model validation
errors; 4 perfect correlation (Gaussian analysis); 5 solver failures
(infeasible budget or no convergence), with telemetry on stderr.
"""

import argparse
import csv
import datetime
import json
import sys
import warnings

import numpy as np

from . import __version__
from .cca import _check_k, cca_decompose, cca_project
from .discrete_ci import (
    SolverOptions,
    mutual_information,
    solve_relaxed_wyner,
    solve_relaxed_wyner_multi,  # noqa: F401  (unused here; the benchmark tracer patches it)
    total_correlation,
)
from .errors import CicaError, Infeasible, NoConvergence, PerfectCorrelation
from .estimation import _index_table, estimate_gaussian
from .gaussian_ci import _check_curve_size, _fill, _info, waterfill
from .gaussian_ci import component_count  # noqa: F401  (unused here; the benchmark tracer patches it)
from .model import (
    LN2,
    _check_budget,
    _check_grid,
    _check_indices,
    validate_discrete,
    validate_gaussian,
    validate_multi_discrete,  # noqa: F401  (unused here; the benchmark tracer patches it)
)
from .projections import (
    binary_vector_covariance,
    feature_mutual_information,
    project_discrete_map,
    project_gaussian,
    toy_binary_example,
)

_EXIT_IO = 2
_EXIT_VALIDATION = 3
_EXIT_PERFECT_CORR = 4
_EXIT_SOLVER = 5

_VERSION_FLAGS = {"map": "map", "cond-exp": "cond_exp", "marginal": "marginal"}


# ---------------------------------------------------------------------------
# ingestion helpers
# ---------------------------------------------------------------------------

def _read_csv_matrix(path):
    """Numeric CSV with a mandatory header line; rows are observations.

    numpy's C reader converts each cell with the routine behind ``float()``,
    so the values are bit-identical to parsing every cell with ``float()``.
    """
    with open(path, newline="", encoding="utf-8") as handle:
        handle.readline()
        with warnings.catch_warnings():
            # no data rows is reported below as the usual ValueError
            warnings.simplefilter("ignore", UserWarning)
            data = np.loadtxt(handle, delimiter=",", comments=None, quotechar='"', ndmin=2)
    if data.shape[0] == 0:
        raise ValueError(f"{path}: expected a header row plus data rows")
    return data


def _read_cov_json(path):
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    try:
        return tuple(np.asarray(payload[key], dtype=float) for key in ("k_x", "k_y", "k_xy"))
    except (KeyError, TypeError) as exc:  # TypeError: not an object, or a non-numeric matrix
        raise ValueError(f"{path}: covariance JSON needs numeric matrices k_x, k_y, k_xy") from exc


def _read_pmf_csv(path, multi: bool):
    """Sparse pmf CSV: index columns then a probability column."""
    rows = _read_csv_matrix(path)
    width = rows.shape[1]
    if width < 3 or (not multi and width != 3):
        raise ValueError(
            f"{path}: rows must be symbol indices plus a probability "
            f"({'>= 2' if multi else 'exactly 2'} index columns)"
        )
    idx, prob = rows[:, :-1], rows[:, -1]
    _check_indices(idx, f"{path}: symbol indices")
    return _index_table(idx, tuple(int(m) + 1 for m in idx.max(axis=0)), prob)


#: outer rows of a numeric array encoded per C-encoder call; bounds the writer's working set
_REPORT_BLOCK_ROWS = 512


def _block(items, brackets, level):
    """One ``indent=2`` JSON container at nesting ``level`` from encoded items."""
    if not items:
        return brackets
    pad = "\n" + "  " * (level + 1)
    return brackets[0] + pad + ("," + pad).join(items) + "\n" + "  " * level + brackets[1]


def _nest(tokens, shape, level):
    """Group an array's flat encoded elements axis by axis into nested blocks."""
    if len(shape) == 1:
        return _block(tokens, "[]", level)
    step = len(tokens) // shape[0]
    rows = [_nest(tokens[i : i + step], shape[1:], level + 1) for i in range(0, len(tokens), step)]
    return _block(rows, "[]", level)


def _encode_array(x, level):
    """Pieces of a non-empty numeric array's ``indent=2`` text, one per block of outer rows.

    json's indented encoder is pure Python, so each block is encoded flat by
    its C encoder in one call and then split and nested; the text of the
    whole array is never held at once.
    """
    pad = "\n" + "  " * (level + 1)
    opening = "["
    for start in range(0, x.shape[0], _REPORT_BLOCK_ROWS):
        block = x[start : start + _REPORT_BLOCK_ROWS]
        items = json.dumps(block.ravel().tolist())[1:-1].split(", ")
        if x.ndim > 1:
            step = len(items) // block.shape[0]
            items = [_nest(items[i : i + step], x.shape[1:], level + 1)
                     for i in range(0, len(items), step)]
        yield opening + pad + ("," + pad).join(items)
        opening = ","
    yield "\n" + "  " * level + "]"


def _encode(x, level=0):
    """Pieces of ``json.dumps(x, indent=2, sort_keys=True)``, x string-keyed with numpy values.

    Arrays are written as nested lists and numpy scalars as Python numbers;
    joined, the pieces are exactly json's text. A numeric array comes in
    pieces of _REPORT_BLOCK_ROWS outer rows (_encode_array).
    """
    if isinstance(x, np.ndarray):
        if x.size and x.ndim and x.dtype.kind in "biuf":
            yield from _encode_array(x, level)
            return
        x = x.tolist()  # empty arrays keep their nesting, e.g. [[], [], []]
    if isinstance(x, dict):
        brackets, items = "{}", [(json.dumps(k) + ": ", v) for k, v in sorted(x.items())]
    elif isinstance(x, (list, tuple)):
        brackets, items = "[]", [("", v) for v in x]
    else:
        yield json.dumps(x.item() if isinstance(x, np.generic) else x)
        return
    if not items:
        yield brackets
        return
    pad = "\n" + "  " * (level + 1)
    opening = brackets[0]
    for key, value in items:
        yield opening + pad + key
        yield from _encode(value, level + 1)
        opening = ","
    yield "\n" + "  " * level + brackets[1]


def _write_report(path, report: dict, no_meta: bool):
    """Write report as ``indent=2`` JSON, streaming _encode's pieces to the file.

    The report is complete before the file is opened, so an input error
    writes nothing; a numeric array is never held as text whole.
    """
    if not no_meta:
        report = dict(report)
        report["meta"] = {
            "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "tool": f"cica {__version__}",
        }
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(_encode(report))
        handle.write("\n")


def _scale(value, units):
    return value / LN2 if units == "bits" else value


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _load_gaussian_model(args, parser):
    has_samples = args.x is not None and args.y is not None
    has_cov = args.cov is not None
    if has_samples == has_cov:
        parser.print_usage(sys.stderr)
        print(
            f"{parser.prog}: provide either --x/--y sample CSVs or a --cov JSON, not both",
            file=sys.stderr,
        )
        raise SystemExit(_EXIT_IO)
    if has_cov:
        k_x, k_y, k_xy = _read_cov_json(args.cov)
        return validate_gaussian(k_x, k_y, k_xy), None, None
    x = _read_csv_matrix(args.x)
    y = _read_csv_matrix(args.y)
    joint = estimate_gaussian(x, y, ridge=args.ridge)
    return joint, x, y


def cmd_cca(args, parser) -> int:
    joint, x, y = _load_gaussian_model(args, parser)
    basis = cca_decompose(joint)
    _check_k(args.k, basis.n_components)
    report = {
        "rho": basis.rho,
        "u_k": basis.u[:, : args.k],
        "v_k": basis.v[:, : args.k],
        "k": args.k,
        "units": "nats",
    }
    if x is not None:
        # centred in place: the same arithmetic as x - x.mean(axis=0), without a second copy
        x -= x.mean(axis=0)
        y -= y.mean(axis=0)
        u_feat, v_feat = cca_project(basis, args.k, x, y)
        report["projections"] = {"u": u_feat, "v": v_feat}
    _write_report(args.out, report, args.no_meta)
    return 0


def cmd_gaussian_cica(args, parser) -> int:
    joint, _, _ = _load_gaussian_model(args, parser)
    units = args.units
    version = _VERSION_FLAGS[args.version]
    basis = cca_decompose(joint)
    # checked here so that a bad budget is reported as gamma, not waterfill's gamma_total
    alloc = waterfill(basis.rho, _check_budget(args.gamma))
    k = alloc.active_count
    proj = project_gaussian(basis, k, version)
    # a sum in order, as per-component sums were; numpy's pairwise sum would change the bits
    total_info = sum(_info(basis.rho).tolist())
    report = {
        "gamma": _scale(args.gamma, units),
        "c_gamma": _scale(float(alloc.c_gamma), units),
        "k": k,
        "gamma_i": _scale(alloc.gamma_i, units),
        "water_level": _scale(alloc.water_level, units),
        "rho": basis.rho,
        "total_mutual_information": _scale(total_info, units),
        "version": version,
        "u_map": proj.u_of_x,
        "v_map": proj.v_of_y,
        "component_scale": proj.scale,
        "units": units,
    }
    if k == 0:
        report["warnings"] = [
            "gamma is at or above the total mutual information; "
            "no components are retained and the projection maps are empty"
        ]
    if args.curve is not None:
        _check_curve_size(args.curve_points, basis.rho.size)
        grid = _check_grid(np.linspace(0.0, max(total_info, args.gamma), args.curve_points))
        _, _, curve_c, ks = _fill(basis.rho, grid)
        with open(args.curve, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["gamma", "c_gamma", "k"])
            writer.writerows(
                [repr(_scale(float(g), units)), repr(_scale(float(c), units)), int(kk)]
                for g, c, kk in zip(grid, curve_c, ks)
            )
    _write_report(args.out, report, args.no_meta)
    return 0


def _solver_options(args) -> SolverOptions:
    kwargs = dict(seed=args.seed)
    for name in ("card_w", "restarts", "threads"):
        if getattr(args, name) is not None:
            kwargs[name] = getattr(args, name)
    return SolverOptions(**kwargs)


def cmd_discrete_cica(args, parser) -> int:
    joint = validate_discrete(_read_pmf_csv(args.pmf, multi=args.multi))
    coupling, rep = solve_relaxed_wyner(joint, args.gamma, _solver_options(args))
    baseline = float(total_correlation(joint))
    proj = project_discrete_map(coupling)
    features = {"per_source_map": list(proj.maps), "per_source_ties": list(proj.ties)}
    if joint.pmf.ndim == 2:
        features.update(u=proj.u_of_x, v=proj.v_of_y, u_ties=proj.ties[0], v_ties=proj.ties[1])
    report = {
        "gamma": args.gamma,
        "upper_bound": float(rep.objective),
        "achieved_gamma": float(rep.achieved_gamma),
        "total_dependence": baseline,
        "lambda": rep.lam,
        "iterations": rep.iterations,
        "restarts_used": rep.restarts_used,
        "converged": rep.converged,
        "seed": args.seed,
        "card_w": coupling.card_w,
        "coupling": {"q_w_given_xy": coupling.q_w_given_xy, "q_w": coupling.q_w},
        "map_features": features,
        "units": "nats",
        "value_is_upper_bound": True,
    }
    _write_report(args.out, report, args.no_meta)
    return 0


def cmd_toy(args, parser) -> int:
    joint = toy_binary_example(args.a0)
    k_x, k_y, k_xy = binary_vector_covariance(joint)
    gauss = validate_gaussian(k_x, k_y, k_xy)
    basis = cca_decompose(gauss)
    opts = _solver_options(args)
    coupling, rep = solve_relaxed_wyner(joint, 0.0, opts)
    proj = project_discrete_map(coupling)
    feat_mi = float(feature_mutual_information(joint, *proj.maps))
    report = {
        "a0": args.a0,
        "pmf": joint.pmf,
        "covariance": {"k_x": k_x, "k_y": k_y, "k_xy": k_xy},
        "cca": {"rho": basis.rho, "max_rho": float(basis.rho.max(initial=0.0))},
        "cica": {
            "gamma": 0.0,
            "upper_bound": float(rep.objective),
            "achieved_gamma": float(rep.achieved_gamma),
            "u": proj.u_of_x,
            "v": proj.v_of_y,
            "feature_mutual_information": feat_mi,
        },
        "comparison": {
            "mutual_information": float(mutual_information(joint)),
            "cca_sees": float(basis.rho.max(initial=0.0)),
            "cica_features_capture": feat_mi,
        },
        "seed": args.seed,
        "units": "nats",
        "value_is_upper_bound": True,
    }
    _write_report(args.out, report, args.no_meta)
    return 0


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------

def _add_common(p):
    p.add_argument("--out", required=True, help="output JSON report path")
    p.add_argument(
        "--no-meta",
        action="store_true",
        help="omit the timestamped meta block (byte-identical reruns)",
    )


def _add_gaussian_inputs(p):
    p.add_argument("--x", help="CSV of x observations (header row required)")
    p.add_argument("--y", help="CSV of y observations (header row required)")
    p.add_argument("--cov", help='covariance JSON {"k_x": .., "k_y": .., "k_xy": ..}')
    p.add_argument("--ridge", type=float, default=None, help="ridge added to k_x and k_y")


def _add_solver_flags(p):
    p.add_argument("--card-w", type=int, default=None, help="latent alphabet size")
    p.add_argument("--seed", type=int, default=0, help="seed for all solver randomness")
    p.add_argument("--restarts", type=int, default=None, help="random restarts per multiplier")
    p.add_argument(
        "--threads",
        type=int,
        default=None,
        help="accepted for compatibility and must be >= 1; every solve runs as one batch",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cica",
        description="Common information components analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cca", help="canonical correlation analysis")
    _add_gaussian_inputs(p)
    p.add_argument("-k", type=int, required=True, help="number of components")
    _add_common(p)

    p = sub.add_parser("gaussian", help="Gaussian common-information analysis")
    _add_gaussian_inputs(p)
    p.add_argument("--gamma", type=float, required=True, help="compression level (nats)")
    p.add_argument(
        "--version",
        choices=sorted(_VERSION_FLAGS),
        default="cond-exp",
        help="projection rule",
    )
    p.add_argument("--units", choices=["nats", "bits"], default="nats")
    p.add_argument("--curve", default=None, help="also write a trade-off curve CSV here")
    p.add_argument("--curve-points", type=int, default=33, help="points on the curve grid")
    _add_common(p)

    p = sub.add_parser("discrete", help="discrete common-information solver")
    p.add_argument("--pmf", required=True, help="pmf CSV: index columns then probability")
    p.add_argument("--gamma", type=float, required=True, help="relaxation budget (nats)")
    p.add_argument(
        "--multi",
        action="store_true",
        help="M-source mode: constraint sum_i H(X_i|W) - H(X_1..X_M|W) <= gamma",
    )
    _add_solver_flags(p)
    _add_common(p)

    p = sub.add_parser("toy", help="binary toy example where CCA sees nothing")
    p.add_argument("--a0", type=float, required=True, help="DSBS flip probability")
    _add_solver_flags(p)
    # the toy's optimum needs only two latent symbols; 4 adds headroom
    p.set_defaults(card_w=4)
    _add_common(p)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "cca": cmd_cca,
        "gaussian": cmd_gaussian_cica,
        "discrete": cmd_discrete_cica,
        "toy": cmd_toy,
    }
    try:
        return handlers[args.command](args, parser)
    except (Infeasible, NoConvergence) as exc:
        print(f"cica: solver failed: {exc}", file=sys.stderr)
        details = getattr(exc, "details", None)
        if details:
            print(f"cica: telemetry: {json.dumps(details, sort_keys=True)}", file=sys.stderr)
        return _EXIT_SOLVER
    except PerfectCorrelation as exc:
        print(f"cica: {exc}", file=sys.stderr)
        return _EXIT_PERFECT_CORR if args.command == "gaussian" else _EXIT_VALIDATION
    except CicaError as exc:
        print(f"cica: {exc}", file=sys.stderr)
        return _EXIT_VALIDATION
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"cica: {exc}", file=sys.stderr)
        return _EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
