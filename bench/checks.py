"""Output checks and independent references for the benchmark's operations.

Every check returns a ``Verdict``: the problems found (empty when the output
is correct), the information values that count toward ``bound_nats_sum`` and
the gaps to a closed-form oracle that count toward ``dsbs_gap_nats``. The
references here are computed by the benchmark itself from first principles;
none of them calls into the library under test.
"""

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

LN2 = math.log(2.0)

#: the solver's default constraint slack, which every report must respect
SLACK = 5e-3
TOL = 1e-9
#: c_gamma must match the benchmark's own water-filling within this (nats)
C_GAMMA_TOL = 1e-9


@dataclass
class Verdict:
    problems: list = field(default_factory=list)
    bounds: list = field(default_factory=list)
    gaps: list = field(default_factory=list)

    def need(self, ok, message):
        if not ok:
            self.problems.append(message)
        return ok


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------

def _plogp(p):
    p = np.asarray(p, dtype=float)
    safe = np.where(p > 0, p, 1.0)
    return np.where(p > 0, p * np.log(safe), 0.0)


def total_correlation(pmf):
    """sum_i H(X_i) - H(X_1..X_M) in nats; I(X;Y) for a 2-D table."""
    pmf = np.asarray(pmf, dtype=float)
    h = 0.0
    for i in range(pmf.ndim):
        marg = pmf.sum(axis=tuple(j for j in range(pmf.ndim) if j != i))
        h -= _plogp(marg).sum()
    return float(h + _plogp(pmf).sum())


def binary_entropy(p):
    return float(-(_plogp(p) + _plogp(1.0 - p)))


def dsbs_wyner(a0):
    """Wyner common information of a DSBS with flip probability a0, in nats."""
    a1 = (1.0 - math.sqrt(1.0 - 2.0 * a0)) / 2.0
    return max(LN2 + binary_entropy(a0) - 2.0 * binary_entropy(a1), 0.0)


def gaussian_info(rho):
    rho = np.asarray(rho, dtype=float)
    return -0.5 * np.log1p(-rho * rho)


def c_gamma_reference(rho, gamma):
    """Relaxed Gaussian common information from canonical correlations.

    Exact water level from sorted cumulative sums (no bisection): the level
    L solves sum_i min(L, I(rho_i)) = gamma, and every component above the
    level contributes the scalar closed form at budget L.
    """
    rho = np.asarray(rho, dtype=float)
    info = gaussian_info(rho)
    if gamma >= info.sum():
        return 0.0
    srt = np.sort(info)
    below = np.concatenate([[0.0], np.cumsum(srt)])
    n = srt.size
    level = 0.0
    for k in range(n):
        level = (gamma - below[k]) / (n - k)
        if level <= srt[k]:
            break
    active = info > level
    if not active.any():
        return 0.0
    r = rho[active]
    s = math.sqrt(-math.expm1(-2.0 * level))
    vals = 0.5 * (np.log1p(r) - np.log1p(-r) + math.log1p(-s) - math.log1p(s))
    return float(np.maximum(vals, 0.0).sum())


# ---------------------------------------------------------------------------
# report readers
# ---------------------------------------------------------------------------

def read_report(path, verdict):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        verdict.problems.append(f"unreadable report {path}: {exc}")
        return None


def read_curve(path, verdict):
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
    except OSError as exc:
        verdict.problems.append(f"unreadable curve {path}: {exc}")
        return None
    if not rows or rows[0] != ["gamma", "c_gamma", "k"]:
        verdict.problems.append(f"curve {path} lacks the gamma,c_gamma,k header")
        return None
    return [(float(g), float(c), int(k)) for g, c, k in rows[1:]]


def _exit_ok(code, verdict):
    return verdict.need(code == 0, f"exit code {code!r}, expected 0")


# ---------------------------------------------------------------------------
# discrete checks
# ---------------------------------------------------------------------------

def check_discrete_report(report, pmf, gamma, verdict, oracle=None):
    """Budget, certified lower bound and coupling normalization of a solve.

    The certified lower bound is max(TC - gamma, 0) / (M - 1), which is
    max(I(X;Y) - gamma, 0) for a pair.
    """
    pmf = np.asarray(pmf, dtype=float)
    ub = float(report["upper_bound"])
    achieved = float(report["achieved_gamma"])
    lower = max(total_correlation(pmf) - gamma, 0.0) / (pmf.ndim - 1)
    verdict.need(
        achieved <= gamma + SLACK,
        f"achieved_gamma {achieved:.6g} exceeds gamma + slack {gamma + SLACK:.6g}",
    )
    verdict.need(ub >= lower - TOL, f"upper bound {ub:.9g} below certified lower bound {lower:.9g}")
    q = np.asarray(report["coupling"]["q_w_given_xy"], dtype=float)
    verdict.need(q.shape[1:] == pmf.shape, f"coupling shape {q.shape} does not extend {pmf.shape}")
    if q.shape[1:] == pmf.shape:
        err = float(np.abs(q.sum(axis=0) - 1.0).max())
        verdict.need(err <= TOL, f"coupling slices deviate from 1 by {err:.3g}")
    verdict.bounds.append(ub)
    if oracle is not None:
        verdict.gaps.append(abs(ub - oracle))


def check_discrete(code, out, pmf, gamma, oracle=None):
    verdict = Verdict()
    if _exit_ok(code, verdict):
        report = read_report(out, verdict)
        if report is not None:
            check_discrete_report(report, pmf, gamma, verdict, oracle)
    return verdict


def check_toy_report(report, a0, verdict):
    """The toy's dependence is the DSBS (B1, C1): I = ln 2 - h(a0)."""
    cica = report["cica"]
    ub = float(cica["upper_bound"])
    achieved = float(cica["achieved_gamma"])
    mi = LN2 - binary_entropy(a0)
    verdict.need(
        achieved <= SLACK, f"achieved_gamma {achieved:.6g} exceeds slack {SLACK:.6g}"
    )
    verdict.need(ub >= mi - TOL, f"upper bound {ub:.9g} below I(X;Y) = {mi:.9g}")
    verdict.need(
        abs(float(report["comparison"]["mutual_information"]) - mi) <= TOL,
        "reported mutual information differs from ln 2 - h(a0)",
    )
    verdict.bounds.append(ub)
    verdict.gaps.append(abs(ub - dsbs_wyner(a0)))


def check_toy(code, out, a0):
    verdict = Verdict()
    if _exit_ok(code, verdict):
        report = read_report(out, verdict)
        if report is not None:
            check_toy_report(report, a0, verdict)
    return verdict


def check_discrete_curve(rows, pmf, grid):
    """Rows (gamma, upper_bound, achieved) of a discrete trade-off curve."""
    verdict = Verdict()
    mi = total_correlation(pmf)
    if not verdict.need(len(rows) == len(grid), f"{len(rows)} curve rows for {len(grid)} points"):
        return verdict
    prev = math.inf
    for (g, ub, achieved), want in zip(rows, grid):
        verdict.need(g == float(want), f"curve gamma {g} is not grid point {want}")
        verdict.need(achieved <= g + SLACK, f"achieved {achieved:.6g} > {g:.6g} + slack")
        verdict.need(ub >= max(mi - g, 0.0) - TOL, f"curve bound {ub:.9g} below I - gamma at {g}")
        verdict.need(ub <= prev + TOL, f"curve bound increases at gamma {g}")
        prev = ub
        verdict.bounds.append(ub)
    return verdict


# ---------------------------------------------------------------------------
# Gaussian checks
# ---------------------------------------------------------------------------

def check_gaussian_report(report, gamma, verdict, rho_true=None):
    """c_gamma against the benchmark's own water-filling of the reported rho.

    With ``rho_true`` (covariance-model inputs) the reported rho must equal
    the generating spectrum, and c_gamma counts toward ``bound_nats_sum``.
    """
    scale = LN2 if report["units"] == "bits" else 1.0
    rho = np.asarray(report["rho"], dtype=float)
    c_nats = float(report["c_gamma"]) * scale
    ref = c_gamma_reference(rho, gamma)
    verdict.need(
        abs(c_nats - ref) <= C_GAMMA_TOL,
        f"c_gamma {c_nats:.12g} nats differs from reference {ref:.12g}",
    )
    if rho_true is not None:
        err = float(np.abs(rho - np.asarray(rho_true)).max())
        verdict.need(err <= 1e-8, f"rho deviates from the generating spectrum by {err:.3g}")
        verdict.bounds.append(c_nats)
    return rho, scale


def check_curve_rows(rows, rho, scale, points, verdict):
    """A trade-off curve is nonincreasing in c_gamma and k and matches the reference."""
    verdict.need(len(rows) == points, f"curve has {len(rows)} rows, expected {points}")
    for (g0, c0, k0), (g1, c1, k1) in zip(rows, rows[1:]):
        verdict.need(g1 >= g0, f"curve gamma decreases at {g1}")
        verdict.need(c1 <= c0, f"curve c_gamma increases at gamma {g1}")
        verdict.need(k1 <= k0, f"curve k increases at gamma {g1}")
    for g, c, _ in rows:
        ref = c_gamma_reference(rho, g * scale)
        if not verdict.need(
            abs(c * scale - ref) <= C_GAMMA_TOL,
            f"curve c_gamma {c * scale:.12g} differs from reference {ref:.12g} at gamma {g}",
        ):
            break


def check_gaussian(code, out, gamma, curve=None, points=None, rho_true=None):
    verdict = Verdict()
    if not _exit_ok(code, verdict):
        return verdict
    report = read_report(out, verdict)
    if report is None:
        return verdict
    rho, scale = check_gaussian_report(report, gamma, verdict, rho_true)
    if curve is not None:
        rows = read_curve(curve, verdict)
        if rows is not None:
            check_curve_rows(rows, rho, scale, points, verdict)
    return verdict


def check_gaussian_curve(rows, rho_true, grid):
    """Library ci_curve rows (gamma, c_gamma, k) against the reference."""
    verdict = Verdict()
    verdict.need(
        [g for g, _, _ in rows] == [float(g) for g in grid], "curve gammas are not the grid"
    )
    check_curve_rows(rows, np.asarray(rho_true), 1.0, len(grid), verdict)
    return verdict


def check_cca(code, out, k, n_rows):
    """Sample CCA: sorted rho in [0, 1) and projections correlated by rho."""
    verdict = Verdict()
    if not _exit_ok(code, verdict):
        return verdict
    report = read_report(out, verdict)
    if report is None:
        return verdict
    rho = np.asarray(report["rho"], dtype=float)
    verdict.need(bool(np.all(np.diff(rho) <= 0)), "rho is not sorted descending")
    verdict.need(bool(rho.min() >= 0 and rho.max() < 1), "rho outside [0, 1)")
    u = np.asarray(report["projections"]["u"], dtype=float)
    v = np.asarray(report["projections"]["v"], dtype=float)
    if not verdict.need(u.shape == (n_rows, k) and v.shape == (n_rows, k), "projection shape"):
        return verdict
    corr = np.array([np.corrcoef(u[:, i], v[:, i])[0, 1] for i in range(k)])
    err = float(np.abs(corr - rho[:k]).max())
    verdict.need(err <= 1e-6, f"projection correlations deviate from rho by {err:.3g}")
    return verdict
