"""Numerical solver for relaxed Wyner common information on finite alphabets.

The constrained problem min I(X,Y;W) s.t. I(X;Y|W) <= gamma is nonconvex in
the coupling p(w|x,y), so the solver sweeps a Lagrange multiplier over a
geometric grid and minimizes F = I(X,Y;W) + lambda I(X;Y|W) for each value
by exponentiated multiplicative updates on the simplex slices of p(w|x,y),
with several random restarts per multiplier. Every run yields an achievable
(I(X;Y|W), I(X,Y;W)) point; the returned objective is an upper bound picked
from that cloud. The same engine covers M >= 2 sources with the relaxation
functional sum_i H(X_i|W) - H(X_1..X_M|W), which reduces to I(X;Y|W) for
M = 2.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import xlogy

from .errors import (
    A0OutOfRange,
    Infeasible,
    InvalidCoupling,
    NegativeMass,
    NoConvergence,
    NotNormalized,
    TooLarge,
)
from .model import (
    LN2,
    DiscreteJoint,
    InfoValue,
    _frozen_array,
    source_marginals,
    validate_discrete,
)

_TINY = 1e-300
# step-size schedule: doubled after every accepted step, halved on backtrack;
# the high ceiling lets runs cross the flat tail near a Lagrangian optimum
_ETA_INIT = 0.5
_ETA_GROWTH = 2.0
_ETA_MAX = 1e6
_ETA_FLOOR = 1e-12


# ---------------------------------------------------------------------------
# exact information functionals
# ---------------------------------------------------------------------------

def entropy(pmf) -> InfoValue:
    """Shannon entropy in nats, with 0 ln 0 = 0."""
    p = np.asarray(pmf, dtype=float)
    if p.size == 0:
        raise NotNormalized("empty pmf")
    if p.min() < -1e-14:
        raise NegativeMass(f"pmf has entry {p.min():.3e} < -1e-14")
    p = np.maximum(p, 0.0)
    if abs(p.sum() - 1.0) > 1e-12:
        raise NotNormalized(f"pmf sums to {p.sum()!r}, expected 1 within 1e-12")
    return InfoValue(float(-xlogy(p, p).sum()))


def _total_correlation(table) -> float:
    """sum_i H(X_i) - H(X_1..X_M) of a joint table, in nats."""
    h_marg = 0.0
    for m in source_marginals(table):
        h_marg -= xlogy(m, m).sum()
    return float(h_marg + xlogy(table, table).sum())


def total_correlation(joint: DiscreteJoint) -> InfoValue:
    """sum_i H(X_i) - H(X_1..X_M) in nats; this is I(X;Y) for two sources."""
    return InfoValue(_total_correlation(joint.pmf))


mutual_information = total_correlation


def dsbs_wyner(a0: float) -> InfoValue:
    """Closed-form Wyner common information of a DSBS with flip probability a0.

    The source formula is stated in bits and converted to nats here.
    """
    a0 = float(a0)
    if not 0.0 <= a0 <= 0.5:
        raise A0OutOfRange(f"a0 must lie in [0, 1/2], got {a0}")

    def hb_bits(p):
        return float(-(xlogy(p, p) + xlogy(1.0 - p, 1.0 - p)) / LN2)

    a1 = (1.0 - math.sqrt(1.0 - 2.0 * a0)) / 2.0
    bits = 1.0 + hb_bits(a0) - 2.0 * hb_bits(a1)
    return InfoValue(max(bits, 0.0) * LN2)


def dsbs_joint(a0: float) -> DiscreteJoint:
    """The 2x2 joint pmf of a doubly symmetric binary source."""
    a0 = float(a0)
    if not 0.0 <= a0 <= 0.5:
        raise A0OutOfRange(f"a0 must lie in [0, 1/2], got {a0}")
    return validate_discrete([[(1 - a0) / 2, a0 / 2], [a0 / 2, (1 - a0) / 2]])


# ---------------------------------------------------------------------------
# couplings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Coupling:
    """Conditional distribution p(w | x_1..x_M) with its induced marginals."""

    card_w: int
    q_w_given_xy: np.ndarray  # shape (card_w, *cards)
    q_w: np.ndarray
    q_w_given_sources: tuple
    joint_ref: object

    @property
    def q_w_given_x(self) -> np.ndarray:
        return self.q_w_given_sources[0]

    @property
    def q_w_given_y(self) -> np.ndarray:
        return self.q_w_given_sources[1]


def _induced_marginals(q, pmf, lead: int = 1):
    """Marginal q(w) and per-source conditionals q(w|x_i) from q(w|cells).

    q carries ``lead`` leading axes (a batch of runs, then the latent
    symbol) in front of the source axes of pmf; q(w) keeps all of them.
    """
    joint_w = q * pmf
    qw = joint_w.sum(axis=tuple(range(lead, joint_w.ndim)))
    per_source = [
        np.where(p_i > 0, num / np.maximum(p_i, _TINY), 0.0)
        for num, p_i in zip(source_marginals(joint_w, lead=lead), source_marginals(pmf))
    ]
    return qw, per_source


def build_coupling(q_w_given_xy, joint) -> Coupling:
    """Validate a conditional table against a joint model and attach marginals."""
    q = np.asarray(q_w_given_xy, dtype=float)
    pmf = joint.pmf
    if q.ndim != pmf.ndim + 1 or q.shape[1:] != pmf.shape:
        raise InvalidCoupling(
            f"conditional table shape {q.shape} does not extend joint shape {pmf.shape}"
        )
    card_w = q.shape[0]
    bound = int(np.prod(pmf.shape)) + 1
    if card_w > bound:
        raise InvalidCoupling(f"card_w={card_w} exceeds the cardinality bound {bound}")
    if q.min() < 0:
        raise InvalidCoupling(f"conditional table has negative entry {q.min():.3e}")
    err = np.abs(q.sum(axis=0) - 1.0).max()
    if err > 1e-10:
        raise InvalidCoupling(f"conditional slices deviate from 1 by {err:.2e} > 1e-10")
    qw, per_source = _induced_marginals(q, pmf)
    return Coupling(
        card_w=card_w,
        q_w_given_xy=_frozen_array(q),
        q_w=_frozen_array(qw),
        q_w_given_sources=tuple(_frozen_array(c) for c in per_source),
        joint_ref=joint,
    )


def latent_mutual_information(c: Coupling) -> InfoValue:
    """Exact I(X_1..X_M; W) = H(W) - H(W | X_1..X_M) of a coupling."""
    pmf = c.joint_ref.pmf
    h_w = -xlogy(c.q_w, c.q_w).sum()
    h_w_cells = -(xlogy(c.q_w_given_xy, c.q_w_given_xy) * pmf[None]).sum()
    return InfoValue(float(h_w - h_w_cells))


def relaxation_given_w(c: Coupling) -> InfoValue:
    """Exact sum_i H(X_i|W) - H(X_1..X_M|W); this is I(X;Y|W) for pairs."""
    pwxy = c.q_w_given_xy * c.joint_ref.pmf[None]
    total = 0.0
    for w in range(c.card_w):
        mass = pwxy[w].sum()
        if mass <= 0:
            continue
        total += mass * _total_correlation(pwxy[w] / mass)
    return InfoValue(total)


conditional_mi_given_w = relaxation_given_w


# ---------------------------------------------------------------------------
# solver configuration and telemetry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolverOptions:
    """Tuning knobs for the Lagrangian sweep; defaults suit alphabets <= 8x8.

    All randomness flows from ``seed``. ``threads`` shards the independent
    runs across a thread pool; results do not depend on the thread count.
    """

    card_w: int | None = None
    lambda_min: float = 0.05
    lambda_grid_max: float = 50.0
    n_lambda: int = 16
    restarts: int = 8
    max_iter: int = 20_000
    tol: float = 1e-9
    slack: float = 5e-3
    lambda_max: float = 1e4
    seed: int = 0
    max_states: int = 64
    prob_floor: float = 1e-15
    threads: int = 1
    record_history: bool = False


@dataclass(frozen=True)
class SolveReport:
    """Telemetry for one solve; objective is an upper bound on C_gamma."""

    achieved_gamma: InfoValue
    objective: InfoValue
    lam: float
    iterations: int
    restarts_used: int
    converged: bool
    history: np.ndarray | None = None


# ---------------------------------------------------------------------------
# batched mirror-descent engine
# ---------------------------------------------------------------------------

def _safe_log(x):
    return np.log(np.maximum(x, _TINY))


class _Engine:
    """Batched exponentiated-gradient descent on F = I(cells;W) + lam * relax.

    Runs are independent: each has its own multiplier, step size, and
    backtracking trajectory, so sharding a batch across threads (or
    re-batching) cannot change any run's outcome.
    """

    def __init__(self, pmf, card_w: int, opts: SolverOptions):
        self.pmf = pmf
        self.cards = pmf.shape
        self.n_src = pmf.ndim
        self.card_w = card_w
        self.opts = opts
        self.p_src = source_marginals(pmf)
        self.mask = (pmf > 0)[None, None]
        self.tc = _total_correlation(pmf)  # relaxation of constant W

    # -- functionals ---------------------------------------------------

    def _parts(self, q):
        """Per-run J = -H(W|cells), A = -H(W), B_i = -H(W|X_i), plus logs."""
        qw, per_src = _induced_marginals(q, self.pmf, lead=2)
        lq = _safe_log(q)
        lw = _safe_log(qw)
        lsrc = [_safe_log(c) for c in per_src]
        J = ((q * lq) * self.pmf).sum(axis=tuple(range(1, self.n_src + 2)))
        A = np.where(qw > 0, qw * lw, 0.0).sum(axis=1)
        B = [
            (np.where(c > 0, c * lc, 0.0) * self.p_src[i][None, None]).sum(axis=(1, 2))
            for i, (c, lc) in enumerate(zip(per_src, lsrc))
        ]
        return dict(lq=lq, lw=lw, lsrc=lsrc, J=J, A=A, B=B)

    def _objective_relax(self, parts):
        obj = parts["J"] - parts["A"]
        relax = parts["J"] + (self.n_src - 1) * parts["A"] - sum(parts["B"]) + self.tc
        return obj, relax

    def _lagrangian(self, parts, lam):
        return (
            (1.0 + lam) * parts["J"]
            + ((self.n_src - 1) * lam - 1.0) * parts["A"]
            - lam * sum(parts["B"])
        )

    def _bcast_src(self, arr, i):
        """(R, W, c_i) -> (R, W, 1, ..., c_i, ..., 1) for gradient assembly."""
        shape = [arr.shape[0], arr.shape[1]] + [1] * self.n_src
        shape[i + 2] = arr.shape[2]
        return arr.reshape(shape)

    def _gradient(self, parts, lam_b):
        lw_b = parts["lw"].reshape(parts["lw"].shape + (1,) * self.n_src)
        g = (1.0 + lam_b) * parts["lq"] + ((self.n_src - 1) * lam_b - 1.0) * lw_b
        for i in range(self.n_src):
            g = g - lam_b * self._bcast_src(parts["lsrc"][i], i)
        return np.where(self.mask, g, 0.0)

    def _step(self, lq, g, eta):
        z = lq - eta.reshape((eta.size,) + (1,) * (self.n_src + 1)) * g
        z = z - z.max(axis=1, keepdims=True)
        cand = np.exp(z)
        cand = np.maximum(cand, self.opts.prob_floor)
        cand /= cand.sum(axis=1, keepdims=True)
        return cand

    # -- descent -------------------------------------------------------

    def descend(self, q0, lam):
        """Run batched descent to convergence or the iteration cap.

        Backtracking halves a run's step size until its Lagrangian does not
        increase; a run freezes when the relative decrease drops below
        opts.tol (or no descent step exists, which is stationarity for the
        multiplicative update). Returns per-run arrays (q, obj, relax,
        iters, converged, history); history is None unless recorded.
        """
        opts = self.opts
        q = np.array(q0, dtype=float)
        lam = np.asarray(lam, dtype=float)
        R = q.shape[0]
        lam_b = lam.reshape((R,) + (1,) * (self.n_src + 1))
        eta = np.full(R, _ETA_INIT)
        frozen = np.zeros(R, dtype=bool)
        iters = np.zeros(R, dtype=int)
        parts = self._parts(q)
        G = self._lagrangian(parts, lam)
        history = [] if opts.record_history else None
        if history is not None:
            obj, relax = self._objective_relax(parts)
            history.append(obj + lam * relax)
        for it in range(opts.max_iter):
            if frozen.all():
                break
            g = self._gradient(parts, lam_b)
            ok = frozen.copy()
            eta_acc = np.zeros(R)  # zero step for runs that never descend
            while not ok.all():
                cand = self._step(parts["lq"], g, eta)
                G_c = self._lagrangian(self._parts(cand), lam)
                good = (~ok) & (G_c <= G + 1e-12)
                eta_acc[good] = eta[good]
                ok |= good
                bad = ~ok
                eta[bad] *= 0.5
                stuck = bad & (eta < _ETA_FLOOR)
                if stuck.any():
                    frozen |= stuck
                    iters[stuck] = it + 1
                    ok |= stuck
            q = np.where(
                frozen.reshape((R,) + (1,) * (self.n_src + 1)),
                q,
                self._step(parts["lq"], g, eta_acc),
            )
            parts = self._parts(q)
            G_new = self._lagrangian(parts, lam)
            if not np.all(G_new <= G + 1e-9):
                raise NoConvergence("Lagrangian increased within a run")
            rel = (G - G_new) / np.maximum(np.abs(G), 1.0)
            newly = (~frozen) & (rel < opts.tol)
            iters[newly] = it + 1
            converged_now = frozen | newly
            G = G_new
            frozen = converged_now
            eta = np.where(frozen, eta, np.minimum(eta * _ETA_GROWTH, _ETA_MAX))
            if history is not None:
                obj, relax = self._objective_relax(parts)
                history.append(obj + lam * relax)
        converged = frozen.copy()
        iters[~frozen] = opts.max_iter
        obj, relax = self._objective_relax(parts)
        history = np.array(history).T if history is not None else None
        return q, obj, relax, iters, converged, history

    def descend_sharded(self, q0, lam):
        """descend(), optionally sharding the independent runs over threads."""
        threads = max(1, int(self.opts.threads))
        R = q0.shape[0]
        if threads == 1 or R < 2 * threads:
            return self.descend(q0, lam)
        bounds = np.linspace(0, R, threads + 1).astype(int)
        chunks = [(q0[a:b], lam[a:b]) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            shards = list(pool.map(lambda c: self.descend(*c), chunks))
        *fields, hist = zip(*shards)
        if hist[0] is not None:
            # pad shards that froze early with their final value, as one
            # unsharded batch records it
            width = max(h.shape[1] for h in hist)
            hist = np.vstack(
                [np.pad(h, ((0, 0), (0, width - h.shape[1])), mode="edge") for h in hist]
            )
        else:
            hist = None
        return (*(np.concatenate(f) for f in fields), hist)


# ---------------------------------------------------------------------------
# sweep orchestration and selection
# ---------------------------------------------------------------------------

class _Sweep:
    """Run cloud for one joint pmf, grown lazily by lambda escalation.

    Each field holds one entry per run in execution order: coupling q,
    objective, relaxation, multiplier lam, restart index, iterations,
    convergence flag and recorded history. Entry 0 is the trivial coupling
    (W independent of the sources), which is always available. The joint's
    size is checked against opts.max_states before anything is allocated.
    """

    def __init__(self, joint: DiscreteJoint, opts: SolverOptions):
        n_states = joint.pmf.size
        if n_states > opts.max_states:
            raise TooLarge(
                f"joint alphabet has {n_states} cells > max_states={opts.max_states}"
            )
        card_w = n_states + 1 if opts.card_w is None else int(opts.card_w)
        if card_w < 1:
            raise InvalidCoupling(f"card_w must be >= 1, got {card_w}")
        if card_w > n_states + 1:
            raise InvalidCoupling(
                f"card_w={card_w} exceeds the cardinality bound |X||Y|+1 = {n_states + 1}"
            )
        self.opts = opts
        self.engine = _Engine(joint.pmf, card_w, opts)
        self.rng = np.random.default_rng(opts.seed)
        self.q = np.full((1, card_w) + joint.pmf.shape, 1.0 / card_w)
        self.obj = np.zeros(1)
        self.relax = np.array([self.engine.tc])
        self.lam = np.zeros(1)
        self.restart = np.array([-1])
        self.iters = np.zeros(1, dtype=int)
        self.converged = np.ones(1, dtype=bool)
        self.history = [None]
        self.runs_executed = 0
        self._run_lambdas(np.geomspace(opts.lambda_min, opts.lambda_grid_max, opts.n_lambda))

    def _run_lambdas(self, lambdas):
        opts = self.opts
        lam = np.repeat(np.asarray(lambdas, dtype=float), opts.restarts)
        q0 = self.rng.random((lam.size, self.engine.card_w) + self.engine.cards)
        q0 /= q0.sum(axis=1, keepdims=True)
        q, obj, relax, iters, converged, history = self.engine.descend_sharded(q0, lam)
        self.q = np.concatenate([self.q, q])
        self.obj = np.concatenate([self.obj, obj])
        self.relax = np.concatenate([self.relax, relax])
        self.lam = np.concatenate([self.lam, lam])
        self.restart = np.concatenate([self.restart, np.arange(lam.size) % opts.restarts])
        self.iters = np.concatenate([self.iters, iters])
        self.converged = np.concatenate([self.converged, converged])
        self.history += [None] * lam.size if history is None else list(history)
        self.runs_executed += lam.size

    def _feasible(self, gamma):
        return self.relax <= gamma + self.opts.slack

    def ensure_feasible(self, gamma):
        """Escalate lambda toward opts.lambda_max until some run is feasible."""
        opts = self.opts
        if self._feasible(gamma).any():
            return
        lo = opts.lambda_grid_max
        hi = opts.lambda_max
        self._run_lambdas([hi])
        if not self._feasible(gamma).any():
            best = float(self.relax.min())
            raise Infeasible(
                f"no coupling reached I-relaxation <= {gamma + opts.slack:.3e}; "
                f"best achieved {best:.3e} at lambda <= {hi:g}",
                details={
                    "gamma": gamma,
                    "slack": opts.slack,
                    "best_achieved_gamma": best,
                    "lambda_max": hi,
                    "runs_executed": self.runs_executed,
                },
            )
        # refine the smallest feasible multiplier for a tighter objective
        for _ in range(12):
            mid = math.sqrt(lo * hi)
            self._run_lambdas([mid])
            if (self._feasible(gamma) & (self.lam == mid)).any():
                hi = mid
            else:
                lo = mid

    def select(self, gamma) -> int:
        """Index of the best feasible run under a slope-penalized score.

        The score obj + lambda_grid_max * max(0, relax - gamma) charges a
        run's constraint overshoot back at the steepest swept slope, so
        near-tight frontier points beat ones that merely exploit the slack.
        Ties go to lower lambda, then lower restart index, then earlier run.
        """
        self.ensure_feasible(gamma)
        if not self.converged[1:].any():  # the trivial coupling does not count
            raise NoConvergence(
                f"no descent run met tol={self.opts.tol:g} within "
                f"{self.opts.max_iter} iterations"
            )
        score = self.obj + self.opts.lambda_grid_max * np.maximum(0.0, self.relax - gamma)
        feasible = np.flatnonzero(self._feasible(gamma))
        best = None
        best_score = np.inf
        for i in feasible[np.lexsort((self.restart[feasible], self.lam[feasible]))]:
            if score[i] < best_score - 1e-15:
                best = i
                best_score = score[i]
        return best


def solve_relaxed_wyner(joint: DiscreteJoint, gamma: float, opts: SolverOptions | None = None):
    """Upper-bound solver for relaxed Wyner common information of M >= 2 sources.

    The relaxation functional is sum_i H(X_i|W) - H(X_1..X_M|W), which is
    I(X;Y|W) for a pair. Returns (Coupling, SolveReport). The report's
    objective is I(X_1..X_M;W) of the returned coupling, an upper bound on
    C at achieved_gamma <= gamma + opts.slack. Raises TooLarge when the
    joint has more than opts.max_states cells, Infeasible when no
    multiplier up to opts.lambda_max meets the budget and NoConvergence
    when every descent run exhausts the iteration cap.
    """
    opts = opts or SolverOptions()
    gamma = float(gamma)
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    sweep = _Sweep(joint, opts)
    i = sweep.select(gamma)
    coupling = build_coupling(sweep.q[i], joint)
    report = SolveReport(
        achieved_gamma=InfoValue(max(float(sweep.relax[i]), 0.0)),
        objective=InfoValue(max(float(sweep.obj[i]), 0.0)),
        lam=float(sweep.lam[i]),
        iterations=int(sweep.iters[i]),
        restarts_used=sweep.runs_executed,
        converged=bool(sweep.converged[i]),
        history=sweep.history[i],
    )
    return coupling, report


solve_relaxed_wyner_multi = solve_relaxed_wyner


# ---------------------------------------------------------------------------
# trade-off curve
# ---------------------------------------------------------------------------

def _lower_convex_envelope(points, xs):
    """Lower convex hull of achievable (gamma, value) points sampled at xs."""
    pts = []
    for p in sorted(points):  # keep the lowest value per distinct abscissa
        if pts and p[0] == pts[-1][0]:
            continue
        pts.append(p)
    hull = []
    for p in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # drop the middle point when it lies on or above the chord
            if (y2 - y1) * (p[0] - x1) >= (p[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(p)
    hx = np.array([h[0] for h in hull])
    hy = np.array([h[1] for h in hull])
    out = np.interp(xs, hx, hy)  # clamps to the end values outside the hull
    # a value achievable at gamma' <= gamma is achievable at gamma
    np.minimum.accumulate(out, out=out)
    return out


def ci_curve_discrete(joint: DiscreteJoint, grid, opts: SolverOptions | None = None):
    """Upper-bound C_gamma curve over a gamma grid.

    One multiplier sweep serves the whole grid; the reported upper bound at
    each grid point is the lower convex envelope of all achieved
    (I(X;Y|W), I(X,Y;W)) sweep points (valid by time sharing, since C_gamma
    is convex in gamma). Returns [(gamma, upper_bound, achieved_gamma)].
    """
    opts = opts or SolverOptions()
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0 or grid.min() < 0 or np.any(np.diff(grid) < 0):
        raise ValueError("grid must be nonempty, nonnegative, sorted ascending")
    sweep = _Sweep(joint, opts)
    achieved = []
    for g in grid:
        best = sweep.select(float(g))  # may grow the sweep's arrays
        achieved.append(float(sweep.relax[best]))
    env = _lower_convex_envelope(list(zip(sweep.relax.tolist(), sweep.obj.tolist())), grid)
    env = np.maximum(env, 0.0)
    return [(float(g), float(u), a) for g, u, a in zip(grid, env, achieved)]
