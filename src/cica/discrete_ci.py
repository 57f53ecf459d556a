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
from dataclasses import dataclass

import numpy as np

from .errors import A0OutOfRange, Infeasible, InvalidCoupling, NoConvergence, TooLarge
from .model import (
    DiscreteJoint,
    InfoValue,
    _check_budget,
    _check_cells,
    _check_grid,
    _check_mass,
    _frozen_array,
    _is_int,
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
# float64 entries of q(w|cells) in a sweep's widest backtracking round, two
# rungs for every grid run: 2**24 entries are 128 MiB, and the engine holds a
# few arrays of that size at once (the default options reach about 2**20)
_MAX_ROUND_ENTRIES = 2**24
# the multiplier grid spans [_LAMBDA_MIN, _LAMBDA_GRID_MAX]; an infeasible budget
# escalates to _LAMBDA_MAX and bisects in between
_LAMBDA_MIN = 0.05
_LAMBDA_GRID_MAX = 50.0
_LAMBDA_MAX = 1e4
# every entry of a descent step's q(w|cells) is floored here before renormalizing
_PROB_FLOOR = 1e-15


# ---------------------------------------------------------------------------
# exact information functionals
# ---------------------------------------------------------------------------

def _plogp(p):
    """p ln p elementwise for a nonnegative array, with 0 ln 0 = 0.

    Uses libm's log (math.log) entry by entry, not numpy's vectorized log,
    whose SIMD kernels can differ from libm in the last bit.
    """
    p = np.asarray(p, dtype=float)
    vals = [0.0 if x == 0 else x * math.log(x) for x in p.ravel().tolist()]
    return np.array(vals, dtype=float).reshape(p.shape)


def entropy(pmf) -> InfoValue:
    """Shannon entropy in nats, with 0 ln 0 = 0."""
    return InfoValue(float(-_plogp(_check_mass(pmf)).sum()))


def _total_correlation(table) -> float:
    """sum_i H(X_i) - H(X_1..X_M) of a joint table, in nats."""
    h_marg = 0.0
    for m in source_marginals(table):
        h_marg -= _plogp(m).sum()
    return float(h_marg + _plogp(table).sum())


def total_correlation(joint: DiscreteJoint) -> InfoValue:
    """sum_i H(X_i) - H(X_1..X_M) in nats; this is I(X;Y) for two sources."""
    return InfoValue(_total_correlation(joint.pmf))


mutual_information = total_correlation


def _check_a0(a0) -> float:
    """A DSBS flip probability as a float; A0OutOfRange unless it lies in [0, 1/2]."""
    a0 = float(a0)
    if not 0.0 <= a0 <= 0.5:
        raise A0OutOfRange(f"a0 must lie in [0, 1/2], got {a0}")
    return a0


def dsbs_joint(a0: float) -> DiscreteJoint:
    """The 2x2 joint pmf of a doubly symmetric binary source."""
    a0 = _check_a0(a0)
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


def _check_card_w(card_w, n_cells: int) -> int:
    """A latent alphabet size in [1, cells + 1]; some optimal W needs no more symbols."""
    card_w = int(card_w)
    if not 1 <= card_w <= n_cells + 1:
        raise InvalidCoupling(f"card_w={card_w} outside the cardinality bound [1, {n_cells + 1}]")
    return card_w


def build_coupling(q_w_given_xy, joint) -> Coupling:
    """Validate a conditional table against a joint model and attach marginals."""
    q = np.asarray(q_w_given_xy, dtype=float)
    if not np.isfinite(q).all():
        raise InvalidCoupling("conditional table has non-finite entries")
    pmf = joint.pmf
    if q.ndim != pmf.ndim + 1 or q.shape[1:] != pmf.shape:
        raise InvalidCoupling(
            f"conditional table shape {q.shape} does not extend joint shape {pmf.shape}"
        )
    card_w = _check_card_w(q.shape[0], pmf.size)
    if q.min() < 0:
        raise InvalidCoupling(f"conditional table has negative entry {q.min():.3e}")
    err = np.abs(q.sum(axis=0) - 1.0).max()
    if err > 1e-10:
        raise InvalidCoupling(f"conditional slices deviate from 1 by {err:.2e} > 1e-10")
    joint_w = q * pmf
    per_source = [
        np.where(p_i > 0, num / np.maximum(p_i, _TINY), 0.0)
        for num, p_i in zip(source_marginals(joint_w, lead=1), source_marginals(pmf))
    ]
    return Coupling(
        card_w=card_w,
        q_w_given_xy=_frozen_array(q),
        q_w=_frozen_array(joint_w.sum(axis=tuple(range(1, joint_w.ndim)))),
        q_w_given_sources=tuple(_frozen_array(c) for c in per_source),
        joint_ref=joint,
    )


def latent_mutual_information(c: Coupling) -> InfoValue:
    """Exact I(X_1..X_M; W) = H(W) - H(W | X_1..X_M) of a coupling."""
    pmf = c.joint_ref.pmf
    h_w = -_plogp(c.q_w).sum()
    h_w_cells = -(_plogp(c.q_w_given_xy) * pmf[None]).sum()
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


# ---------------------------------------------------------------------------
# solver configuration and telemetry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolverOptions:
    """Tuning knobs for the Lagrangian sweep; defaults suit alphabets <= 8x8.

    n_lambda multipliers from 0.05 to 50 get restarts random starts each,
    and the joint may have at most model.MAX_STATES cells. All randomness
    flows from ``seed``. ``threads`` is validated (it must be at least 1)
    but does not change how the solve runs: every multiplier sweep is one
    batch on the calling thread, so results do not depend on it.
    """

    card_w: int | None = None
    n_lambda: int = 16
    restarts: int = 8
    max_iter: int = 20_000
    tol: float = 1e-9
    slack: float = 5e-3
    seed: int = 0
    threads: int = 1


@dataclass(frozen=True)
class SolveReport:
    """Telemetry for one solve; objective is an upper bound on C_gamma.

    restarts_used counts the descent runs in the solve's run cloud: a
    single-budget solve keeps the grid's runs up to the first multiplier
    that meets gamma, plus any escalation and bisection runs. lam,
    iterations and converged describe the selected run.
    """

    achieved_gamma: InfoValue
    objective: InfoValue
    lam: float
    iterations: int
    restarts_used: int
    converged: bool


# ---------------------------------------------------------------------------
# batched mirror-descent engine
# ---------------------------------------------------------------------------

def _safe_log(x):
    out = np.maximum(x, _TINY)
    return np.log(out, out=out)


class _Engine:
    """Batched exponentiated-gradient descent on F = I(cells;W) + lam * relax.

    Runs are independent: each has its own multiplier, step size, and
    backtracking trajectory, and every functional is computed row by row.
    The batch is compacted as runs freeze, so compaction cannot change any
    run's outcome. One batch holds every run of a sweep: splitting it over
    threads only adds Python iteration loops that the GIL serialises.

    Every marginal comes from one product with the fixed incidence matrix
    ``S`` of shape cells x (1 + sum_i c_i): column 0 is all ones and gives
    q(w), and one 0/1 column per source symbol gives q(w, x_i). The
    gradient scatters the logs of those marginals back onto the cells
    through S^T. Each product is stacked over the run axis with one fixed
    shape per run, so BLAS takes the same kernel for a run whatever else
    the batch holds, and a run's bits do not depend on the batch.
    """

    def __init__(self, pmf, card_w: int, opts: SolverOptions):
        self.pmf = pmf
        self.cards = pmf.shape
        self.n_src = pmf.ndim
        self.card_w = card_w
        self.opts = opts
        self.off_support = pmf <= 0
        self.tc = _total_correlation(pmf)  # relaxation of constant W
        # column 0, then each source's block of symbol columns
        self.starts = np.cumsum((0, 1) + self.cards[:-1])
        cells = np.indices(self.cards).reshape(self.n_src, -1).T
        self.S = np.zeros((pmf.size, 1 + sum(self.cards)))
        self.S[:, 0] = 1.0
        self.S[np.arange(pmf.size)[:, None], self.starts[1:] + cells] = 1.0
        # per symbol column: the p_i weight and the safe p_i denominator
        self.p_wt = np.concatenate(source_marginals(pmf))
        self.p_den = np.maximum(self.p_wt, _TINY)
        self.row_axes = tuple(range(1, self.n_src + 2))  # all but the run axis

    # -- functionals ---------------------------------------------------

    def _parts(self, q):
        """Per-run (log q, logs, F) with J = -H(W|cells), A = -H(W), B_i = -H(W|X_i).

        logs is (R, W, 1 + sum_i c_i): log q(w), then every log q(w|x_i).
        """
        R = q.shape[0]
        joint_w = q * self.pmf
        marg = joint_w.reshape(R, self.card_w, -1) @ self.S
        # where p_i = 0 the numerator is 0, so the ratio is the 0 a mask would give
        src = marg[..., 1:]
        np.divide(src, self.p_den, out=src)
        logs = _safe_log(marg)
        zero = marg <= 0
        plogp = np.multiply(marg, logs, out=marg)
        np.copyto(plogp, 0.0, where=zero)
        np.multiply(src, self.p_wt, out=src)
        lq = _safe_log(q)
        F = np.empty((R, 2 + self.n_src))
        np.multiply(q, lq, out=joint_w)
        F[:, 0] = np.multiply(joint_w, self.pmf, out=joint_w).sum(axis=self.row_axes)
        F[:, 1:] = np.add.reduceat(plogp.sum(axis=1), self.starts, axis=1)
        return lq, logs, F

    def _objective_relax(self, parts):
        F = parts[2]
        obj = F[:, 0] - F[:, 1]
        relax = F[:, 0] + (self.n_src - 1) * F[:, 1] - sum(F[:, 2:].T) + self.tc
        return obj, relax

    def _lagrangian(self, parts, lam):
        F = parts[2]
        return (
            (1.0 + lam) * F[:, 0]
            + ((self.n_src - 1) * lam - 1.0) * F[:, 1]
            - lam * sum(F[:, 2:].T)
        )

    def _gradient(self, parts, lam):
        """The Lagrangian's gradient over p(cells), 0 off the support; lam has one entry per run."""
        lq, logs, _ = parts
        lam_b = np.reshape(lam, (-1, 1, 1))
        g = np.multiply(1.0 + lam_b, lq.reshape(logs.shape[:2] + (-1,)))
        g += ((self.n_src - 1) * lam_b - 1.0) * logs[..., :1]
        g -= lam_b * (logs[..., 1:] @ self.S[:, 1:].T)
        g = g.reshape(lq.shape)
        np.copyto(g, 0.0, where=self.off_support)
        return g

    def _step(self, lq, g, eta):
        z = np.multiply(eta.reshape((eta.size,) + (1,) * (self.n_src + 1)), g)
        np.subtract(lq, z, out=z)
        z -= z.max(axis=1, keepdims=True)
        np.exp(z, out=z)
        np.maximum(z, _PROB_FLOOR, out=z)
        z /= z.sum(axis=1, keepdims=True)
        return z

    # -- descent -------------------------------------------------------

    def descend(self, q0, lam, budget=None):
        """Run batched descent to convergence or the iteration cap.

        Backtracking halves a run's step size until its Lagrangian does not
        increase; a run freezes when the relative decrease drops below
        opts.tol (converged), or stuck when no step down to _ETA_FLOOR
        descends (not converged). A frozen run's results are written out and
        its rows leave the batch, so the cost follows the live runs. The
        first backtracking round of an iteration tries every live run at its
        step eta; each later round stacks, for every run whose step is not
        yet accepted, the rungs eta and eta/2 (the second only while
        eta/2 >= _ETA_FLOOR) into one evaluation and takes the first rung
        that holds, which is the step that halving one rung per round would
        accept. With a budget, a run that freezes with relax <= budget at
        multiplier lam_c cuts every live run with lam > lam_c: it leaves
        the batch unconverged, at its current iterate. Returns per-run
        arrays (q, obj, relax, iters, converged).
        """
        opts = self.opts
        q = np.array(q0, dtype=float)
        lam = np.asarray(lam, dtype=float)
        R = q.shape[0]
        q_out = np.empty_like(q)
        obj_out = np.empty(R)
        relax_out = np.empty(R)
        iters = np.full(R, opts.max_iter)
        converged = np.zeros(R, dtype=bool)
        live = np.arange(R)  # output index of each batch row
        eta = np.full(R, _ETA_INIT)
        parts = self._parts(q)
        G = self._lagrangian(parts, lam)
        obj, relax = self._objective_relax(parts)
        for it in range(opts.max_iter):
            if live.size == 0:
                break
            lq = parts[0]
            g = self._gradient(parts, lam)
            pending = np.arange(live.size)
            stuck = np.zeros(live.size, dtype=bool)
            retry = False
            while pending.size:
                n = pending.size
                rows, steps = pending, eta[pending]
                if retry:  # the rungs eta and eta/2, the second while above the floor
                    two = steps * 0.5 >= _ETA_FLOOR
                    rows = np.concatenate([pending, pending[two]])
                    steps = np.concatenate([steps, steps[two] * 0.5])
                    cand = self._step(lq[rows], g[rows], steps)
                else:  # every live run at its own step
                    cand = self._step(lq, g, steps)
                cand_parts = self._parts(cand)
                good = self._lagrangian(cand_parts, lam[rows]) <= G[rows] + 1e-12
                fail = ~good[:n]
                if retry:  # a run takes its first rung that holds
                    good[n:] &= fail[two]
                    fail[two] &= ~good[n:]
                # an accepted run's rows take the candidate; stuck runs keep theirs
                sel = np.flatnonzero(good)
                acc = rows[sel]
                for dst, src in zip((q,) + parts, (cand,) + cand_parts):
                    dst[acc] = src[sel]
                eta[acc] = steps[sel]
                # a run that failed every rung halves once per rung it tried
                pending = pending[fail]
                eta[pending] *= 0.5
                if retry:
                    eta[pending[two[fail]]] *= 0.5
                stuck[pending] = eta[pending] < _ETA_FLOOR
                pending = pending[~stuck[pending]]
                retry = True
            G_new = self._lagrangian(parts, lam)
            if not np.all(G_new <= G + 1e-9):
                raise NoConvergence("Lagrangian increased within a run")
            rel = (G - G_new) / np.maximum(np.abs(G), 1.0)
            obj, relax = self._objective_relax(parts)
            met_tol = rel < opts.tol
            done = stuck | met_tol
            G = G_new
            if done.any():
                if budget is not None:
                    done |= lam > lam[done & (relax <= budget)].min(initial=np.inf)
                out = live[done]
                q_out[out], obj_out[out], relax_out[out] = q[done], obj[done], relax[done]
                iters[out] = it + 1
                converged[out] = (met_tol & ~stuck)[done]
                keep = ~done
                live, q, G, eta, lam = live[keep], q[keep], G[keep], eta[keep], lam[keep]
                parts, obj, relax = tuple(a[keep] for a in parts), obj[keep], relax[keep]
            eta = np.minimum(eta * _ETA_GROWTH, _ETA_MAX)
        q_out[live], obj_out[live], relax_out[live] = q, obj, relax
        return q_out, obj_out, relax_out, iters, converged


# ---------------------------------------------------------------------------
# sweep orchestration and selection
# ---------------------------------------------------------------------------

_OPTION_MINIMA = {"n_lambda": 1, "restarts": 1, "threads": 1, "max_iter": 1, "seed": 0}


def _check_options(opts: SolverOptions) -> None:
    """ValueError unless every number in opts is finite, of its field's kind and in range."""
    for name, value in vars(opts).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    for name in ("card_w", "n_lambda", "restarts", "max_iter", "threads", "seed"):
        value = getattr(opts, name)
        if (name != "card_w" or value is not None) and not _is_int(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    for name, low in _OPTION_MINIMA.items():
        if getattr(opts, name) < low:
            raise ValueError(f"{name} must be >= {low}, got {getattr(opts, name)}")
    if not (opts.tol > 0 and opts.slack >= 0):
        raise ValueError(f"need tol > 0 and slack >= 0, got tol={opts.tol}, slack={opts.slack}")


class _Sweep:
    """Run cloud for one joint pmf, grown lazily by lambda escalation.

    Each field holds one entry per run in execution order: coupling q,
    objective, relaxation, multiplier lam, iterations and convergence flag.
    Entry 0 is the trivial coupling (W independent of the sources), which
    is always available. No two batches share a multiplier, and a batch
    runs each multiplier's restarts in order. The numbers in opts, the
    joint's size (against MAX_STATES), card_w and the size of the widest
    backtracking round (against _MAX_ROUND_ENTRIES) are checked before
    anything is allocated. With a budget, a batch keeps only its runs up to
    the lowest multiplier that holds a run with relax <= budget.
    """

    def __init__(self, joint: DiscreteJoint, opts: SolverOptions, budget: float | None = None):
        _check_options(opts)
        n_states = joint.pmf.size
        _check_cells(n_states)
        card_w = _check_card_w(n_states + 1 if opts.card_w is None else opts.card_w, n_states)
        entries = 2 * opts.n_lambda * opts.restarts * card_w * n_states
        if entries > _MAX_ROUND_ENTRIES:
            raise TooLarge(
                f"a backtracking round needs {entries} entries (2 x n_lambda x restarts x "
                f"card_w x cells) > {_MAX_ROUND_ENTRIES}"
            )
        self.opts = opts
        self.budget = budget
        self.engine = _Engine(joint.pmf, card_w, opts)
        self.rng = np.random.default_rng(opts.seed)
        self.q = np.full((1, card_w) + joint.pmf.shape, 1.0 / card_w)
        self.obj = np.zeros(1)
        self.relax = np.array([self.engine.tc])
        self.lam = np.zeros(1)
        self.iters = np.zeros(1, dtype=int)
        self.converged = np.ones(1, dtype=bool)
        self.runs_executed = 0
        self._run_lambdas(np.geomspace(_LAMBDA_MIN, _LAMBDA_GRID_MAX, opts.n_lambda))

    def _run_lambdas(self, lambdas):
        lam = np.repeat(np.asarray(lambdas, dtype=float), self.opts.restarts)
        q0 = self.rng.random((lam.size, self.engine.card_w) + self.engine.cards)
        q0 /= q0.sum(axis=1, keepdims=True)
        runs = self.engine.descend(q0, lam, self.budget)
        if self.budget is not None:
            # lam ascends, so the runs up to the first multiplier that met the budget are a prefix
            n = np.searchsorted(lam, lam[runs[2] <= self.budget].min(initial=np.inf), side="right")
            runs, lam = [a[:n] for a in runs], lam[:n]
        q, obj, relax, iters, converged = runs
        self.q = np.concatenate([self.q, q])
        self.obj = np.concatenate([self.obj, obj])
        self.relax = np.concatenate([self.relax, relax])
        self.lam = np.concatenate([self.lam, lam])
        self.iters = np.concatenate([self.iters, iters])
        self.converged = np.concatenate([self.converged, converged])
        self.runs_executed += lam.size

    def _feasible(self, gamma):
        return self.relax <= gamma + self.opts.slack

    def ensure_feasible(self, gamma):
        """Escalate lambda to _LAMBDA_MAX unless some run is feasible, then bisect down from it."""
        opts = self.opts
        if self._feasible(gamma).any():
            return
        lo, hi = _LAMBDA_GRID_MAX, _LAMBDA_MAX
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

        The score obj + _LAMBDA_GRID_MAX * max(0, relax - gamma) charges a
        run's constraint overshoot back at the steepest swept slope, so
        near-tight frontier points beat ones that merely exploit the slack.
        Ties go to lower lambda, then to the earlier run, which at one lambda
        is the lower restart index.
        """
        self.ensure_feasible(gamma)
        if not self.converged[1:].any():  # the trivial coupling does not count
            raise NoConvergence(
                f"no descent run met tol={self.opts.tol:g} within "
                f"{self.opts.max_iter} iterations"
            )
        score = self.obj + _LAMBDA_GRID_MAX * np.maximum(0.0, self.relax - gamma)
        feasible = np.flatnonzero(self._feasible(gamma))
        best = None
        best_score = np.inf
        for i in feasible[np.argsort(self.lam[feasible], kind="stable")]:
            if score[i] < best_score - 1e-15:
                best = i
                best_score = score[i]
        return best


def solve_relaxed_wyner(joint: DiscreteJoint, gamma: float, opts: SolverOptions | None = None):
    """Upper-bound solver for relaxed Wyner common information of M >= 2 sources.

    The relaxation functional is sum_i H(X_i|W) - H(X_1..X_M|W), which is
    I(X;Y|W) for a pair. Returns (Coupling, SolveReport). The report's
    objective is I(X_1..X_M;W) of the returned coupling, an upper bound on
    C at achieved_gamma <= gamma + opts.slack. The grid sweep stops at the
    first multiplier that holds a run with relaxation <= gamma: the runs at
    higher multipliers are cut from the batch and never enter the run cloud
    that selection scores. Raises TooLarge when the joint has more than
    MAX_STATES cells or a backtracking round would hold more than
    _MAX_ROUND_ENTRIES entries, Infeasible when no multiplier up to 1e4
    meets the budget, NoConvergence when no descent run in the cloud
    converged, and ValueError for a negative or non-finite gamma or an
    option out of range.
    """
    opts = opts or SolverOptions()
    gamma = _check_budget(gamma)
    sweep = _Sweep(joint, opts, budget=gamma)
    i = sweep.select(gamma)
    coupling = build_coupling(sweep.q[i], joint)
    report = SolveReport(
        achieved_gamma=InfoValue(max(float(sweep.relax[i]), 0.0)),
        objective=InfoValue(max(float(sweep.obj[i]), 0.0)),
        lam=float(sweep.lam[i]),
        iterations=int(sweep.iters[i]),
        restarts_used=sweep.runs_executed,
        converged=bool(sweep.converged[i]),
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
    is convex in gamma). Returns [(gamma, upper_bound, achieved_gamma)]:
    achieved_gamma is the relaxation of the single run that select picks
    for gamma, not the abscissa of the envelope point behind upper_bound.
    """
    opts = opts or SolverOptions()
    grid = _check_grid(grid)
    sweep = _Sweep(joint, opts)
    achieved = []
    for g in grid:
        best = sweep.select(float(g))  # may grow the sweep's arrays
        achieved.append(float(sweep.relax[best]))
    env = _lower_convex_envelope(list(zip(sweep.relax.tolist(), sweep.obj.tolist())), grid)
    env = np.maximum(env, 0.0)
    return [(float(g), float(u), a) for g, u, a in zip(grid, env, achieved)]
