"""Numerical solver for relaxed Wyner common information on finite alphabets.

The constrained problem min I(X,Y;W) s.t. I(X;Y|W) <= gamma is nonconvex in
the coupling p(w|x,y), so the solver sweeps a Lagrange multiplier over a
geometric grid and minimizes F = I(X,Y;W) + lambda I(X;Y|W) for each value
by exponentiated multiplicative updates on the simplex slices of p(w|x,y),
with eight random restarts per multiplier. Every run yields an achievable
(I(X;Y|W), I(X,Y;W)) point; the returned objective is an upper bound picked
from that cloud. The same engine covers M >= 2 sources with the relaxation
functional sum_i H(X_i|W) - H(X_1..X_M|W), which reduces to I(X;Y|W) for
M = 2.

Two exact reductions skip work that cannot change the answer. The sweep
solves the table with zero-mass symbols dropped and interchangeable
symbols merged (_reduce), then lifts the coupling back. And no run is
descended at lambda <= 1/(M - 1), where the constant coupling is a global
minimiser of F: TC - relax = sum_i I(X_i;W) - I(X_1..X_M;W) <= (M - 1) I,
so F >= lambda TC + (1 - lambda (M - 1)) I >= lambda TC = F(constant W).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import A0OutOfRange, Infeasible, InvalidCoupling, NoConvergence
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
# the multiplier grid: _N_LAMBDA values spanning [_LAMBDA_MIN, _LAMBDA_GRID_MAX],
# each with _RESTARTS random starts; with card_w <= cells + 1 and cells <=
# MAX_STATES, a descent round holds at most 128 runs * 65 * 64 = 532,480
# float64 entries (4.1 MiB) per array
_LAMBDA_MIN = 0.05
_LAMBDA_GRID_MAX = 50.0
_N_LAMBDA = 16
_RESTARTS = 8
# a run stops at _MAX_ITER iterations or when the Lagrangian's relative
# decrease falls below _TOL; it counts as feasible within gamma + _SLACK
_MAX_ITER = 20_000
_TOL = 1e-9
_SLACK = 5e-3
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
    """The latent alphabet and the seed of a Lagrangian sweep.

    Each of the 16 multipliers from 0.05 to 50 gets 8 random starts,
    and the joint may have at most model.MAX_STATES cells. All randomness
    flows from ``seed``. ``threads`` is validated (it must be at least 1)
    but does not change how the solve runs: every multiplier sweep is one
    batch on the calling thread, so results do not depend on it.
    """

    card_w: int | None = None
    seed: int = 0
    threads: int = 1


@dataclass(frozen=True)
class SolveReport:
    """Telemetry for one solve; objective is an upper bound on C_gamma.

    restarts_used counts the descent runs in the run cloud: the runs above
    1/(M - 1) up to the first multiplier that meets gamma, so 0 when TC <=
    gamma and nothing is descended. lam, iterations and converged describe
    the selected run. The constant coupling and the relaxation-0
    fallback coupling report lam 0.0, 0 iterations and converged True, so
    lam is never a skipped multiplier.
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
    The batch is compacted as runs freeze, and with a budget above 0 the
    runs above theta, the lowest multiplier whose current iterate meets the
    budget, are parked (descend); neither can change any run's outcome.
    One batch holds every run of a sweep: splitting it over threads only
    adds Python iteration loops that the GIL serialises.

    Inside the engine every array is latent-major: q, log q and the
    gradient are (W, runs, cells), and the packed marginal logs are
    (W, runs, 1 + sum_i c_i). A max or sum over W is then one reduction
    over the leading axis along contiguous runs x cells rows, and a per-run
    scale (the step, the multiplier) or a per-cell one (p(c), the p_i
    weights) broadcasts over those rows without a copy. Besides q0 and the
    output, a descent holds about six arrays of q's size at once: q, its
    log and its gradient, a candidate with its log, and one scratch
    product.

    Every source symbol of the table must have positive mass; the sweep
    drops zero-mass symbols before it builds an engine.

    Every marginal comes from one product with the fixed incidence matrix
    ``S`` of shape cells x (1 + sum_i c_i): column 0 is all ones and gives
    q(w), and one 0/1 column per source symbol gives q(w, x_i). The
    gradient scatters the logs of those marginals back onto the cells
    through S^T. Each product runs on the (runs, W, cells) view, one BLAS
    call per run with one fixed shape, so BLAS takes the same kernel for a
    run whatever else the batch holds, and a run's bits do not depend on
    the batch.
    """

    def __init__(self, pmf, card_w: int):
        self.pmf = pmf
        self.cards = pmf.shape
        self.n_src = pmf.ndim
        self.n_cells = pmf.size
        self.card_w = card_w
        self.tc = _total_correlation(pmf)  # relaxation of constant W
        # column 0, then each source's block of symbol columns
        self.starts = np.cumsum((0, 1) + self.cards[:-1])
        cells = np.indices(self.cards).reshape(self.n_src, -1).T
        self.S = np.zeros((pmf.size, 1 + sum(self.cards)))
        self.S[:, 0] = 1.0
        self.S[np.arange(pmf.size)[:, None], self.starts[1:] + cells] = 1.0
        # per column of S: the p_i weight, 1 for q(w); every p_i is positive
        self.p_wt = np.concatenate([[1.0]] + source_marginals(pmf))
        self.p_c = pmf.ravel()  # p(c) of each cell

    # -- functionals ---------------------------------------------------

    def _parts(self, q, lq=None):
        """Per-run (log q, logs, F) with J = -H(W|cells), A = -H(W), B_i = -H(W|X_i).

        q is latent-major (W, R, cells); lq is its log when the caller has
        it. logs is (W, R, 1 + sum_i c_i): log q(w), then every log q(w|x_i).
        F is (R, 3 + M): J, A, every B_i, then sum_i B_i.
        """
        W, R, C = q.shape
        joint_w = q * self.p_c
        marg = np.empty((W, R, self.p_wt.size))
        np.matmul(joint_w.transpose(1, 0, 2), self.S, out=marg.transpose(1, 0, 2))
        marg /= self.p_wt
        logs = _safe_log(marg)
        plogp = np.multiply(marg, logs, out=marg)
        plogp *= self.p_wt
        if lq is None:
            lq = _safe_log(q)
        F = np.empty((R, 3 + self.n_src))
        # J sums each run's W x cells block in (w, cell) order, in joint_w's
        # buffer, which the product above no longer needs
        block = joint_w.reshape(R, W, C)
        np.multiply(q.transpose(1, 0, 2), lq.transpose(1, 0, 2), out=block)
        block *= self.p_c
        F[:, 0] = block.reshape(R, -1).sum(axis=1)
        F[:, 1:-1] = np.add.reduceat(plogp.sum(axis=0), self.starts, axis=1)
        F[:, -1] = sum(F[:, 2:-1].T)
        return lq, logs, F

    def _coef(self, lam):
        """Per-run rows (R, 3) of the Lagrangian's coefficients: 1 + lam, (M - 1) lam - 1, lam."""
        return np.stack((1.0 + lam, (self.n_src - 1) * lam - 1.0, lam), axis=1)

    def _objective_relax(self, F):
        obj = F[:, 0] - F[:, 1]
        relax = F[:, 0] + (self.n_src - 1) * F[:, 1] - F[:, -1] + self.tc
        return obj, relax

    def _lagrangian(self, F, coef):
        return coef[:, 0] * F[:, 0] + coef[:, 1] * F[:, 1] - coef[:, 2] * F[:, -1]

    def _gradient(self, parts, coef):
        """The Lagrangian's latent-major gradient over p(cells).

        coef holds one row per run (_coef). On a zero-probability cell it
        moves only q there, which no functional reads.
        """
        lq, logs, _ = parts
        g = coef[:, :1] * lq
        g += logs[..., :1] * coef[:, 1:2]
        scatter = np.empty_like(g)
        np.matmul(
            logs[..., 1:].transpose(1, 0, 2), self.S[:, 1:].T, out=scatter.transpose(1, 0, 2)
        )
        scatter *= coef[:, 2:]
        g -= scatter
        return g

    def _step(self, lq, g, eta):
        z = eta[:, None] * g
        np.subtract(lq, z, out=z)
        z -= z.max(axis=0)
        np.exp(z, out=z)
        np.maximum(z, _PROB_FLOOR, out=z)
        z /= z.sum(axis=0)
        return z

    # -- descent -------------------------------------------------------

    def _round(self, q, parts, G, eta, steps, coef):
        """One step of each given run at its own eta, in place; True where it met _TOL.

        A run whose Lagrangian does not increase takes the step and doubles
        eta (up to _ETA_MAX); any other run keeps its iterate and halves
        eta. The arrays may be views of a larger batch.
        """
        # each entry of a step is at least _PROB_FLOOR / W, so its log needs no floor
        cand = self._step(parts[0], self._gradient(parts, coef), eta)
        cand_parts = self._parts(cand, np.log(cand))
        good = self._lagrangian(cand_parts[2], coef) <= G + 1e-12
        # the run axis is next to last in q, log q, logs and F
        for dst, src in zip((q,) + parts, (cand,) + cand_parts):
            np.copyto(dst, src, where=good[:, None])
        G_new = self._lagrangian(parts[2], coef)
        if not np.all(G_new <= G + 1e-9):
            raise NoConvergence("Lagrangian increased within a run")
        met_tol = good & ((G - G_new) / np.maximum(np.abs(G), 1.0) < _TOL)
        G[:] = G_new
        steps += good
        # eta <= _ETA_MAX already, so the ceiling leaves a halved eta as it is
        np.minimum(eta * np.where(good, _ETA_GROWTH, 0.5), _ETA_MAX, out=eta)
        return met_tol

    def descend(self, q0, lam, budget=None):
        """Run batched descent to convergence or the iteration cap.

        Each round steps every live run up to theta once (_round): one
        step at its own step size eta from the gradient at its iterate, so
        a rejected run retries at the next round with the step that Armijo
        halving tries next. A run freezes when an accepted step's relative
        decrease drops below _TOL (converged), or stuck once eta <
        _ETA_FLOOR (not converged). A run's iterations are its accepted
        steps, plus one for the step that got it stuck. A frozen run's
        results are written out and its rows leave the batch, so the cost
        follows the live runs. A run that reaches _MAX_ITER iterations
        leaves through the same write-out, converged only if that last step
        met _TOL.

        With a budget, lam must ascend. The cut is the lowest multiplier
        with a run frozen at relax <= budget: every live run above it leaves
        the batch unfinished, and only the runs with lam <= cut, a prefix,
        are returned. With a budget above 0, each round first reads theta
        from the F it carries: the lowest multiplier of a live run whose
        current iterate has relax <= budget. Only the live runs with lam <=
        theta, a prefix of the batch, are stepped, through views; the runs
        above are parked, keeping their iterate, eta and step count, and
        resume if theta rises past them or leave with the cut. A run's
        arithmetic does not depend on its batch, so parking changes no
        returned bit. With no budget, a budget of 0 or no live iterate
        within the budget, a round steps the whole batch and slices nothing.
        q0 is (runs, W, *cards). Returns per-run arrays (q, obj, relax,
        iters, converged), with q in q0's layout.
        """
        R, W, C = len(q0), self.card_w, self.n_cells
        q = np.array(np.asarray(q0, dtype=float).reshape(R, W, C).transpose(1, 0, 2), order="C")
        lam = np.asarray(lam, dtype=float)
        q_out = np.empty((R, W, C))
        obj_out = np.empty(R)
        relax_out = np.empty(R)
        iters = np.empty(R, dtype=int)
        converged = np.zeros(R, dtype=bool)
        if R == 0:
            return q_out.reshape((R, W) + self.cards), obj_out, relax_out, iters, converged
        park = budget is not None and budget > 0
        cut = np.inf  # no live run is above it
        live = np.arange(R)  # output index of each batch row
        eta = np.full(R, _ETA_INIT)
        steps = np.zeros(R, dtype=int)  # accepted steps of each batch row
        coef = self._coef(lam)  # its last column is each batch row's lam
        parts = self._parts(q)
        G = self._lagrangian(parts[2], coef)
        while live.size:
            m = live.size
            if park:
                met = self._objective_relax(parts[2])[1] <= budget
                if met.any():  # theta is the first such row's lam
                    m = int(coef[:, 2].searchsorted(coef[met.argmax(), 2], side="right"))
            if m < live.size:
                met_tol = np.zeros(live.size, dtype=bool)
                head = (parts[0][:, :m], parts[1][:, :m], parts[2][:m])
                met_tol[:m] = self._round(q[:, :m], head, G[:m], eta[:m], steps[:m], coef[:m])
            else:
                met_tol = self._round(q, parts, G, eta, steps, coef)
            # a parked run has eta >= _ETA_FLOOR and fewer than _MAX_ITER steps
            stuck = eta < _ETA_FLOOR
            done = stuck | met_tol | (steps == _MAX_ITER)
            if done.any():
                out = live[done]
                q_out[out] = q[:, done].transpose(1, 0, 2)
                obj_out[out], relax_out[out] = self._objective_relax(parts[2][done])
                iters[out] = (steps + stuck)[done]
                converged[out] = met_tol[done]
                if budget is not None:
                    cut = coef[done, 2][relax_out[out] <= budget].min(initial=cut)
                keep = ~done & (coef[:, 2] <= cut)
                # compress, not a[:, keep]: numpy lays that result out run-major
                live, G, eta, steps, coef = (a[keep] for a in (live, G, eta, steps, coef))
                q, lq, logs = (a.compress(keep, axis=1) for a in (q,) + parts[:2])
                parts = (lq, logs, parts[2][keep])
        n = int(np.count_nonzero(lam <= cut))
        outs = q_out.reshape((R, W) + self.cards), obj_out, relax_out, iters, converged
        return tuple(a[:n] for a in outs)


# ---------------------------------------------------------------------------
# sweep orchestration and selection
# ---------------------------------------------------------------------------

_OPTION_MINIMA = {"threads": 1, "seed": 0}


def _check_options(opts: SolverOptions) -> None:
    """ValueError unless every field of opts is an integer in range (card_w may be None)."""
    for name, value in vars(opts).items():
        if (name != "card_w" or value is not None) and not _is_int(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    for name, low in _OPTION_MINIMA.items():
        if getattr(opts, name) < low:
            raise ValueError(f"{name} must be >= {low}, got {getattr(opts, name)}")


def _reduce(pmf):
    """(table, classes): pmf with zero-mass symbols dropped and interchangeable symbols merged.

    Per source i, symbols a and b share a class when their normalised
    slices p(x_i = a, .) / p(x_i = a) of the given table are exactly equal
    as floats; classes are numbered in order of first appearance, and a
    zero-mass symbol's class is -1. The merged table sums each class's
    slices, which leaves C_gamma unchanged for every gamma: a coupling of
    it lifts by q(w|x) = q'(w|class(x)) with the same I(X_1..X_M;W) and
    relaxation. A source whose classes are its symbols keeps its slices
    as they are, so a table with nothing to merge is returned itself.
    """
    classes, reduced = [], pmf
    for i, mass in enumerate(source_marginals(pmf)):
        cls = np.full(mass.size, -1)
        first = {}
        for a in np.flatnonzero(mass > 0):
            key = tuple((np.take(pmf, a, axis=i) / mass[a]).ravel().tolist())
            cls[a] = first.setdefault(key, len(first))
        classes.append(cls)
        if not np.array_equal(cls, np.arange(mass.size)):
            slices = np.moveaxis(reduced, i, 0)
            merged = np.zeros((len(first),) + slices.shape[1:])
            np.add.at(merged, cls[cls >= 0], slices[cls >= 0])
            reduced = np.moveaxis(merged, 0, i)
    return reduced, tuple(classes)


class _Sweep:
    """Run cloud for one joint pmf: the trivial coupling, then one grid of descent runs.

    The options, the joint's size (against MAX_STATES) and card_w are
    checked on the given table before anything is allocated. The sweep
    then runs on its reduction (_reduce), with card_w clamped to the
    reduced cells + 1, and lift maps a cloud entry back. Each field holds
    one entry per run in execution order: coupling q on the reduced table,
    objective, relaxation, multiplier lam, iterations and convergence
    flag. Entry 0 is the trivial coupling (W independent of the sources);
    the descent runs follow, each multiplier's restarts in order. Runs at
    lam <= 1/(M - 1) are not descended, since entry 0 minimises their
    Lagrangian, and the cloud does not hold them. The descent, given the
    ascending multipliers and gamma as its budget, returns exactly the runs
    up to the lowest multiplier that holds a run with relax <= gamma, and
    they are the cloud's descended runs; entry 0 meets gamma at the skipped
    multipliers when TC <= gamma, and then nothing is descended. The cloud
    is complete when built: it serves a point solve at gamma and a curve
    from gamma alike. When no entry has relax <= gamma + _SLACK (feasible)
    the cloud ends with the relaxation-0 fallback coupling. Raises
    Infeasible when that coupling does not fit card_w, then NoConvergence
    when runs were descended and none converged.
    """

    def __init__(self, joint: DiscreteJoint, opts: SolverOptions, gamma: float):
        _check_options(opts)
        n_states = joint.pmf.size
        _check_cells(n_states)
        self.card_w = _check_card_w(n_states + 1 if opts.card_w is None else opts.card_w, n_states)
        self.cards = joint.pmf.shape
        pmf, self.classes = _reduce(joint.pmf)
        engine = self.engine = _Engine(pmf, min(self.card_w, pmf.size + 1))
        lam = np.repeat(np.geomspace(_LAMBDA_MIN, _LAMBDA_GRID_MAX, _N_LAMBDA), _RESTARTS)
        q0 = np.random.default_rng(opts.seed).random((lam.size, engine.card_w) + pmf.shape)
        q0 /= q0.sum(axis=1, keepdims=True)
        # runs below lo are not descended: entry 0 minimises F_lam at lam <= 1/(M - 1),
        # and when TC <= gamma it meets gamma there
        line = 1.0 / (engine.n_src - 1)
        lo = lam.size if engine.tc <= gamma else int(np.searchsorted(lam, line, side="right"))
        q, obj, relax, iters, converged = engine.descend(q0[lo:], lam[lo:], gamma)
        lam = lam[lo:lo + obj.size]
        trivial = np.full((1, engine.card_w) + pmf.shape, 1.0 / engine.card_w)
        entries = [(trivial, [0.0], [engine.tc], [0.0], [0], [True]),
                   (q, obj, relax, lam, iters, converged)]
        best = float(relax.min(initial=engine.tc))  # the cloud's smallest relaxation
        if best > gamma + _SLACK:
            entries.append(self._fallback(gamma, best, obj.size))
        self.q, self.obj, self.relax, self.lam, self.iters, self.converged = (
            np.concatenate(field) for field in zip(*entries)
        )
        if converged.size and not converged.any():
            raise NoConvergence(f"no descent run met tol={_TOL:g} within {_MAX_ITER} iterations")

    def _fallback(self, gamma, best, runs):
        """The entry W = every source but the one with the largest alphabet (the first on a tie).

        Given W, the sources are deterministic but one, so the relaxation is
        exactly 0 and the objective is H(X_-m). Alphabets are those of the
        reduced table. Raises Infeasible, naming the `runs` descended, when
        card_w is below that W's alphabet.
        """
        engine = self.engine
        m = int(np.argmax(engine.cards))
        rest = engine.cards[:m] + engine.cards[m + 1:]
        needed = math.prod(rest)
        if engine.card_w < needed:
            raise Infeasible(
                f"no coupling reached I-relaxation <= {gamma + _SLACK:.3e} (best achieved "
                f"{best:.3e}), and card_w={engine.card_w} is below the {needed} symbols of the "
                f"relaxation-0 coupling W = every source but source {m}; use card_w >= {needed}",
                details={
                    "gamma": gamma,
                    "slack": _SLACK,
                    "best_achieved_gamma": best,
                    "card_w": engine.card_w,
                    "card_w_needed": needed,
                    "runs_executed": runs,
                },
            )
        w = np.ravel_multi_index(np.delete(np.indices(engine.cards), m, axis=0), rest)
        q = np.arange(engine.card_w).reshape((-1,) + (1,) * engine.n_src) == w
        h_w = -_plogp(engine.pmf.sum(axis=m)).sum()
        return q[None].astype(float), [h_w], [0.0], [0.0], [0], [True]

    def select(self, gamma) -> int:
        """Index of the best run feasible for gamma under a slope-penalized score.

        Only reads the cloud; gamma must be at least the sweep's own. The
        score obj + _LAMBDA_GRID_MAX * max(0, relax - gamma) charges a run's
        constraint overshoot back at the steepest swept slope, so near-tight
        frontier points beat ones that merely exploit the slack. Ties go to
        the earlier entry: lambda ascends through the cloud, the restarts of
        one lambda are in order, and a fallback entry is the only feasible one.
        """
        score = self.obj + _LAMBDA_GRID_MAX * np.maximum(0.0, self.relax - gamma)
        return int(np.argmin(np.where(self.relax <= gamma + _SLACK, score, np.inf)))

    def lift(self, q):
        """A cloud entry's coupling on the given table: q(w|x) = q'(w|class(x)).

        Zero rows pad it up to the requested card_w. A zero-mass symbol's
        cells take class 0's slices, which no functional reads.
        """
        out = np.zeros((self.card_w,) + self.cards)
        out[:len(q)] = q[(slice(None),) + np.ix_(*(np.maximum(c, 0) for c in self.classes))]
        return out


def solve_relaxed_wyner(joint: DiscreteJoint, gamma: float, opts: SolverOptions | None = None):
    """Upper-bound solver for relaxed Wyner common information of M >= 2 sources.

    The relaxation functional is sum_i H(X_i|W) - H(X_1..X_M|W), which is
    I(X;Y|W) for a pair. Returns (Coupling, SolveReport). The report's
    objective is I(X_1..X_M;W) of the returned coupling, an upper bound on
    C at achieved_gamma, that one run's relaxation, <= gamma + _SLACK
    (5e-3). The grid sweep stops at the first multiplier that holds a run
    with relaxation <= gamma: the descent returns no run at a higher
    multiplier, so the run cloud that select scores holds none, and
    restarts_used counts the descent runs it holds. When no run meets
    gamma + slack, the answer is the relaxation-0 coupling W = every source
    but the one with the largest alphabet, whose objective is that W's
    entropy. The sweep runs on the reduced table (_reduce), with card_w
    clamped to its cells + 1, and the coupling is lifted back: q(w|x) =
    q'(w|class(x)), padded with zero rows to the requested card_w (default:
    the given table's cells + 1). Raises TooLarge when the joint has more
    than MAX_STATES cells, Infeasible when that coupling is needed but
    card_w is below its alphabet, NoConvergence when runs were descended
    and none converged, and ValueError for a negative or non-finite gamma
    or an option out of range.
    """
    opts = opts or SolverOptions()
    gamma = _check_budget(gamma)
    sweep = _Sweep(joint, opts, gamma)
    i = sweep.select(gamma)
    coupling = build_coupling(sweep.lift(sweep.q[i]), joint)
    report = SolveReport(
        achieved_gamma=InfoValue(max(float(sweep.relax[i]), 0.0)),
        objective=InfoValue(max(float(sweep.obj[i]), 0.0)),
        lam=float(sweep.lam[i]),
        iterations=int(sweep.iters[i]),
        restarts_used=int(np.count_nonzero(sweep.lam)),
        converged=bool(sweep.converged[i]),
    )
    return coupling, report


solve_relaxed_wyner_multi = solve_relaxed_wyner


# ---------------------------------------------------------------------------
# trade-off curve
# ---------------------------------------------------------------------------

def _lower_convex_envelope(points):
    """Vertices (hx ascending, hy) of the lower convex hull of achievable (gamma, value) points.

    A value achievable at gamma' <= gamma is achievable at gamma, so the
    hull's rising right end is cut at its lowest vertex.
    """
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
    return np.array([h[0] for h in hull]), np.minimum.accumulate([h[1] for h in hull])


def ci_curve_discrete(joint: DiscreteJoint, grid, opts: SolverOptions | None = None):
    """Upper-bound C_gamma curve over a gamma grid.

    One multiplier sweep, the one a point solve at grid[0] builds (cut at
    the first multiplier that meets grid[0]), serves the whole grid; the
    reported upper bound at each grid point is the lower convex envelope of
    all achieved (I(X;Y|W), I(X,Y;W)) sweep points, the relaxation-0
    fallback coupling among them when no run meets grid[0] + slack (valid
    by time sharing, since C_gamma is convex in gamma). Returns [(gamma,
    upper_bound, achieved_gamma)]: achieved_gamma is the abscissa where the
    envelope reaches upper_bound, gamma clamped to the hull between its
    left end (within the slack of grid[0]) and its lowest vertex.
    """
    opts = opts or SolverOptions()
    grid = _check_grid(grid)
    sweep = _Sweep(joint, opts, float(grid[0]))
    hx, hy = _lower_convex_envelope(zip(sweep.relax.tolist(), sweep.obj.tolist()))
    achieved = np.clip(grid, hx[0], hx[np.argmin(hy)])
    env, achieved = np.maximum([np.interp(grid, hx, hy), achieved], 0.0)  # as in a point solve
    return [(float(g), float(u), float(a)) for g, u, a in zip(grid, env, achieved)]
