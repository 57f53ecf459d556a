"""Shared fixtures and independent oracles for the test suite."""

import csv
import io
import json
import math
import statistics
import tempfile
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import configuration, settings

from cica import cca_decompose, component_count, discrete_ci, validate_gaussian, waterfill
from cica.discrete_ci import _ETA_FLOOR, _ETA_GROWTH, _ETA_INIT, _ETA_MAX
from cica.errors import NoConvergence
from cica.gaussian_ci import _check_rho
from cica.model import source_marginals

# the same examples on every run, no example database on disk, and no
# deadline, whose wall-clock test would make a pass depend on host load
settings.register_profile("cica", derandomize=True, database=None, deadline=None)
settings.load_profile("cica")
# hypothesis caches the constants it reads from local modules even without a
# database, at collection time; a temporary home keeps that cache out of the
# checkout and is removed when the session's interpreter exits
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="cica-hypothesis-")
configuration.set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


def random_gaussian_joint(rng, dim_x, dim_y, spread=1.0):
    """Random valid joint built from a full PSD block covariance."""
    d = dim_x + dim_y
    b = rng.standard_normal((d, d)) * spread
    cov = b @ b.T + 0.5 * d * np.eye(d)
    return validate_gaussian(
        cov[:dim_x, :dim_x], cov[dim_x:, dim_x:], cov[:dim_x, dim_x:]
    )


def whitened_diag_joint(rho):
    """Already-whitened joint with prescribed canonical correlations."""
    rho = np.asarray(rho, dtype=float)
    n = rho.size
    return validate_gaussian(np.eye(n), np.eye(n), np.diag(rho))


def random_basis_joint(rng, rho):
    """Joint whose canonical correlations are exactly rho, behind random bases.

    The blocks are k_x = A A^T, k_y = B B^T and k_xy = A U diag(rho) V^T B^T
    with U, V random orthogonal and A, B random orthogonal times scales in
    [0.5, 2], so whitening and the SVD both add round-off.
    """
    rho = np.asarray(rho, dtype=float)
    n = rho.size

    def orthogonal():
        q, r = np.linalg.qr(rng.standard_normal((n, n)))
        return q * np.sign(np.diag(r))

    a = orthogonal() * rng.uniform(0.5, 2.0, n)
    b = orthogonal() * rng.uniform(0.5, 2.0, n)
    k_xy = a @ (orthogonal() * rho) @ orthogonal().T @ b.T
    return validate_gaussian(a @ a.T, b @ b.T, k_xy)


def block_covariance(joint):
    """Stacked (dim_x + dim_y) covariance [[K_x, K_xy], [K_xy^T, K_y]] of a GaussianJoint."""
    return np.block([[joint.k_x, joint.k_xy], [joint.k_xy.T, joint.k_y]])


def sample_joint(joint, n, rng):
    """Draw n paired samples from a GaussianJoint via Cholesky."""
    cov = block_covariance(joint)
    chol = np.linalg.cholesky(cov)
    z = rng.standard_normal((n, cov.shape[0])) @ chol.T
    return z[:, : joint.dim_x], z[:, joint.dim_x :]


def reference_sample_joint(x, y, ridge):
    """estimate_gaussian's joint from 2-D samples with its rows in full np.lexsort order.

    The keys are every column, x's first leading, as one stacked array;
    ridge is added to both diagonal blocks.
    """
    order = np.lexsort(np.hstack([x, y]).T[::-1])
    xc, yc = (a[order] - a[order].mean(axis=0) for a in (x, y))
    n = x.shape[0]
    return validate_gaussian(
        xc.T @ xc / (n - 1) + ridge * np.eye(x.shape[1]),
        yc.T @ yc / (n - 1) + ridge * np.eye(y.shape[1]),
        xc.T @ yc / (n - 1),
    )


def gauss_mi(cov, idx_a, idx_b):
    """I(A;B) of a Gaussian vector from covariance determinants (nats)."""
    idx_a = list(idx_a)
    idx_b = list(idx_b)
    ca = cov[np.ix_(idx_a, idx_a)]
    cb = cov[np.ix_(idx_b, idx_b)]
    cab = cov[np.ix_(idx_a + idx_b, idx_a + idx_b)]
    return 0.5 * (
        np.linalg.slogdet(ca)[1] + np.linalg.slogdet(cb)[1] - np.linalg.slogdet(cab)[1]
    )


def gauss_cond_mi(cov, idx_a, idx_b, idx_c):
    """I(A;B|C) of a Gaussian vector from covariance determinants (nats)."""
    idx_a = list(idx_a)
    idx_b = list(idx_b)
    idx_c = list(idx_c)
    def logdet(idx):
        if not idx:
            return 0.0
        return np.linalg.slogdet(cov[np.ix_(idx, idx)])[1]
    return 0.5 * (
        logdet(idx_a + idx_c)
        + logdet(idx_b + idx_c)
        - logdet(idx_c)
        - logdet(idx_a + idx_b + idx_c)
    )


def relaxed_ci_log_form(rho, gamma):
    """C(rho, gamma) of a scalar Gaussian pair from the paper's log form, elementwise in gamma.

    0.5 ln[(1+rho)(1-s) / ((1-rho)(1+s))] with s = sqrt(1 - e^{-2 gamma}),
    clipped at 0 (the ratio is at most 1 once gamma >= I(rho)). One np.log
    of the ratio, not a sum of log1p terms; s uses expm1, which keeps it
    accurate for budgets below machine epsilon.
    """
    s = np.sqrt(-np.expm1(-2.0 * np.asarray(gamma, dtype=float)))
    with np.errstate(divide="ignore"):  # s = 1 at very large budgets: ln 0 = -inf, clipped
        val = 0.5 * np.log(((1 + rho) * (1 - s)) / ((1 - rho) * (1 + s)))
    return np.maximum(val, 0.0)


def mutual_info_rho(rho):
    """I(rho) = 0.5 ln 1/(1 - rho^2) nats of a unit-variance Gaussian pair.

    A rho outside [0, 1) raises RhoOutOfRange from the library's spectrum check.
    """
    rho = float(rho)
    _check_rho(rho)
    return -0.5 * math.log1p(-rho * rho)


def dsbs_wyner(a0):
    """Wyner common information of a DSBS with flip probability a0, in nats.

    Wyner's closed form 1 + h(a0) - 2 h(a1), with a1 = (1 - sqrt(1 - 2 a0)) / 2
    and h the binary entropy, is stated in bits and converted here.
    """
    def h_bits(p):
        return -sum(q * math.log2(q) for q in (p, 1.0 - p) if q > 0)

    a1 = (1.0 - math.sqrt(1.0 - 2.0 * a0)) / 2.0
    return max(1.0 + h_bits(a0) - 2.0 * h_bits(a1), 0.0) * math.log(2.0)


def quantized_gaussian(rho, n, panel=0.25, nodes=20):
    """Cell masses of a standard normal pair with correlation rho, n equiprobable bins each.

    P(X in [a, b], Y in [c, d]) is the integral over [a, b] of
    phi(x) (Phi((d - rho x) / s) - Phi((c - rho x) / s)) with
    s = sqrt(1 - rho^2). Each X bin, truncated to [-9, 9], is split into
    panels at most ``panel`` wide with ``nodes`` Gauss-Legendre nodes each;
    Phi comes from math.erf and the bin edges from statistics.NormalDist,
    so no scipy is needed. The masses are renormalised over the truncation.
    """
    inner = [statistics.NormalDist().inv_cdf(k / n) for k in range(1, n)]
    x_edges = [-9.0] + inner + [9.0]
    y_edges = np.array([-math.inf] + inner + [math.inf])
    s = math.sqrt(1.0 - rho * rho)
    t, w = np.polynomial.legendre.leggauss(nodes)
    erf = np.vectorize(math.erf)
    pmf = np.zeros((n, n))
    for i in range(n):
        lo, hi = x_edges[i], x_edges[i + 1]
        cuts = np.linspace(lo, hi, 1 + math.ceil((hi - lo) / panel))
        half = np.diff(cuts)[:, None] / 2.0
        x = ((cuts[:-1, None] + half) + half * t).ravel()
        dens = (half * w).ravel() * np.exp(-x * x / 2.0) / math.sqrt(2.0 * math.pi)
        cdf = 0.5 * (1.0 + erf((y_edges[:, None] - rho * x) / (s * math.sqrt(2.0))))
        pmf[i] = (np.diff(cdf, axis=0) * dens).sum(axis=1)
    return pmf / pmf.sum()


@dataclass(frozen=True)
class GaussianLatentSpec:
    """Latent construction W = U_k^T x_hat + V_k^T y_hat + Z for one budget."""

    u_k: np.ndarray
    v_k: np.ndarray
    noise_cov: np.ndarray
    k: int


def gaussian_latent(joint, gamma):
    """The paper's achievability construction for the water-filled budgets at gamma.

    The per-component noise variance (1 - rho^2)(1 + s) / (rho - s) with
    s = sqrt(1 - e^{-2 gamma_i}) makes component i attain exactly
    I(X_i;Y_i|W_i) = gamma_i and I(X_i,Y_i;W_i) = C_{gamma_i}(rho_i).
    gamma >= sum_i I(rho_i) yields the empty (k = 0) spec.
    """
    basis = cca_decompose(joint)
    k = component_count(basis.rho, gamma)
    rho = basis.rho[:k]
    s = np.sqrt(-np.expm1(-2.0 * waterfill(basis.rho, gamma).gamma_i[:k]))
    noise = (1.0 - rho * rho) * (1.0 + s) / (rho - s)
    return GaussianLatentSpec(basis.u[:, :k], basis.v[:, :k], np.diag(noise), k)


def discrete_embedding_oracle(pmf, q, w_values, version):
    """Per-source discrete embedding features by loops over the joint's cells.

    q is p(w | x_1..x_M). "cond_exp" gives E[W | x_i] = sum over the other
    symbols of p(x | x_i) E[W | x]; "marginal" weights E[W | x] by the
    product of the other sources' marginals instead.
    """
    m = pmf.ndim
    marginals = [pmf.sum(axis=tuple(j for j in range(m) if j != i)) for i in range(m)]
    maps = [np.zeros(card) for card in pmf.shape]
    for cell in np.ndindex(*pmf.shape):
        mean = sum(w_values[w] * q[(w,) + cell] for w in range(q.shape[0]))
        for i in range(m):
            if version == "cond_exp":
                weight = pmf[cell] / marginals[i][cell[i]]
            else:
                weight = math.prod(marginals[j][cell[j]] for j in range(m) if j != i)
            maps[i][cell[i]] += weight * mean
    return maps


def leading_pair_fixed_point(canonical, tol: float = 1e-12, max_iter: int = 100_000):
    """Leading singular triple by alternating Cauchy-Schwarz updates.

    Alternates u <- K v / ||K v|| and v <- K^T u / ||K^T u|| from a
    deterministic seeded start until successive rho estimates change by
    less than tol. Serves as an SVD-independent oracle for the top CCA
    component. Raises NoConvergence when max_iter is reached, which for a
    well-posed input signals a near-degenerate rho_1 ~ rho_2 spectrum.
    """
    k = np.asarray(canonical, dtype=float)
    if k.ndim != 2 or not np.any(np.abs(k) > 0):
        raise ValueError("canonical matrix must be a nonzero 2-D array")
    rng = np.random.default_rng(0)
    v = rng.standard_normal(k.shape[1])
    v /= np.linalg.norm(v)
    # restart if the seeded start is (numerically) in the null space
    for _ in range(10):
        if np.linalg.norm(k @ v) > 1e-14:
            break
        v = rng.standard_normal(k.shape[1])
        v /= np.linalg.norm(v)
    rho_prev = -np.inf
    for _ in range(max_iter):
        u = k @ v
        u_norm = np.linalg.norm(u)
        u = u / u_norm
        v = k.T @ u
        rho = np.linalg.norm(v)
        v = v / rho
        if abs(rho - rho_prev) < tol:
            return u, v, float(rho)
        rho_prev = rho
    raise NoConvergence(
        f"rho estimate still moving after {max_iter} iterations; "
        "the top two singular values may be degenerate"
    )


def latent_major(q):
    """A (runs, W, *cards) batch in the engine's (W, runs, cells) layout."""
    q = np.asarray(q)
    return np.ascontiguousarray(q.reshape(q.shape[:2] + (-1,)).transpose(1, 0, 2))


def reference_descend(engine, q0, lam):
    """The batched descent before frozen runs left the batch, kept as an oracle.

    Every iteration evaluates every run, frozen or not, and every
    backtracking round evaluates the whole batch; the accepted step is then
    recomputed. Runs are independent, so the compacting engine must return
    exactly these arrays (q, obj, relax, iters, converged). q0 and the
    returned q are (runs, W, *cards); the loop runs on the engine's
    latent-major (W, runs, cells) layout. The iteration cap and the stopping
    tolerance are the solver's, read when the oracle runs.
    """
    max_iter, tol = discrete_ci._MAX_ITER, discrete_ci._TOL
    q = latent_major(q0)
    lam = np.asarray(lam, dtype=float)
    R = lam.size
    eta = np.full(R, _ETA_INIT)
    frozen = np.zeros(R, dtype=bool)
    iters = np.zeros(R, dtype=int)
    coef = engine._coef(lam)
    parts = engine._parts(q)
    G = engine._lagrangian(parts[2], coef)
    for it in range(max_iter):
        if frozen.all():
            break
        g = engine._gradient(parts, coef)
        ok = frozen.copy()
        eta_acc = np.zeros(R)  # zero step for runs that never descend
        while not ok.all():
            cand = engine._step(parts[0], g, eta)
            G_c = engine._lagrangian(engine._parts(cand)[2], coef)
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
        q = np.where(frozen[:, None], q, engine._step(parts[0], g, eta_acc))
        parts = engine._parts(q)
        G_new = engine._lagrangian(parts[2], coef)
        if not np.all(G_new <= G + 1e-9):
            raise NoConvergence("Lagrangian increased within a run")
        rel = (G - G_new) / np.maximum(np.abs(G), 1.0)
        newly = (~frozen) & (rel < tol)
        iters[newly] = it + 1
        converged_now = frozen | newly
        G = G_new
        frozen = converged_now
        eta = np.where(frozen, eta, np.minimum(eta * _ETA_GROWTH, _ETA_MAX))
    converged = frozen.copy()
    iters[~frozen] = max_iter
    obj, relax = engine._objective_relax(parts[2])
    q = np.ascontiguousarray(q.transpose(1, 0, 2)).reshape(np.shape(q0))
    return q, obj, relax, iters, converged


def reference_functionals(pmf, q, lam):
    """One run's F = [J, A, B_1..B_M] and Lagrangian gradient, source by source.

    Each q(w, x_i) is its own marginal sum and each log q(w|x_i) is
    broadcast back onto the cells one source at a time, as the engine did
    before one incidence product gave every marginal. q has shape (W, *cards).
    """
    n_src = pmf.ndim
    joint_w = q * pmf
    q_w = joint_w.reshape(q.shape[0], -1).sum(axis=1)
    l_w = np.log(np.maximum(q_w, 1e-300))
    l_q = np.log(np.maximum(q, 1e-300))
    F = [(pmf * q * l_q).sum(), (q_w * l_w).sum()]
    g = (1.0 + lam) * l_q + ((n_src - 1) * lam - 1.0) * l_w.reshape((-1,) + (1,) * n_src)
    for i, (num, p_i) in enumerate(zip(source_marginals(joint_w, lead=1), source_marginals(pmf))):
        l_cond = np.log(np.maximum(np.where(p_i > 0, num / np.maximum(p_i, 1e-300), 0.0), 1e-300))
        F.append((num * l_cond).sum())
        shape = (-1,) + tuple(c if a == i else 1 for a, c in enumerate(pmf.shape))
        g -= lam * l_cond.reshape(shape)
    g[:, pmf <= 0] = 0.0
    return np.array(F), g


def reference_read_csv_matrix(path):
    """The sample-CSV reader before numpy's text reader: csv rows, float() per cell."""
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    if len(rows) < 2:
        raise ValueError(f"{path}: expected a header row plus data rows")
    data = [[float(cell) for cell in row] for row in rows[1:] if row]
    return np.asarray(data, dtype=float)


def _reference_jsonable(x):
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, dict):
        return {k: _reference_jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_reference_jsonable(v) for v in x]
    return x


def reference_report_text(report):
    """A report's text as json's own indented encoder writes it."""
    buffer = io.StringIO()
    json.dump(_reference_jsonable(report), buffer, indent=2, sort_keys=True)
    buffer.write("\n")
    return buffer.getvalue()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
