"""Shared fixtures and independent oracles for the test suite."""

import numpy as np
import pytest

from cica import validate_gaussian
from cica.errors import NoConvergence


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


def sample_joint(joint, n, rng):
    """Draw n paired samples from a GaussianJoint via Cholesky."""
    cov = joint.block_covariance()
    chol = np.linalg.cholesky(cov)
    z = rng.standard_normal((n, cov.shape[0])) @ chol.T
    return z[:, : joint.dim_x], z[:, joint.dim_x :]


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


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
