"""Classical CCA on a validated Gaussian joint model.

Provides the full decomposition (sorted canonical correlations plus the
singular-vector bases) and top-k projections of raw observations.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BadK, PerfectCorrelation
from .model import GaussianJoint, _frozen_array
from .whitening import _PERFECT_RHO, _ZERO_RHO, _whitened_svd
from .whitening import canonical_matrix  # noqa: F401  (unused here; the benchmark tracer patches it)


@dataclass(frozen=True)
class CcaBasis:
    """Ordered canonical correlations with their singular-vector bases.

    Columns of u and v follow a deterministic sign convention: the entry of
    largest magnitude in each column of u is positive (ties broken by lowest
    index), and v's columns are flipped together with u's so that
    canonical^T u_i = rho_i v_i holds with nonnegative scale.
    """

    rho: np.ndarray
    u: np.ndarray
    v: np.ndarray
    w_x: np.ndarray
    w_y: np.ndarray

    @property
    def n_components(self) -> int:
        return self.rho.size


def cca_decompose(joint: GaussianJoint) -> CcaBasis:
    """Canonical correlations and sign-fixed bases from one whitened SVD.

    rho comes out sorted descending (LAPACK's order) with values below
    1e-12 set to 0. Raises PerfectCorrelation when rho_1 >= 1 - 1e-9, where
    the per-component mutual information I(rho) diverges; this includes
    every correlation within 1e-6 of 1, which the whitening step clamps to
    1 - 1e-9 with a warning.
    """
    pair, (u, s, vh) = _whitened_svd(joint)
    if s.size and s[0] >= _PERFECT_RHO:
        raise PerfectCorrelation(
            f"leading canonical correlation {s[0]:.12f} >= 1 - 1e-9"
        )
    rho = np.where(s < _ZERO_RHO, 0.0, s)
    v = np.ascontiguousarray(vh.T)
    cols = np.arange(rho.size)
    # the sign of each column's largest-magnitude entry (argmax takes the first)
    u_signs = np.sign(u[np.abs(u).argmax(axis=0), cols])
    # zero-correlation columns fix v's sign on their own
    v_signs = np.where(rho > _ZERO_RHO, u_signs, np.sign(v[np.abs(v).argmax(axis=0), cols]))
    return CcaBasis(
        rho=_frozen_array(rho),
        u=_frozen_array(u * u_signs),
        v=_frozen_array(v * v_signs),
        w_x=pair.w_x,
        w_y=pair.w_y,
    )


def _check_k(k, n: int) -> None:
    """BadK unless 1 <= k <= n."""
    if not 1 <= k <= n:
        raise BadK(f"k must be in [1, {n}], got {k}")


def cca_project(basis: CcaBasis, k: int, x, y):
    """Top-k CCA components of raw observations x and y.

    Returns (U_k^T W_x x, V_k^T W_y y). x and y may be single vectors or
    arrays of row observations. Raises BadK unless 1 <= k <= n.
    """
    _check_k(k, basis.n_components)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    u_feat = x @ basis.w_x @ basis.u[:, :k]
    v_feat = y @ basis.w_y @ basis.v[:, :k]
    return u_feat, v_feat
