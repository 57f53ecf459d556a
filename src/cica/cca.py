"""Classical CCA on a validated Gaussian joint model.

Provides the full decomposition (sorted canonical correlations plus the
singular-vector bases) and top-k projections of raw observations.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BadK, PerfectCorrelation
from .model import GaussianJoint, _frozen_array
from .whitening import WhitenedPair, canonical_matrix

_PERFECT_RHO = 1.0 - 1e-9
_ZERO_RHO = 1e-12


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


def _apply_sign_convention(u, v, rho):
    u = u.copy()
    v = v.copy()
    for j in range(u.shape[1]):
        i = int(np.argmax(np.abs(u[:, j])))
        if u[i, j] < 0:
            u[:, j] = -u[:, j]
            if rho[j] > _ZERO_RHO:
                v[:, j] = -v[:, j]
        if rho[j] <= _ZERO_RHO:
            # zero-correlation columns: fix v's sign independently
            i = int(np.argmax(np.abs(v[:, j])))
            if v[i, j] < 0:
                v[:, j] = -v[:, j]
    return u, v


def cca_decompose(joint: GaussianJoint, pair: WhitenedPair | None = None) -> CcaBasis:
    """Full SVD of the whitened cross-covariance, sorted and sign-fixed.

    Raises PerfectCorrelation when some rho_i >= 1 - 1e-9, where the
    per-component mutual information I(rho) diverges.
    """
    if pair is None:
        pair = canonical_matrix(joint)
    u, s, vh = np.linalg.svd(pair.canonical, full_matrices=False)
    order = np.argsort(-s, kind="stable")
    s = s[order]
    u = u[:, order]
    v = vh.T[:, order]
    if s.size and s[0] >= _PERFECT_RHO:
        raise PerfectCorrelation(
            f"leading canonical correlation {s[0]:.12f} >= 1 - 1e-9"
        )
    s = np.where(s < _ZERO_RHO, 0.0, s)
    u, v = _apply_sign_convention(u, v, s)
    return CcaBasis(
        rho=_frozen_array(s),
        u=_frozen_array(u),
        v=_frozen_array(v),
        w_x=pair.w_x,
        w_y=pair.w_y,
    )


def cca_project(basis: CcaBasis, k: int, x, y):
    """Top-k CCA components of raw observations x and y.

    Returns (U_k^T W_x x, V_k^T W_y y). x and y may be single vectors or
    arrays of row observations. Raises BadK unless 1 <= k <= n.
    """
    n = basis.n_components
    if not 1 <= k <= n:
        raise BadK(f"k must be in [1, {n}], got {k}")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    u_feat = x @ basis.w_x @ basis.u[:, :k]
    v_feat = y @ basis.w_y @ basis.v[:, :k]
    return u_feat, v_feat
