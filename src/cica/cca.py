"""Classical CCA on a validated Gaussian joint model.

The canonical correlations are the singular values of the whitened
cross-covariance K_x^{-1/2} K_xy K_y^{-1/2}, whose one SVD the validated
joint carries. This module turns it into the sorted, sign-fixed basis and
gives top-k projections.
"""

import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BadK, InconsistentBlock, PerfectCorrelation, ShapeMismatch
from .model import _CLAMP_BAND, GaussianJoint, _frozen_array

#: canonical correlations at or above this are perfect: I(rho) diverges; singular
#: values within _CLAMP_BAND of 1 are clamped to it
_PERFECT_RHO = 1.0 - 1e-9
#: canonical correlations below this are SVD noise and read as exact zeros
_ZERO_RHO = 1e-12


@dataclass(frozen=True)
class CcaBasis:
    """Ordered canonical correlations with their singular-vector bases.

    Columns of u and v follow a deterministic sign convention: the entry of
    largest magnitude in each column of u is positive (ties broken by lowest
    index), and v's columns are flipped together with u's so that
    (w_x K_xy w_y)^T u_i = rho_i v_i holds with nonnegative scale.
    """

    rho: np.ndarray
    u: np.ndarray
    v: np.ndarray
    w_x: np.ndarray
    w_y: np.ndarray

    @property
    def n_components(self) -> int:
        return self.rho.size


def canonical_matrix(joint: GaussianJoint) -> CcaBasis:
    """The CcaBasis of the joint's SVD of K_x^{-1/2} K_xy K_y^{-1/2}; no decomposition runs.

    rho comes out sorted descending (LAPACK's order) with values below
    1e-12 set to 0, and u, v follow CcaBasis's sign convention. Singular
    values within 1e-6 of 1 (sample covariances can overshoot; validation
    refused any above) are clamped to 1 - 1e-9 with a warning at the caller,
    past cca_decompose when it is the caller. Every array is returned
    read-only; w_x and w_y are the joint's own.
    """
    u, s, vh = joint.cross_svd
    near_one = s >= 1.0 - _CLAMP_BAND
    if near_one.any():
        warnings.warn(
            f"{int(near_one.sum())} singular value(s) within 1e-6 of 1 clamped to 1 - 1e-9",
            stacklevel=3 if sys._getframe(1).f_globals is globals() else 2,
        )
        s = np.where(near_one, _PERFECT_RHO, s)
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
        w_x=joint.w_x,
        w_y=joint.w_y,
    )


def cca_decompose(joint: GaussianJoint) -> CcaBasis:
    """canonical_matrix's basis, refused when the leading correlation is perfect.

    Raises PerfectCorrelation when rho_1 >= 1 - 1e-9, where the
    per-component mutual information I(rho) diverges; this includes every
    correlation within 1e-6 of 1, which canonical_matrix clamps to 1 - 1e-9
    with a warning.
    """
    basis = canonical_matrix(joint)
    if basis.rho.size and basis.rho[0] >= _PERFECT_RHO:
        raise PerfectCorrelation(
            f"leading canonical correlation {basis.rho[0]:.12f} >= 1 - 1e-9"
        )
    return basis


def _check_k(k, n: int, low: int = 1) -> None:
    """BadK unless low <= k <= n."""
    if not low <= k <= n:
        raise BadK(f"k must be in [{low}, {n}], got {k}")


def cca_project(basis: CcaBasis, k: int, x, y):
    """Top-k CCA components of raw observations x and y.

    Returns (U_k^T W_x x, V_k^T W_y y). x and y may be single vectors or
    arrays of row observations. Raises BadK unless 1 <= k <= n,
    ShapeMismatch when an observation's width is not its block's dimension
    and InconsistentBlock for non-finite samples.
    """
    _check_k(k, basis.n_components)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    for name, a, w in (("x", x, basis.w_x), ("y", y, basis.w_y)):
        if a.ndim == 0 or a.shape[-1] != w.shape[0]:
            raise ShapeMismatch(f"{name} rows need {w.shape[0]} entries, got shape {a.shape}")
        if not np.isfinite(a).all():
            raise InconsistentBlock("samples have non-finite entries")
    u_feat = x @ basis.w_x @ basis.u[:, :k]
    v_feat = y @ basis.w_y @ basis.v[:, :k]
    return u_feat, v_feat
