"""Symmetric inverse square roots and the whitened cross-covariance.

The whitened cross-covariance K_x^{-1/2} K_xy K_y^{-1/2} is the matrix whose
singular values are the canonical correlations; everything downstream (CCA,
Gaussian common information) is built on it.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NotPositiveDefinite, SingularValueOutOfRange
from .model import DEFAULT_EPS_PD, GaussianJoint, _frozen_array

# singular values in [1 - CLAMP_BAND, 1 + CLAMP_BAND] are pulled to _PERFECT_RHO
_CLAMP_BAND = 1e-6
#: canonical correlations at or above this are perfect: I(rho) diverges
_PERFECT_RHO = 1.0 - 1e-9
#: canonical correlations below this are SVD noise and read as exact zeros
_ZERO_RHO = 1e-12


@dataclass(frozen=True)
class WhitenedPair:
    """Whitening matrices and the whitened cross-covariance of a joint model."""

    w_x: np.ndarray
    w_y: np.ndarray
    canonical: np.ndarray


def inv_sqrt_psd(k, eps_pd: float = DEFAULT_EPS_PD) -> np.ndarray:
    """Unique symmetric M > 0 with M @ k @ M = I, via eigendecomposition.

    Eigenvalues lambda are mapped to lambda^{-1/2}; the result does not
    depend on eigenvector sign choices. Raises NotPositiveDefinite when the
    smallest eigenvalue is <= eps_pd.
    """
    k = np.asarray(k, dtype=float)
    k = 0.5 * (k + k.T)
    lam, q = np.linalg.eigh(k)
    if lam[0] <= eps_pd:
        raise NotPositiveDefinite(
            f"matrix has minimum eigenvalue {lam[0]:.3e} <= eps_pd={eps_pd:.1e}"
        )
    m = (q * (1.0 / np.sqrt(lam))) @ q.T
    return 0.5 * (m + m.T)


def _whitened_svd(joint: GaussianJoint):
    """Whitening pair plus the SVD (u, s, vh) of the whitened cross-covariance.

    The one SVD of a Gaussian problem: it owns the range check and the
    near-one clamp that canonical_matrix documents, and returns s clamped.
    """
    w_x = inv_sqrt_psd(joint.k_x, joint.eps_pd)
    w_y = inv_sqrt_psd(joint.k_y, joint.eps_pd)
    canonical = w_x @ joint.k_xy @ w_y
    u, s, vh = np.linalg.svd(canonical, full_matrices=False)
    if s.size and s[0] > 1.0 + _CLAMP_BAND:
        raise SingularValueOutOfRange(
            f"whitened cross-covariance has singular value {s[0]:.8f} > 1 + 1e-6; "
            "covariance blocks are inconsistent"
        )
    near_one = s >= 1.0 - _CLAMP_BAND
    if near_one.any():
        warnings.warn(
            f"{int(near_one.sum())} singular value(s) within 1e-6 of 1 clamped to 1 - 1e-9",
            stacklevel=3,
        )
        s = np.where(near_one, _PERFECT_RHO, s)
        canonical = (u * s) @ vh
    pair = WhitenedPair(
        w_x=_frozen_array(w_x),
        w_y=_frozen_array(w_y),
        canonical=_frozen_array(canonical),
    )
    return pair, (u, s, vh)


def canonical_matrix(joint: GaussianJoint) -> WhitenedPair:
    """Whiten a GaussianJoint and return K_x^{-1/2} K_xy K_y^{-1/2}.

    Singular values must lie in [0, 1] up to noise: values above 1 + 1e-6
    raise SingularValueOutOfRange; values within 1e-6 of 1 are clamped to
    1 - 1e-9 with a warning (covariances estimated from samples can
    overshoot slightly). Without a clamp the matrix is w_x @ k_xy @ w_y
    as computed.
    """
    return _whitened_svd(joint)[0]
