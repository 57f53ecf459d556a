"""Feature extraction from the common-information latent variable.

For Gaussian models the latent W = U_k^T x_hat + V_k^T y_hat + Z admits
closed-form projections: all three extraction rules (MAP, conditional
expectation, marginal integration) are linear maps proportional to the
top-k CCA rows, differing only in a per-component diagonal scale. For
discrete couplings the MAP rule applies directly to the induced
conditionals p(w|x) and p(w|y).
"""

from dataclasses import dataclass

import numpy as np

from .cca import CcaBasis, cca_decompose
from .discrete_ci import Coupling
from .errors import A0OutOfRange
from .gaussian_ci import component_count, waterfill
from .model import DiscreteJoint, GaussianJoint, InfoValue, _frozen_array, validate_discrete

VERSIONS = ("map", "cond_exp", "marginal")


@dataclass(frozen=True)
class GaussianLatentSpec:
    """Latent construction W = U_k^T x_hat + V_k^T y_hat + Z for one budget."""

    u_k: np.ndarray
    v_k: np.ndarray
    noise_cov: np.ndarray
    k: int


@dataclass(frozen=True)
class ProjectionOutputs:
    """Per-source feature maps produced by one projection rule.

    Gaussian models: u_of_x / v_of_y are (k x dim) linear maps and scale
    holds the per-component diagonal applied on top of the raw CCA rows.
    Discrete couplings: u_of_x / v_of_y are symbol-to-label tables and
    u_ties / v_ties flag argmax ties (broken toward the smallest label).
    """

    version: str
    u_of_x: np.ndarray
    v_of_y: np.ndarray
    scale: np.ndarray | None = None
    u_ties: np.ndarray | None = None
    v_ties: np.ndarray | None = None


def gaussian_latent(joint: GaussianJoint, gamma: float) -> GaussianLatentSpec:
    """Latent spec achieving the water-filled budgets at compression gamma.

    The per-component noise variance (1 - rho^2)(1 + s) / (rho - s) with
    s = sqrt(1 - e^{-2 gamma_i}) makes component i attain exactly
    I(X_i;Y_i|W_i) = gamma_i and I(X_i,Y_i;W_i) = C_{gamma_i}(rho_i).
    gamma >= sum_i I(rho_i) yields the empty (k = 0) spec.
    """
    basis = cca_decompose(joint)
    alloc = waterfill(basis.rho, gamma)
    k = component_count(basis.rho, gamma)
    rho = basis.rho[:k]
    s = np.sqrt(-np.expm1(-2.0 * alloc.gamma_i[:k]))
    noise = (1.0 - rho * rho) * (1.0 + s) / (rho - s)
    return GaussianLatentSpec(
        u_k=_frozen_array(basis.u[:, :k]),
        v_k=_frozen_array(basis.v[:, :k]),
        noise_cov=_frozen_array(np.diag(noise)),
        k=k,
    )


def project_gaussian(joint: GaussianJoint, gamma: float, version: str) -> ProjectionOutputs:
    """Closed-form projection maps for a Gaussian joint at budget gamma.

    Every version returns rows proportional to the top-k CCA rows
    U_k^T K_x^{-1/2} (resp. V_k^T K_y^{-1/2}). MAP and conditional
    expectation coincide (Gaussian posterior mode = mean) and carry the
    diagonal scale 1 + rho_i from E[W|x]; marginal integration drops the
    cross term E[y_hat] = 0 and has unit scale.
    """
    if version not in VERSIONS:
        raise ValueError(f"version must be one of {VERSIONS}, got {version!r}")
    basis = cca_decompose(joint)
    return _gaussian_maps(basis, component_count(basis.rho, gamma), version)


def _gaussian_maps(basis: CcaBasis, k: int, version: str) -> ProjectionOutputs:
    """project_gaussian's maps from a decomposed basis and its component count k."""
    scale = 1.0 + basis.rho[:k] if version in ("map", "cond_exp") else np.ones(k)
    u_map = (scale[:, None] * basis.u[:, :k].T) @ basis.w_x
    v_map = (scale[:, None] * basis.v[:, :k].T) @ basis.w_y
    return ProjectionOutputs(
        version=version,
        u_of_x=_frozen_array(u_map),
        v_of_y=_frozen_array(v_map),
        scale=_frozen_array(scale),
    )


def project_discrete_map(c: Coupling) -> ProjectionOutputs:
    """Per-symbol MAP features u(x) = argmax_w p(w|x), v(y) = argmax_w p(w|y).

    Ties are broken toward the smallest w and flagged in u_ties / v_ties.
    """
    qx = np.asarray(c.q_w_given_sources[0])
    qy = np.asarray(c.q_w_given_sources[1])
    u = qx.argmax(axis=0)
    v = qy.argmax(axis=0)
    u_ties = (qx == qx.max(axis=0, keepdims=True)).sum(axis=0) > 1
    v_ties = (qy == qy.max(axis=0, keepdims=True)).sum(axis=0) > 1
    return ProjectionOutputs(
        version="map",
        u_of_x=_frozen_array(u, dtype=int),
        v_of_y=_frozen_array(v, dtype=int),
        u_ties=_frozen_array(u_ties, dtype=bool),
        v_ties=_frozen_array(v_ties, dtype=bool),
    )


def project_discrete(c: Coupling, version: str = "map", w_values=None) -> ProjectionOutputs:
    """Discrete projections; versions beyond MAP need a numeric embedding.

    Conditional expectation and marginal integration are undefined for
    unordered latent labels, so they require w_values, one real value per
    latent symbol.
    """
    if version not in VERSIONS:
        raise ValueError(f"version must be one of {VERSIONS}, got {version!r}")
    if version == "map":
        return project_discrete_map(c)
    if w_values is None:
        raise ValueError(
            f"version {version!r} needs w_values, a numeric embedding of the latent symbols"
        )
    vals = np.asarray(w_values, dtype=float)
    if vals.shape != (c.card_w,):
        raise ValueError(f"w_values must have shape ({c.card_w},), got {vals.shape}")
    if version == "cond_exp":
        u = vals @ np.asarray(c.q_w_given_sources[0])
        v = vals @ np.asarray(c.q_w_given_sources[1])
    else:  # marginal integration: average E[W|x,y] over the opposite marginal
        pmf = c.joint_ref.pmf
        cond_mean = np.einsum("w,wxy->xy", vals, c.q_w_given_xy)
        u = cond_mean @ pmf.sum(axis=0)
        v = pmf.sum(axis=1) @ cond_mean
    return ProjectionOutputs(
        version=version,
        u_of_x=_frozen_array(u),
        v_of_y=_frozen_array(v),
    )


def feature_mutual_information(joint: DiscreteJoint, u_of_x, v_of_y) -> InfoValue:
    """I(u(X); v(Y)) for deterministic symbol-relabeling feature maps."""
    from .discrete_ci import mutual_information

    u = np.asarray(u_of_x, dtype=int)
    v = np.asarray(v_of_y, dtype=int)
    table = np.zeros((u.max() + 1, v.max() + 1))
    np.add.at(table, (u[:, None], v[None, :]), joint.pmf)
    return mutual_information(validate_discrete(table))


def toy_binary_example(a0: float) -> DiscreteJoint:
    """The 4x4 joint where CCA sees nothing but common information exists.

    X = (B1 xor B2, B2) and Y = (C1 xor C2, C2), where (B1, C1) is a DSBS
    with flip probability a0 and B2, C2 are independent uniform bits. All
    pairs among the four emitted bits are pairwise independent, so the
    covariance of the stacked vector is a scaled identity; the dependence
    lives entirely in (B1, C1). Symbols are indexed as 2*first_bit +
    second_bit.
    """
    a0 = float(a0)
    if not 0.0 <= a0 <= 0.5:
        raise A0OutOfRange(f"a0 must lie in [0, 1/2], got {a0}")
    pmf = np.zeros((4, 4))
    for b1 in (0, 1):
        for b2 in (0, 1):
            for flip in (0, 1):
                for c2 in (0, 1):
                    c1 = b1 ^ flip
                    p = 0.125 * (a0 if flip else 1.0 - a0)
                    pmf[2 * (b1 ^ b2) + b2, 2 * (c1 ^ c2) + c2] += p
    return validate_discrete(pmf)


def binary_vector_covariance(joint: DiscreteJoint):
    """Covariance blocks of the stacked bit vectors of a 4x4 binary joint.

    Symbols are decoded as two bits (index = 2*first + second); returns
    (k_x, k_y, k_xy) of the 0/1-valued vectors (X1, X2) and (Y1, Y2).
    """
    if joint.pmf.shape != (4, 4):
        raise ValueError("expected a 4x4 joint over two-bit symbols")
    bits = np.array([[i >> 1, i & 1] for i in range(4)], dtype=float)
    px = joint.marginal_x()
    py = joint.marginal_y()
    mx = bits.T @ px
    my = bits.T @ py
    exx = bits.T @ (px[:, None] * bits)
    eyy = bits.T @ (py[:, None] * bits)
    exy = bits.T @ joint.pmf @ bits
    return exx - np.outer(mx, mx), eyy - np.outer(my, my), exy - np.outer(mx, my)
