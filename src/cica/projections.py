"""Feature extraction from the common-information latent variable.

For Gaussian models the latent W = U_k^T x_hat + V_k^T y_hat + Z admits
closed-form projections: all three extraction rules (MAP, conditional
expectation, marginal integration) are linear maps proportional to the
top-k CCA rows, differing only in a per-component diagonal scale. For
discrete couplings of M >= 2 sources every rule reads one feature map per
source off the induced conditionals p(w|x_i); a pair is the M = 2 case.
"""

from dataclasses import dataclass

import numpy as np

from .cca import CcaBasis, _check_k
from .cca import cca_decompose  # noqa: F401  (unused here; the benchmark tracer patches it)
from .discrete_ci import Coupling, _check_a0, total_correlation
from .errors import ShapeMismatch
from .gaussian_ci import component_count  # noqa: F401  (unused here; the benchmark tracer patches it)
from .gaussian_ci import waterfill  # noqa: F401  (unused here; the benchmark tracer patches it)
from .model import DiscreteJoint, InfoValue, _check_indices, _frozen_array
from .model import source_marginals, validate_discrete

VERSIONS = ("map", "cond_exp", "marginal")


@dataclass(frozen=True)
class ProjectionOutputs:
    """Feature maps produced by one projection rule, one per source.

    Gaussian models: maps holds the (k x dim) linear maps of x and y, and
    scale the per-component diagonal applied on top of the raw CCA rows.
    Discrete couplings: maps[i] gives the feature of each symbol of source
    i, and for MAP ties[i] flags the symbols whose argmax was tied (broken
    toward the smallest label). u_of_x and v_of_y are the first two maps,
    the pair's u(x) and v(y).
    """

    version: str
    maps: tuple
    scale: np.ndarray | None = None
    ties: tuple | None = None

    @property
    def u_of_x(self) -> np.ndarray:
        return self.maps[0]

    @property
    def v_of_y(self) -> np.ndarray:
        return self.maps[1]


def project_gaussian(basis: CcaBasis, k: int, version: str) -> ProjectionOutputs:
    """Closed-form projection maps onto the top-k components of a CCA basis.

    k is the count a budget keeps (component_count), in [0, n] (BadK
    otherwise). Every version returns rows proportional to the top-k CCA
    rows U_k^T K_x^{-1/2} (resp. V_k^T K_y^{-1/2}). MAP and conditional
    expectation coincide (Gaussian posterior mode = mean) and carry the
    diagonal scale 1 + rho_i from E[W|x]; marginal integration drops the
    cross term E[y_hat] = 0 and has unit scale.
    """
    if version not in VERSIONS:
        raise ValueError(f"version must be one of {VERSIONS}, got {version!r}")
    _check_k(k, basis.n_components, 0)
    scale = 1.0 + basis.rho[:k] if version in ("map", "cond_exp") else np.ones(k)
    u_map = (scale[:, None] * basis.u[:, :k].T) @ basis.w_x
    v_map = (scale[:, None] * basis.v[:, :k].T) @ basis.w_y
    return ProjectionOutputs(
        version=version,
        maps=(_frozen_array(u_map), _frozen_array(v_map)),
        scale=_frozen_array(scale),
    )


def project_discrete_map(c: Coupling) -> ProjectionOutputs:
    """Per-symbol MAP features argmax_w p(w|x_i), one map per source.

    Ties are broken toward the smallest w and flagged in ties[i].
    """
    maps, ties = [], []
    for q in c.q_w_given_sources:
        maps.append(_frozen_array(q.argmax(axis=0), dtype=int))
        ties.append(_frozen_array((q == q.max(axis=0)).sum(axis=0) > 1, dtype=bool))
    return ProjectionOutputs(version="map", maps=tuple(maps), ties=tuple(ties))


def project_discrete(c: Coupling, version: str = "map", w_values=None) -> ProjectionOutputs:
    """Discrete projections; versions beyond MAP need a numeric embedding.

    Conditional expectation and marginal integration are undefined for
    unordered latent labels, so they require w_values, one finite real
    value per latent symbol. Conditional expectation maps x_i to
    E[W|x_i]; marginal integration averages E[W|x_1..x_M] over the
    marginals of the other sources.
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
    if not np.isfinite(vals).all():
        raise ValueError("w_values must be finite")
    if version == "cond_exp":
        maps = [vals @ q for q in c.q_w_given_sources]
    else:
        marginals = source_marginals(c.joint_ref.pmf)
        cond_mean = np.tensordot(vals, c.q_w_given_xy, axes=1)
        maps = []
        for i in range(cond_mean.ndim):
            table = cond_mean
            for j in reversed(range(cond_mean.ndim)):  # the axes below j keep their place
                if j != i:
                    table = np.tensordot(table, marginals[j], axes=([j], [0]))
            maps.append(table)
    return ProjectionOutputs(version=version, maps=tuple(_frozen_array(m) for m in maps))


def feature_mutual_information(joint: DiscreteJoint, *maps) -> InfoValue:
    """Total correlation of the features (f_1(X_1), ..., f_M(X_M)); I(u(X); v(Y)) for a pair.

    Takes one deterministic symbol-relabeling map per source: map i lists
    a nonnegative integer label for each of the cards[i] symbols of
    source i. Raises ShapeMismatch for a wrong count or length of maps and
    ValueError for a label that is not a nonnegative integer.
    """
    cards = joint.pmf.shape
    if len(maps) != len(cards):
        raise ShapeMismatch(f"need one feature map per source ({len(cards)}), got {len(maps)}")
    labels = []
    for i, (f, card) in enumerate(zip(maps, cards)):
        f = np.asarray(f, dtype=float)
        if f.shape != (card,):
            raise ShapeMismatch(f"feature map {i} must have shape ({card},), got {f.shape}")
        _check_indices(f, f"feature map {i} labels")
        # compact labels to 0..distinct-1, so the table has one cell per distinct label tuple
        labels.append(np.unique(f, return_inverse=True)[1])
    table = np.zeros([f.max() + 1 for f in labels])
    np.add.at(table, np.ix_(*labels), joint.pmf)
    return total_correlation(validate_discrete(table))


def toy_binary_example(a0: float) -> DiscreteJoint:
    """The 4x4 joint where CCA sees nothing but common information exists.

    X = (B1 xor B2, B2) and Y = (C1 xor C2, C2), where (B1, C1) is a DSBS
    with flip probability a0 and B2, C2 are independent uniform bits. All
    pairs among the four emitted bits are pairwise independent, so the
    covariance of the stacked vector is a scaled identity; the dependence
    lives entirely in (B1, C1). Symbols are indexed as 2*first_bit +
    second_bit.
    """
    a0 = _check_a0(a0)
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
    px = joint.marginal(0)
    py = joint.marginal(1)
    mx = bits.T @ px
    my = bits.T @ py
    exx = bits.T @ (px[:, None] * bits)
    eyy = bits.T @ (py[:, None] * bits)
    exy = bits.T @ joint.pmf @ bits
    return exx - np.outer(mx, mx), eyy - np.outer(my, my), exy - np.outer(mx, my)
