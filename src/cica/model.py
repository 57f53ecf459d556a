"""Validated domain types for jointly Gaussian and finite-alphabet models.

All information quantities are carried in nats; display-time conversion to
bits happens at the CLI layer only.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InconsistentBlock,
    NegativeMass,
    NotNormalized,
    NotPositiveDefinite,
    ShapeMismatch,
    TooLarge,
)

LN2 = float(np.log(2.0))

# a covariance block needs every eigenvalue above this floor to be whitened
_EPS_PD = 1e-10
# singular values above 1 + this are inconsistent; cca clamps those within it of 1
_CLAMP_BAND = 1e-6
_PMF_SUM_TOL = 1e-12
_PMF_NEG_TOL = 1e-14


def _frozen_array(a, dtype=float):
    out = np.array(a, dtype=dtype)
    out.flags.writeable = False
    return out


def _check_budget(gamma, name: str = "gamma") -> float:
    """A budget gamma as a float; ValueError unless it is finite and >= 0."""
    gamma = float(gamma)
    if not math.isfinite(gamma) or gamma < 0:
        raise ValueError(f"{name} must be finite and >= 0, got {gamma}")
    return gamma


def _check_grid(grid) -> np.ndarray:
    """A gamma grid as a float array; ValueError unless it is 1-D and ascending."""
    grid = np.asarray(grid, dtype=float)
    if (
        grid.ndim != 1 or grid.size == 0 or not np.isfinite(grid).all()
        or grid.min() < 0 or np.any(np.diff(grid) < 0)
    ):
        raise ValueError("grid must be nonempty, finite, nonnegative, sorted ascending")
    return grid


def _check_mass(pmf) -> np.ndarray:
    """A pmf of any shape with tiny negatives clamped to 0, under validate_discrete's rules."""
    pmf = np.asarray(pmf, dtype=float)
    if pmf.size == 0:
        raise NotNormalized("empty pmf")
    if not np.isfinite(pmf).all():
        raise NotNormalized("pmf has non-finite entries")
    if pmf.min() < -_PMF_NEG_TOL:
        raise NegativeMass(f"pmf has entry {pmf.min():.3e} < -1e-14")
    pmf = np.maximum(pmf, 0.0)
    with np.errstate(over="ignore"):  # an overflowing total is reported as inf
        total = float(pmf.sum())
    if abs(total - 1.0) > _PMF_SUM_TOL:
        raise NotNormalized(f"pmf sums to {total!r}, expected 1 within 1e-12")
    return pmf


def _check_indices(idx, name: str = "symbol indices") -> None:
    """ValueError unless every entry of the float array idx is a finite, nonnegative integer."""
    if not np.all(np.isfinite(idx) & (idx >= 0) & (idx == np.floor(idx))):
        raise ValueError(f"{name} must be nonnegative integers")


#: cell limit of a joint table built from index rows and of a discrete solve
MAX_STATES = 64


def _check_cells(n_cells: int) -> None:
    """TooLarge when a joint table of n_cells cells exceeds MAX_STATES."""
    if n_cells > MAX_STATES:
        raise TooLarge(f"joint alphabet has {n_cells} cells > MAX_STATES={MAX_STATES}")


@dataclass(frozen=True)
class InfoValue:
    """A nonnegative information quantity stored in nats."""

    nats: float

    def __post_init__(self):
        v = float(self.nats)
        if not np.isfinite(v) or v < -1e-9:
            raise ValueError(f"information value must be >= 0, got {v}")
        object.__setattr__(self, "nats", max(v, 0.0))

    @property
    def bits(self) -> float:
        return self.nats / LN2

    def __float__(self) -> float:
        return self.nats


@dataclass(frozen=True)
class GaussianJoint:
    """Block covariance model (K_x, K_xy, K_y) of a jointly Gaussian pair."""

    dim_x: int
    dim_y: int
    k_x: np.ndarray
    k_y: np.ndarray
    k_xy: np.ndarray
    #: the whitening matrices K_x^{-1/2} and K_y^{-1/2}
    w_x: np.ndarray
    w_y: np.ndarray
    #: (u, s, vh), the thin SVD of w_x @ k_xy @ w_y; s descends and s[0] <= 1 + 1e-6
    cross_svd: tuple


def source_marginals(table, lead: int = 0) -> list:
    """Per-source marginals of a table whose source axes start at ``lead``.

    Entry i sums ``table`` over every source axis except lead + i; leading
    axes (a latent symbol, a batch of runs) are kept.
    """
    axes = range(lead, table.ndim)
    return [table.sum(axis=tuple(ax for ax in axes if ax != i)) for i in axes]


@dataclass(frozen=True)
class DiscreteJoint:
    """Joint pmf p(x_1, ..., x_M) over M >= 2 finite alphabets; p(x, y) for M = 2."""

    pmf: np.ndarray

    @property
    def cards(self) -> tuple:
        return self.pmf.shape

    def marginal(self, i: int) -> np.ndarray:
        return source_marginals(self.pmf)[i]


def _check_symmetric(name, k):
    if k.ndim != 2 or k.shape[0] != k.shape[1] or k.size == 0:
        raise ShapeMismatch(f"{name} must be square and nonempty, got shape {k.shape}")
    scale = max(np.abs(k).max(), 1.0)
    if np.abs(k - k.T).max() > 1e-8 * scale:
        raise ShapeMismatch(f"{name} is not symmetric")


def inv_sqrt_psd(k, name: str = "matrix") -> np.ndarray:
    """Unique symmetric M > 0 with M @ k @ M = I, via eigendecomposition.

    Eigenvalues lambda are mapped to lambda^{-1/2}; the result does not
    depend on eigenvector sign choices. Raises NotPositiveDefinite, naming
    the matrix as name, when the smallest eigenvalue is <= 1e-10.
    """
    k = np.asarray(k, dtype=float)
    k = 0.5 * (k + k.T)
    lam, q = np.linalg.eigh(k)
    if lam[0] <= _EPS_PD:
        raise NotPositiveDefinite(f"{name} has minimum eigenvalue {lam[0]:.3e} <= 1e-10")
    m = (q * (1.0 / np.sqrt(lam))) @ q.T
    return 0.5 * (m + m.T)


def validate_gaussian(k_x, k_y, k_xy) -> GaussianJoint:
    """Validate covariance blocks and build an immutable GaussianJoint.

    The joint carries the whitening matrices, from one eigendecomposition
    per block, and the one SVD of K_x^{-1/2} K_xy K_y^{-1/2}, which is the
    consistency check. Raises NotPositiveDefinite if k_x or k_y has an
    eigenvalue <= 1e-10, InconsistentBlock if a block has a non-finite entry
    or a singular value exceeds 1 + 1e-6, and ShapeMismatch on dimension
    errors, an empty block included.
    """
    k_x = np.asarray(k_x, dtype=float)
    k_y = np.asarray(k_y, dtype=float)
    k_xy = np.asarray(k_xy, dtype=float)
    if not all(np.isfinite(k).all() for k in (k_x, k_y, k_xy)):
        raise InconsistentBlock("covariance blocks have non-finite entries")
    _check_symmetric("k_x", k_x)
    _check_symmetric("k_y", k_y)
    dim_x, dim_y = k_x.shape[0], k_y.shape[0]
    if k_xy.ndim != 2 or k_xy.shape != (dim_x, dim_y):
        raise ShapeMismatch(
            f"k_xy must have shape ({dim_x}, {dim_y}), got {k_xy.shape}"
        )
    # symmetrize before the eigendecompositions so ulp-level asymmetry cannot bias them
    k_x = 0.5 * (k_x + k_x.T)
    k_y = 0.5 * (k_y + k_y.T)
    w_x = inv_sqrt_psd(k_x, "k_x")
    w_y = inv_sqrt_psd(k_y, "k_y")
    k_xy = _frozen_array(k_xy)
    u, s, vh = np.linalg.svd(w_x @ k_xy @ w_y, full_matrices=False)
    if s[0] > 1.0 + _CLAMP_BAND:
        raise InconsistentBlock(
            f"whitened cross-covariance has singular value {s[0]:.10g} > 1 + 1e-6"
        )
    # all fresh arrays (k_xy, which may be the caller's, was copied), frozen in place
    for a in (k_x, k_y, w_x, w_y, u, s, vh):
        a.flags.writeable = False
    return GaussianJoint(dim_x, dim_y, k_x, k_y, k_xy, w_x, w_y, (u, s, vh))


def validate_discrete(pmf) -> DiscreteJoint:
    """Validate a probability table with M >= 2 axes and build a DiscreteJoint.

    Non-finite entries raise NotNormalized and entries below -1e-14 raise
    NegativeMass; tiny negatives are clamped to zero. The clamped table must
    sum to 1 within 1e-12 (NotNormalized otherwise) and is then
    renormalized exactly.
    """
    pmf = np.asarray(pmf, dtype=float)
    if pmf.ndim < 2 or pmf.size == 0:
        raise ShapeMismatch(
            f"pmf must be a nonempty table with M >= 2 axes, got shape {pmf.shape}"
        )
    pmf = _check_mass(pmf)
    pmf /= pmf.sum()
    return DiscreteJoint(pmf=_frozen_array(pmf))


validate_multi_discrete = validate_discrete
