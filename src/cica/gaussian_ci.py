"""Closed-form relaxed Wyner common information for Gaussian pairs.

The vector problem separates across canonical-correlation components; the
per-component budgets follow a water-filling rule because the scalar
derivative dC/dgamma = -1/sqrt(1 - e^{-2 gamma}) does not depend on rho, so
every active component sits at the same water level.
"""

from dataclasses import dataclass

import numpy as np

from .cca import cca_decompose
from .errors import RhoOutOfRange, UnsortedRho
from .model import GaussianJoint, InfoValue

#: correlations below this are treated as exact zeros (SVD noise)
_ZERO_RHO = 1e-12
_ACTIVE_MARGIN = 1e-12


@dataclass(frozen=True)
class GammaAllocation:
    """Water-filled per-component budgets and the resulting C_gamma.

    gamma_i = min(water_level, I(rho_i)) for every component; when
    gamma_total exceeds the total mutual information the budgets saturate
    at I(rho_i) each and c_gamma is zero.
    """

    gamma_total: float
    gamma_i: np.ndarray
    c_gamma: InfoValue
    water_level: float
    active_count: int


def _check_rho_scalar(rho) -> float:
    rho = float(rho)
    if not 0.0 <= rho < 1.0:
        raise RhoOutOfRange(f"rho must lie in [0, 1), got {rho}")
    return rho


def _check_rho_list(rho) -> np.ndarray:
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    if rho.size == 0:
        raise RhoOutOfRange("rho list must be nonempty")
    if rho.min() < 0.0 or rho.max() >= 1.0:
        raise RhoOutOfRange(f"all rho must lie in [0, 1), got {rho}")
    if np.any(np.diff(rho) > 0):
        raise UnsortedRho(f"rho must be sorted descending, got {rho}")
    return np.where(rho < _ZERO_RHO, 0.0, rho)


def _info(rho):
    """I(rho) = 0.5 ln 1/(1 - rho^2), elementwise."""
    return -0.5 * np.log1p(-rho * rho)


def _relaxed_ci(rho, gamma_i):
    """C(rho, gamma_i), elementwise; exactly zero once gamma_i >= I(rho)."""
    info = _info(rho)
    # capping the budget at I(rho) keeps s <= rho < 1, so the logs stay finite
    s = np.sqrt(-np.expm1(-2.0 * np.minimum(gamma_i, info)))
    val = 0.5 * (np.log1p(rho) - np.log1p(-rho) + np.log1p(-s) - np.log1p(s))
    return np.where(gamma_i >= info, 0.0, np.maximum(val, 0.0))


def mutual_info_rho(rho: float) -> InfoValue:
    """Mutual information of a unit-variance Gaussian pair: 0.5 ln 1/(1-rho^2)."""
    return InfoValue(float(_info(_check_rho_scalar(rho))))


def scalar_relaxed_ci(rho: float, gamma_i: float) -> InfoValue:
    """Relaxed common information of a scalar Gaussian pair at budget gamma_i.

    Evaluates 0.5 log+ of (1+rho)(1-s) / ((1-rho)(1+s)) with
    s = sqrt(1 - e^{-2 gamma_i}); exactly zero once gamma_i >= I(rho).
    """
    rho = _check_rho_scalar(rho)
    gamma_i = float(gamma_i)
    if gamma_i < 0:
        raise ValueError(f"gamma_i must be >= 0, got {gamma_i}")
    return InfoValue(float(_relaxed_ci(rho, gamma_i)))


def waterfill(rho, gamma_total: float) -> GammaAllocation:
    """Optimal split of gamma_total across components, in closed form.

    The water level solves sum_i min(level, I(rho_i)) = gamma_total; each
    component receives gamma_i = min(level, I(rho_i)). With the m smallest
    I(rho_i) saturated the sum is linear in the level, so the level is
    (gamma_total - their sum) / (n - m) on that segment; a budget of at
    least sum_i I(rho_i) saturates every component at level max_i I(rho_i).
    rho must be sorted descending with entries in [0, 1).
    """
    rho = _check_rho_list(rho)
    gamma_total = float(gamma_total)
    if gamma_total < 0:
        raise ValueError(f"gamma_total must be >= 0, got {gamma_total}")
    info = _info(rho)
    n = info.size
    rising = np.sort(info)
    saturated = np.concatenate([[0.0], np.cumsum(rising)])  # sum of the m smallest
    # the budget used when the level sits at each breakpoint rising[m]
    at_breaks = saturated[:-1] + (n - np.arange(n)) * rising
    m = int(np.searchsorted(at_breaks, gamma_total, side="right"))
    level = rising[-1] if m == n else (gamma_total - saturated[m]) / (n - m)
    gamma_i = np.minimum(level, info)
    return GammaAllocation(
        gamma_total=gamma_total,
        gamma_i=gamma_i,
        c_gamma=InfoValue(float(_relaxed_ci(rho, gamma_i).sum())),
        water_level=float(level),
        active_count=int(np.sum(level < info - _ACTIVE_MARGIN)),
    )


def relaxed_ci_gaussian(joint: GaussianJoint, gamma: float):
    """C_gamma for a Gaussian joint: CCA decomposition plus water-filling.

    Returns (GammaAllocation, CcaBasis) so callers can build projections
    from the same basis.
    """
    basis = cca_decompose(joint)
    return waterfill(basis.rho, gamma), basis


def component_count(rho, gamma: float) -> int:
    """Number of retained components k as a function of the budget gamma.

    k = l on the half-open interval
    (l+1) I(rho_{l+1}) + sum_{i>l+1} I(rho_i) <= gamma < l I(rho_l) +
    sum_{i>l} I(rho_i); exact breakpoints take the smaller k, where the
    extra component's budget is saturated and contributes nothing.
    """
    rho = _check_rho_list(rho)
    gamma = float(gamma)
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    info = _info(rho)
    n = info.size
    tails = np.concatenate([np.cumsum(info[::-1])[::-1], [0.0]])  # tails[m] = sum_{i>=m}
    # lower edge of the k = ell row: (ell+1) I(rho_{ell+1}) + tail beyond it
    reached = gamma >= np.arange(1, n + 1) * info + tails[1:]
    return int(np.argmax(reached)) if reached.any() else n


def ci_curve(joint: GaussianJoint, grid) -> list[tuple[float, float, int]]:
    """Evaluate (gamma, c_gamma, k) along an ascending nonnegative grid."""
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0 or grid.min() < 0 or np.any(np.diff(grid) < 0):
        raise ValueError("grid must be nonempty, nonnegative, sorted ascending")
    basis = cca_decompose(joint)
    out = []
    for g in grid:
        alloc = waterfill(basis.rho, float(g))
        out.append((float(g), float(alloc.c_gamma), component_count(basis.rho, float(g))))
    return out
