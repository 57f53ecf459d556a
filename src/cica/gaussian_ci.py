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
from .whitening import _ZERO_RHO

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


def _check_budget(rho, gamma, name: str):
    """Validated (rho, gamma) for the one-budget entry points."""
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    if rho.size == 0:
        raise RhoOutOfRange("rho list must be nonempty")
    if rho.min() < 0.0 or rho.max() >= 1.0:
        raise RhoOutOfRange(f"all rho must lie in [0, 1), got {rho}")
    if np.any(np.diff(rho) > 0):
        raise UnsortedRho(f"rho must be sorted descending, got {rho}")
    gamma = float(gamma)
    if gamma < 0:
        raise ValueError(f"{name} must be >= 0, got {gamma}")
    return np.where(rho < _ZERO_RHO, 0.0, rho), gamma


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


def _fill(rho, gammas):
    """(I(rho), water level, C_gamma, component count k) for each budget in gammas.

    rho is a validated descending spectrum and gammas a 1-D array of
    nonnegative budgets. The level solves sum_i min(level, I(rho_i)) =
    gamma: with the m smallest I(rho_i) saturated the sum is linear in the
    level, so the level is (gamma - their sum) / (n - m) on that segment,
    and a budget of at least sum_i I(rho_i) saturates every component at
    level max_i I(rho_i). k follows the schedule of component_count.
    """
    info = _info(rho)
    n = info.size
    rising = np.sort(info)
    saturated = np.concatenate([[0.0], np.cumsum(rising)])  # sum of the m smallest
    # the budget used when the level sits at each breakpoint rising[m]
    at_breaks = saturated[:-1] + (n - np.arange(n)) * rising
    m = np.searchsorted(at_breaks, gammas, side="right")
    level = np.where(m == n, rising[-1], (gammas - saturated[m]) / np.maximum(n - m, 1))
    c_gamma = _relaxed_ci(rho, np.minimum(level[:, None], info)).sum(axis=1)
    tails = np.concatenate([np.cumsum(info[::-1])[::-1], [0.0]])  # tails[m] = sum_{i>=m}
    # lower edge of the k = ell row: (ell+1) I(rho_{ell+1}) + tail beyond it
    reached = gammas[:, None] >= np.arange(1, n + 1) * info + tails[1:]
    k = np.where(reached.any(axis=1), reached.argmax(axis=1), n)
    return info, level, c_gamma, k


def waterfill(rho, gamma_total: float) -> GammaAllocation:
    """Optimal split of gamma_total across components, in closed form.

    The water level solves sum_i min(level, I(rho_i)) = gamma_total; each
    component receives gamma_i = min(level, I(rho_i)). rho must be sorted
    descending with entries in [0, 1).
    """
    rho, gamma_total = _check_budget(rho, gamma_total, "gamma_total")
    info, level, c_gamma, _ = _fill(rho, np.array([gamma_total]))
    level = float(level[0])
    return GammaAllocation(
        gamma_total=gamma_total,
        gamma_i=np.minimum(level, info),
        c_gamma=InfoValue(float(c_gamma[0])),
        water_level=level,
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
    rho, gamma = _check_budget(rho, gamma, "gamma")
    return int(_fill(rho, np.array([gamma]))[3][0])


def ci_curve(joint: GaussianJoint, grid) -> list[tuple[float, float, int]]:
    """Evaluate (gamma, c_gamma, k) along an ascending nonnegative grid."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0 or grid.min() < 0 or np.any(np.diff(grid) < 0):
        raise ValueError("grid must be nonempty, nonnegative, sorted ascending")
    _, _, c_gamma, k = _fill(cca_decompose(joint).rho, grid)
    return [(float(g), float(c), int(kk)) for g, c, kk in zip(grid, c_gamma, k)]
