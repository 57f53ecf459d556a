"""Closed-form relaxed Wyner common information for Gaussian pairs.

The vector problem separates across canonical-correlation components; the
per-component budgets follow a water-filling rule because the scalar
derivative dC/dgamma = -1/sqrt(1 - e^{-2 gamma}) does not depend on rho, so
every active component sits at the same water level.
"""

from dataclasses import dataclass

import numpy as np

from .cca import _ZERO_RHO, cca_decompose
from .errors import RhoOutOfRange, TooLarge, UnsortedRho
from .model import GaussianJoint, InfoValue, _check_budget, _check_grid

_ACTIVE_MARGIN = 1e-12
# float64 entries of one (points x components) array of _fill: 2**24 are 128 MiB
_MAX_CURVE_ENTRIES = 2**24


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


def _check_rho(rho) -> np.ndarray:
    """A scalar rho or a descending spectrum as a 1-D array, entries below 1e-12 set to 0."""
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    # the range test is false for NaN
    if rho.ndim != 1 or rho.size == 0 or not np.all((rho >= 0.0) & (rho < 1.0)):
        raise RhoOutOfRange(f"rho must lie in [0, 1) and form a nonempty 1-D spectrum, got {rho}")
    if np.any(np.diff(rho) > 0):
        raise UnsortedRho(f"rho must be sorted descending, got {rho}")
    return np.where(rho < _ZERO_RHO, 0.0, rho)


def _info(rho):
    """I(rho) = 0.5 ln 1/(1 - rho^2), elementwise."""
    return -0.5 * np.log1p(-rho * rho)


def _fill(rho, gammas):
    """(I(rho), water level, C_gamma, component count k) for each budget in gammas.

    rho is a validated descending spectrum and gammas a 1-D array of
    nonnegative budgets. The level solves sum_i min(level, I(rho_i)) =
    gamma: with the m smallest I(rho_i) saturated the sum is linear in the
    level, so the level is (gamma - their sum) / (n - m) on that segment,
    and a budget of at least sum_i I(rho_i) saturates every component at
    level max_i I(rho_i). k counts the components left unsaturated, those
    with I(rho_i) above the level by more than 1e-12; only they add to C_gamma.
    """
    info = _info(rho)
    n = info.size
    rising = np.sort(info)
    saturated = np.concatenate([[0.0], np.cumsum(rising)])  # sum of the m smallest
    # the budget used when the level sits at each breakpoint rising[m]
    at_breaks = saturated[:-1] + (n - np.arange(n)) * rising
    m = np.searchsorted(at_breaks, gammas, side="right")
    level = np.where(m == n, rising[-1], (gammas - saturated[m]) / np.maximum(n - m, 1))
    # C(rho_i, gamma_i); capping gamma_i at I(rho_i) keeps s <= rho < 1, so the logs stay finite
    s = np.sqrt(-np.expm1(-2.0 * np.minimum(level[:, None], info)))
    c_i = 0.5 * (np.log1p(rho) - np.log1p(-rho) + np.log1p(-s) - np.log1p(s))
    active = level[:, None] < info - _ACTIVE_MARGIN
    c_gamma = np.where(active, np.maximum(c_i, 0.0), 0.0).sum(axis=1)
    return info, level, c_gamma, active.sum(axis=1)


def _check_curve_size(points: int, components: int) -> None:
    """TooLarge when a curve's (points x components) arrays exceed _MAX_CURVE_ENTRIES."""
    if points * max(components, 1) > _MAX_CURVE_ENTRIES:
        raise TooLarge(f"{points} curve points x {components} components > {_MAX_CURVE_ENTRIES}")


def waterfill(rho, gamma_total: float) -> GammaAllocation:
    """Optimal split of gamma_total across components, in closed form.

    The water level solves sum_i min(level, I(rho_i)) = gamma_total; each
    component receives gamma_i = min(level, I(rho_i)). rho must be sorted
    descending with entries in [0, 1).
    """
    rho, gamma_total = _check_rho(rho), _check_budget(gamma_total, "gamma_total")
    info, level, c_gamma, k = _fill(rho, np.array([gamma_total]))
    level = float(level[0])
    return GammaAllocation(
        gamma_total=gamma_total,
        gamma_i=np.minimum(level, info),
        c_gamma=InfoValue(float(c_gamma[0])),
        water_level=level,
        active_count=int(k[0]),
    )


def component_count(rho, gamma: float) -> int:
    """Number of retained components k as a function of the budget gamma.

    k = l on the half-open interval
    (l+1) I(rho_{l+1}) + sum_{i>l+1} I(rho_i) <= gamma < l I(rho_l) +
    sum_{i>l} I(rho_i), which is waterfill's active_count; exact
    breakpoints take the smaller k, where the extra component's budget is
    saturated and contributes nothing.
    """
    return int(_fill(_check_rho(rho), np.array([_check_budget(gamma)]))[3][0])


def ci_curve(joint: GaussianJoint, grid) -> list[tuple[float, float, int]]:
    """Evaluate (gamma, c_gamma, k) along an ascending nonnegative grid."""
    grid = _check_grid(grid)
    rho = cca_decompose(joint).rho
    _check_curve_size(grid.size, rho.size)
    _, _, c_gamma, k = _fill(rho, grid)
    return [(float(g), float(c), int(kk)) for g, c, kk in zip(grid, c_gamma, k)]
