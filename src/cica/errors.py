"""Semantic exception hierarchy shared by all cica modules."""


class CicaError(Exception):
    """Base class for all errors raised by this package."""


class ShapeMismatch(CicaError):
    """Matrix or table dimensions are inconsistent with each other."""


class NotPositiveDefinite(CicaError):
    """A covariance block has an eigenvalue at or below the PD floor."""


class InconsistentBlock(CicaError):
    """A block is non-finite, or [[K_x, K_xy], [K_xy^T, K_y]] is not PSD.

    validate_gaussian requires sigma <= 1 + 1e-6 for every singular value
    sigma of K_x^{-1/2} K_xy K_y^{-1/2} (PSD exactly when all are <= 1).
    """


class NotNormalized(CicaError):
    """Probability mass does not sum to one within tolerance."""


class NegativeMass(CicaError):
    """A probability table contains a negative entry beyond tolerance."""


class PerfectCorrelation(CicaError):
    """The measured leading canonical correlation is >= 1 - 1e-6; I(rho) diverges."""


class BadK(CicaError):
    """Requested component count is outside [1, n], or [0, n] for project_gaussian."""


class NoConvergence(CicaError):
    """An iterative routine exhausted its iteration budget."""


class RhoOutOfRange(CicaError):
    """A correlation argument is outside [0, 1)."""


class UnsortedRho(CicaError):
    """Canonical correlations must be sorted in descending order."""


class A0OutOfRange(CicaError):
    """DSBS flip probability must lie in [0, 1/2]."""


class Infeasible(CicaError):
    """No coupling meets the relaxation budget, and card_w cannot hold the fallback.

    The fallback W = every source but the one with the largest alphabet has
    relaxation 0. ``details`` carries the budget, the best achieved
    relaxation, ``card_w``, the ``card_w_needed`` for that W and the run count.
    """

    def __init__(self, message, details=None):
        super().__init__(message)
        self.details = details or {}


class TooLarge(CicaError):
    """Joint state space exceeds the configured solver limit."""


class TooFewSamples(CicaError):
    """Not enough samples to estimate the requested model."""


class IndexOutOfRange(CicaError):
    """A symbol index lies outside the declared alphabet."""


class InvalidCoupling(CicaError):
    """A conditional-distribution table violates a Coupling invariant."""
