"""Model estimation from raw samples: covariance blocks and joint pmfs."""

import numpy as np

from .errors import InconsistentBlock, IndexOutOfRange, ShapeMismatch, TooFewSamples
from .model import DiscreteJoint, GaussianJoint, validate_discrete, validate_gaussian

#: auto ridge, as a fraction of the average eigenvalue of each block
_AUTO_RIDGE = 1e-8


def estimate_gaussian(x_samples, y_samples, ridge: float | None = None) -> GaussianJoint:
    """Unbiased covariance blocks from paired samples, ridge-stabilized.

    Rows are observations; x and y rows are paired. Means are always
    removed. ridge*I is added to k_x and k_y before validation; ridge=None
    picks 1e-8 * trace/dim per block. Requires N >= dim_x + dim_y + 1;
    non-finite samples raise InconsistentBlock.
    """
    x = np.atleast_2d(np.asarray(x_samples, dtype=float))
    y = np.atleast_2d(np.asarray(y_samples, dtype=float))
    if x.shape[0] != y.shape[0]:
        raise ShapeMismatch(
            f"x and y must have equal row counts, got {x.shape[0]} and {y.shape[0]}"
        )
    n = x.shape[0]
    if n < x.shape[1] + y.shape[1] + 1:
        raise TooFewSamples(
            f"need at least dim_x + dim_y + 1 = {x.shape[1] + y.shape[1] + 1} rows, got {n}"
        )
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise InconsistentBlock("samples have non-finite entries")
    # canonical row order: permuting input rows must not change any output bit
    order = np.lexsort(np.hstack([x, y]).T[::-1])
    x = x[order]
    y = y[order]
    xc = x - x.mean(axis=0)
    yc = y - y.mean(axis=0)
    k_x = xc.T @ xc / (n - 1)
    k_y = yc.T @ yc / (n - 1)
    k_xy = xc.T @ yc / (n - 1)
    if ridge is None:
        r_x = _AUTO_RIDGE * np.trace(k_x) / k_x.shape[0]
        r_y = _AUTO_RIDGE * np.trace(k_y) / k_y.shape[0]
    else:
        r_x = r_y = float(ridge)
    k_x = k_x + r_x * np.eye(k_x.shape[0])
    k_y = k_y + r_y * np.eye(k_y.shape[0])
    return validate_gaussian(k_x, k_y, k_xy)


def estimate_pmf(pairs, cards, smoothing: float = 0.0) -> DiscreteJoint:
    """Empirical joint pmf from index pairs, with additive smoothing."""
    pairs = np.asarray(pairs, dtype=int)
    if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.shape[0] < 1:
        raise ShapeMismatch(f"pairs must be a nonempty N x 2 table, got {pairs.shape}")
    card_x, card_y = int(cards[0]), int(cards[1])
    if pairs.min() < 0 or pairs[:, 0].max() >= card_x or pairs[:, 1].max() >= card_y:
        raise IndexOutOfRange(
            f"symbol indices must lie in [0, {card_x}) x [0, {card_y})"
        )
    counts = np.zeros((card_x, card_y))
    np.add.at(counts, (pairs[:, 0], pairs[:, 1]), 1.0)
    counts += float(smoothing)
    return validate_discrete(counts / counts.sum())
