"""Model estimation from raw samples: covariance blocks and joint pmfs."""

import math

import numpy as np

from .errors import InconsistentBlock, IndexOutOfRange, ShapeMismatch, TooFewSamples
from .model import (
    DiscreteJoint,
    GaussianJoint,
    _check_budget,
    _check_cells,
    _check_indices,
    _is_int,
    validate_discrete,
    validate_gaussian,
)

#: auto ridge, as a fraction of the average eigenvalue of each block
_AUTO_RIDGE = 1e-8


def estimate_gaussian(x_samples, y_samples, ridge: float | None = None) -> GaussianJoint:
    """Unbiased covariance blocks from paired samples, ridge-stabilized.

    Rows are observations; x and y rows are paired. Means are always
    removed. ridge*I is added to k_x and k_y before validation; ridge=None
    picks 1e-8 * trace/dim per block, and any other ridge must be finite
    and >= 0 (ValueError). A 1-D array holds N samples of one column.
    Requires N >= dim_x + dim_y + 1 (TooFewSamples), and at most two
    dimensions and at least one column per block (ShapeMismatch);
    non-finite samples raise InconsistentBlock.

    Rows are first put in a canonical order, so permuting them changes no
    output bit. The sorted rows are the one copy of the samples made; it is
    centred in place, and the caller's arrays are left as they were.
    """
    x, y = (np.asarray(a, dtype=float) for a in (x_samples, y_samples))
    if x.ndim > 2 or y.ndim > 2:
        raise ShapeMismatch(f"samples must be 1-D or 2-D arrays, got {x.shape} and {y.shape}")
    x, y = (a.reshape(-1, 1) if a.ndim == 1 else np.atleast_2d(a) for a in (x, y))
    if x.shape[0] != y.shape[0] or 0 in (x.shape[1], y.shape[1]):
        raise ShapeMismatch(
            f"x and y need equal row counts and at least one column, got {x.shape} and {y.shape}"
        )
    n = x.shape[0]
    if n < x.shape[1] + y.shape[1] + 1:
        raise TooFewSamples(
            f"need at least dim_x + dim_y + 1 = {x.shape[1] + y.shape[1] + 1} rows, got {n}"
        )
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise InconsistentBlock("samples have non-finite entries")
    # canonical row order, so that permuting input rows changes no output bit: that of
    # np.lexsort over every column, x's first leading, which a stable argsort of that
    # column alone gives when it holds no tie (== ties -0.0 with 0.0)
    order = np.argsort(x[:, 0], kind="stable")
    lead = x[order, 0]
    if (lead[1:] == lead[:-1]).any():
        order = np.lexsort([*x.T, *y.T][::-1])
    x, y = x[order], y[order]
    x -= x.mean(axis=0)
    y -= y.mean(axis=0)
    k_x = x.T @ x / (n - 1)
    k_y = y.T @ y / (n - 1)
    k_xy = x.T @ y / (n - 1)
    if ridge is None:
        r_x = _AUTO_RIDGE * np.trace(k_x) / k_x.shape[0]
        r_y = _AUTO_RIDGE * np.trace(k_y) / k_y.shape[0]
    else:
        r_x = r_y = _check_budget(ridge, "ridge")
    k_x = k_x + r_x * np.eye(k_x.shape[0])
    k_y = k_y + r_y * np.eye(k_y.shape[0])
    return validate_gaussian(k_x, k_y, k_xy)


def _index_table(idx, cards, weights) -> np.ndarray:
    """Table of shape cards holding the weights summed at the integral index rows idx.

    A table of more than MAX_STATES cells raises TooLarge before it is
    allocated.
    """
    _check_cells(math.prod(cards))
    table = np.zeros(cards)
    np.add.at(table, tuple(idx.T.astype(int)), weights)
    return table


def estimate_pmf(rows, cards, smoothing: float = 0.0) -> DiscreteJoint:
    """Empirical joint pmf from N x M index rows, with additive smoothing.

    Column i holds the symbols of source i and cards the M >= 2 alphabet
    sizes (ShapeMismatch otherwise); a pair is the M = 2 case. Indices
    must lie in [0, card) (IndexOutOfRange) and be integers (ValueError),
    and so must every card (ValueError; a bool is not an integer); a table
    of more than MAX_STATES (64) cells raises TooLarge before allocation.
    smoothing, added to every cell's count, must be finite and >= 0 (ValueError).
    """
    smoothing = _check_budget(smoothing, "smoothing")
    rows = np.asarray(rows, dtype=float)
    cards = tuple(cards)
    if not all(_is_int(c) for c in cards):
        raise ValueError(f"cards must be integers, got {cards!r}")
    cards = tuple(map(int, cards))
    if rows.ndim != 2 or rows.shape[0] < 1 or rows.shape[1] != len(cards) or len(cards) < 2:
        raise ShapeMismatch(
            f"index rows must be N x M, N >= 1, M = len(cards) >= 2; got {rows.shape}, {cards}"
        )
    if rows.min() < 0 or np.any(rows.max(axis=0) >= cards):
        raise IndexOutOfRange(f"symbol indices must lie in [0, card) for cards {cards}")
    _check_indices(rows)
    counts = _index_table(rows, cards, 1.0)
    counts += smoothing
    return validate_discrete(counts / counts.sum())
