"""Lower convex envelopes of grid functions, one row or many at a time.

The hull is an array hull that works on many rows at once: every point on
or above the chord of its kept neighbours is dropped, all in one array
pass, and passes repeat until none drops.  `convex_envelope_rows` serves
the conjugate in `pde.dual_to_primal`, which envelopes a whole time level
of slices in one call; `convex_envelope` is its one-row form.
"""
from __future__ import annotations

import numpy as np


def _kept_neighbours(keep: np.ndarray):
    """The nearest kept position at or before, and at or after, every
    position of each row; the end points must be kept."""
    n = keep.shape[1]
    pos = np.arange(n)
    before = np.maximum.accumulate(np.where(keep, pos, 0), axis=1)
    after = np.minimum.accumulate(np.where(keep, pos, n - 1)[:, ::-1], axis=1)[:, ::-1]
    return before, after


def _lower_hull_mask(x: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Vertices of the lower convex hull of each row of Y over the axis x.

    A point is dropped when it lies on or above the chord of its kept
    neighbours, so collinear points go too.  A dropped point is never a
    vertex, which makes the order of removal irrelevant: each pass drops
    every such point of every row still changing, until a pass drops none.
    The end points are always vertices.
    """
    rows, n = Y.shape
    keep = np.ones((rows, n), dtype=bool)
    xi = x[1:-1]
    live, K, y = np.arange(rows), keep.copy(), Y
    while live.size and n > 2:
        before, after = _kept_neighbours(K)
        a, b = before[:, :-2], after[:, 2:]
        ya = np.take_along_axis(y, a, axis=1)
        yb = np.take_along_axis(y, b, axis=1)
        xa = x[a]
        drop = K[:, 1:-1] & ((yb - ya) * (xi - xa) <= (y[:, 1:-1] - ya) * (x[b] - xa))
        K[:, 1:-1] &= ~drop
        changed = drop.any(axis=1)
        if not changed.all():
            keep[live] = K
            live, K, y = live[changed], K[changed], y[changed]
    return keep


def convex_envelope_rows(x: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Greatest convex minorant of every row of Y on the shared axis x:
    each row's hull vertices keep their values and the points between two
    vertices are read off the chord, as `np.interp` does."""
    keep = _lower_hull_mask(x, Y)
    a, b = _kept_neighbours(keep)
    ya = np.take_along_axis(Y, a, axis=1)
    yb = np.take_along_axis(Y, b, axis=1)
    xa = x[a]
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (yb - ya) / (x[b] - xa) * (x - xa) + ya
    out[keep] = Y[keep]
    return out


def convex_envelope(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Greatest convex minorant of y on the axis x; idempotent."""
    return convex_envelope_rows(np.asarray(x, float), np.asarray(y, float)[None, :])[0]
