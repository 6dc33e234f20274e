"""Discrete Legendre transforms between the p-domain (success fraction in
[0,1]) and the q-domain (threshold in [0, q_max]).

The conjugate of a grid function equals the conjugate of its lower convex
envelope, so every transform first takes the envelope and then searches the
hull's slope sequence once per target.

The hull is an array hull that works on many rows at once: every point on
or above the chord of its kept neighbours is dropped, all in one array
pass, and passes repeat until none drops.  `convex_envelope_rows` serves
the per-slice transform in `pde.dual_to_primal`, which envelopes a whole
time level of slices in one call.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgmaxAtBoundary, DomainMismatch, NotStrictlyConvex, POutOfRange

P_DOMAIN = "p"
Q_DOMAIN = "q"


@dataclass(frozen=True)
class ConvexGridFunction:
    axis: np.ndarray
    values: np.ndarray
    domain_tag: str

    def __post_init__(self):
        ax, v = np.asarray(self.axis, float), np.asarray(self.values, float)
        if ax.ndim != 1 or ax.shape != v.shape or ax.size < 2:
            raise ValueError("axis and values must be matching 1-d arrays, length >= 2")
        if np.any(np.diff(ax) <= 0):
            raise ValueError("axis must be strictly increasing")
        if not np.all(np.isfinite(v)):
            raise ValueError("values must be finite")
        if self.domain_tag not in (P_DOMAIN, Q_DOMAIN):
            raise ValueError(f"domain_tag must be {P_DOMAIN!r} or {Q_DOMAIN!r}")
        object.__setattr__(self, "axis", ax)
        object.__setattr__(self, "values", v)


def grid_function(axis, values, domain_tag: str) -> ConvexGridFunction:
    return ConvexGridFunction(np.asarray(axis, float), np.asarray(values, float), domain_tag)


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


def convex_envelope(f: ConvexGridFunction) -> ConvexGridFunction:
    """Greatest convex minorant on the grid; idempotent."""
    out = convex_envelope_rows(f.axis, f.values[None, :])[0]
    return ConvexGridFunction(f.axis.copy(), out, f.domain_tag)


def _conjugate(x: np.ndarray, y: np.ndarray, targets: np.ndarray):
    """max_j (c*x_j - y_j) over hull vertices for each slope c in targets.

    Returns (values, argmax_x, at_upper): the maximum, its abscissa, and
    whether the maximizer is the last grid point.
    """
    hull = _lower_hull_mask(x, y[None, :])[0]
    hx, hy = x[hull], y[hull]
    slopes = np.diff(hy) / np.diff(hx)
    j = np.searchsorted(slopes, targets, side="left")
    vals = targets * hx[j] - hy[j]
    return vals, hx[j], j == hx.size - 1


def legendre_p_to_q(u_slice: ConvexGridFunction, q_grid) -> ConvexGridFunction:
    """w(q) = max over grid p of (pq - U(p)) on the given q grid."""
    if u_slice.domain_tag != P_DOMAIN:
        raise DomainMismatch("legendre_p_to_q expects a p-domain input")
    q = np.asarray(q_grid, dtype=float)
    vals, _, _ = _conjugate(u_slice.axis, u_slice.values, q)
    return ConvexGridFunction(q, vals, Q_DOMAIN)


def legendre_q_to_p(w_slice: ConvexGridFunction, p_grid, tolerance: float = 0.02) -> ConvexGridFunction:
    """U(p) = max over grid q of (pq - w(q)) on the given p grid.

    The sup for p < 1 must localize below q_max; a maximizer at the top grid
    point for some p < 1 - tolerance signals that q_max was too small.
    """
    if w_slice.domain_tag != Q_DOMAIN:
        raise DomainMismatch("legendre_q_to_p expects a q-domain input")
    p = np.asarray(p_grid, dtype=float)
    if np.any(p < 0) or np.any(p > 1):
        raise POutOfRange("p grid outside [0, 1]")
    vals, _, at_top = _conjugate(w_slice.axis, w_slice.values, p)
    offending = at_top & (p < 1.0 - tolerance)
    if offending.any():
        worst = p[offending].min()
        raise ArgmaxAtBoundary(
            f"maximizer at q_max={w_slice.axis[-1]:g} already at p={worst:g}; enlarge q_max"
        )
    return ConvexGridFunction(p, vals, P_DOMAIN)


def derivative_inverse(w_slice: ConvexGridFunction, p: float) -> float:
    """H(p): the abscissa where the subgradient of the (strictly convex)
    slice crosses p; saturates to the grid ends outside the slope range."""
    if not 0.0 < p < 1.0:
        raise POutOfRange(f"p={p} outside (0, 1)")
    x, y = w_slice.axis, w_slice.values
    slopes = np.diff(y) / np.diff(x)
    gaps = np.diff(slopes)
    if slopes.size >= 2 and gaps.min() <= 1e-12 * max(1.0, np.abs(slopes).max()):
        raise NotStrictlyConvex(
            f"slice slopes not strictly increasing (min gap {gaps.min():.3e})"
        )
    j = int(np.searchsorted(slopes, p, side="left"))
    return float(x[min(j, x.size - 1)])


def fenchel_young_gap(u_slice: ConvexGridFunction, w_slice: ConvexGridFunction) -> float:
    """max over grid pairs of p*q - U(p) - w(q); <= 0 up to rounding for a
    conjugate pair."""
    p, up = u_slice.axis, u_slice.values
    q, wq = w_slice.axis, w_slice.values
    grid = np.outer(p, q) - up[:, None] - wq[None, :]
    return float(grid.max())
