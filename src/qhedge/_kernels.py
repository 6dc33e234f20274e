"""Hot numerical kernels, in numpy.

The implicit ADI sweeps solve one tridiagonal system per grid line of the
swept axis.  Bands and right-hand sides carry the swept axis first; every
axis after it is a lane, so one array holds every line of a sweep, and
every right-hand side of a line, side by side.  factor_lines runs the
Thomas recurrence down the swept axis once per solve, on the whole slab
of lanes at a time; thomas_batch then solves with four ufunc calls per
row of the swept axis.  The Python loops run over the rows of one line,
never over lines or nodes, and the lanes never couple, so each line is
solved exactly as on its own.

There is no pivoting.  Where the rows are diagonally dominant, |di| >=
|lo| + |up|, no pivot falls below the row's slack |di| - |lo| - |up| and
no backward multiplier exceeds 1 in size, so elimination without
pivoting is stable (Higham, Accuracy and Stability of Numerical
Algorithms, 2nd ed. 2002, ch. 9).  pde._DualOperator._factor states when
the dual solver's sweeps are.  A zero or non-finite pivot raises
Nonfinite.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import Nonfinite


def backend() -> str:
    """Name of the kernel backend."""
    return "numpy"


class TridiagFactors(NamedTuple):
    """The Thomas factors of every line of a sweep, swept axis first: the
    reciprocal pivots, and per row the multipliers of the row before
    (forward) and after it (backward), both scaled by the row's pivot, as
    lists of row views."""

    inv_pivot: np.ndarray
    lower: list
    upper: list


def factor_lines(lo, di, up, label: str) -> TridiagFactors:
    """Factor the tridiagonal systems whose rows run along axis 0 of the
    bands: row k of every line reads

        lo[k] x[k-1] + di[k] x[k] + up[k] x[k+1],

    with lo[0] and up[-1] ignored.  The bands broadcast against each other,
    and their trailing axes against the lanes of the right-hand sides; the
    factors take the broadcast shape of the bands.  Raises Nonfinite,
    naming `label`, on a zero pivot or a factor that is not finite."""
    lo, di, up = np.broadcast_arrays(lo, di, up)
    pivot = np.array(di, dtype=float)
    upper = np.zeros(pivot.shape)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(len(pivot) - 1):
            upper[k] = up[k] / pivot[k]
            pivot[k + 1] -= lo[k + 1] * upper[k]
    zero = (pivot == 0.0).reshape(pivot.shape[0], -1).any(axis=1)
    if zero.any():
        raise Nonfinite(f"{label}: zero pivot in row {int(np.argmax(zero))} "
                        "of the tridiagonal sweep")
    if not np.isfinite(pivot).all():
        raise Nonfinite(f"{label}: tridiagonal sweep factors are not finite")
    # the reciprocals replace the pivots, in place
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        inv = np.divide(1.0, pivot, out=pivot)
        lower = lo * inv
    lower[0] = 0.0
    if not all(np.isfinite(a).all() for a in (inv, lower, upper)):
        raise Nonfinite(f"{label}: tridiagonal sweep factors are not finite")
    # the multipliers of one line are Python floats (see thomas_batch)
    return TridiagFactors(inv, *(a.tolist() if a.ndim == 1 else list(a) for a in (lower, upper)))


def thomas_batch(factors: TridiagFactors, rhs: np.ndarray) -> np.ndarray:
    """Solve the factored lines for rhs, swept axis first, in place, and
    return rhs.  rhs may be any writable view, a transpose included; its
    trailing axes broadcast the factors, so they hold the lanes.  The
    factors may have length 1 along a lane axis, one value for every lane
    of a line, and broadcast along it.

    A 1-d rhs, with 1-d factors, is one line, and its recurrence runs on
    Python floats, the same operations in the same order: a ufunc call per
    row costs more than the row's two flops (0.06 ms on a line of 347 rows,
    against 0.80 ms for that line as the one lane of an (n, 1) system)."""
    inv, lower, upper = factors
    rhs *= inv
    if rhs.ndim == 1:
        r = rhs.tolist()
        for k in range(1, len(r)):
            r[k] -= lower[k] * r[k - 1]
        for k in range(len(r) - 2, -1, -1):
            r[k] -= upper[k] * r[k + 1]
        rhs[:] = r
        return rhs
    rows = list(rhs)
    tmp = np.empty(rows[0].shape)
    # out given by position: on rows of a few hundred values the call's
    # overhead is the cost
    mul, sub = np.multiply, np.subtract
    for row, m, prev in zip(rows[1:], lower[1:], rows):
        mul(m, prev, tmp)
        sub(row, tmp, row)
    for row, u, after in zip(rows[-2::-1], upper[-2::-1], rows[::-1]):
        mul(u, after, tmp)
        sub(row, tmp, row)
    return rhs
