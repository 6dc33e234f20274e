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
Algorithms, 2nd ed. 2002, ch. 9).  The callers' sweeps say when theirs
are.  A zero or non-finite pivot raises Nonfinite.  The Monte Carlo
stepper has no kernel of its own: every log-space scheme, for every
model, steps through engine._log_euler, and exact-gbm is one of its steps.
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
        inv = 1.0 / pivot
        lower = lo * inv
    lower[0] = 0.0
    zero = (pivot == 0.0).reshape(pivot.shape[0], -1).any(axis=1)
    if zero.any():
        raise Nonfinite(f"{label}: zero pivot in row {int(np.argmax(zero))} "
                        "of the tridiagonal sweep")
    if not all(np.isfinite(a).all() for a in (pivot, inv, lower, upper)):
        raise Nonfinite(f"{label}: tridiagonal sweep factors are not finite")
    return TridiagFactors(inv, list(lower), list(upper))


def thomas_batch(factors: TridiagFactors, rhs: np.ndarray) -> np.ndarray:
    """Solve the factored lines for rhs, swept axis first, in place, and
    return rhs.  rhs may be any writable view, a transpose included; its
    trailing axes broadcast the factors, so they hold the lanes."""
    inv, lower, upper = factors
    rhs *= inv
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
