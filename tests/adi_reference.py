"""pde._DualOperator's time step in the standard Douglas form, and its
implicit sweep in per-line form, kept as test references.

`_sweep` is the implicit sweep along one axis as one banded solve per line
of that axis, built from the operator's per-axis description: its bands
(op.bands) and the relation beyond each end (op.ends), both folded in as
the operator folds them.  It rebuilds its matrices on every call, and it
pivots (LAPACK gbsv), where the operator's Thomas kernel does not.
`sweep` takes the operator's interface: an increment of a state that
satisfies the edge relations, so nothing lies beyond either end.
`substep` is the standard form, in which the sweeps act on values of the
state w - q, with its value -q beyond the eta bottom.  It takes each
axis's explicit term from the same bands.  They compute the same steps as
the operator in another order of operations, so surfaces agree with them
up to rounding.
`explicit` and `read` are the operator's own whole-level passes, every
temporary the size of a time level, from before it worked in slabs: the
same operations in the same order, so surfaces agree with them bit for
bit.
`substep_of_length` is the operator's step from before it was built for
one step length: a Rannacher half step runs the stencil rebuilt for h / 2
rather than halving the increment of h, and each step sweeps with factors
rebuilt at th = theta h' for its own length h' and theta.  Halving is
exact, so surfaces agree with it bit for bit.
All of them take the step length h and th = h / 2 from the operator.
"""
import math

import numpy as np
from scipy.linalg import solve_banded

from qhedge import _kernels
from qhedge.pde import _HI, _LO, _MID, _cross_diff, _view


def _sweep(op, rhs, th, axis, beyond=0.0):
    """(I - th*A_axis) on the interior nodes of `axis`, one banded solve per
    line of it, with op.ends folded in at both ends; `beyond` is added to
    the node beyond the bottom end, a value per line or one for all."""
    n = rhs.shape[axis]
    below, centre, above = op.bands[axis]
    lo, di, up = (np.moveaxis(np.broadcast_to(b, rhs.shape), axis, 0).reshape(n, -1).copy()
                  for b in (-th * below, 1.0 - th * centre, -th * above))
    src = np.moveaxis(rhs, axis, 0).reshape(n, -1).copy()
    src[0] -= lo[0] * np.ravel(beyond)
    (a0, b0), (a1, b1) = op.ends[axis]
    di[0] += a0 * lo[0]
    up[0] += b0 * lo[0]
    di[-1] += a1 * up[-1]
    lo[-1] += b1 * up[-1]
    out = np.empty_like(src)
    for line in range(src.shape[1]):
        ab = np.zeros((3, n))
        ab[0, 1:] = up[:-1, line]
        ab[1] = di[:, line]
        ab[2, :-1] = lo[1:, line]
        out[:, line] = solve_banded((1, 1), ab, src[:, line])
    return np.moveaxis(out.reshape(np.moveaxis(rhs, axis, 0).shape), 0, axis)


def sweep(op, rhs, axis):
    """The sweep along `axis` for an increment: zero beyond either end."""
    return _sweep(op, rhs, 0.5 * op.h, axis)


def substep(op, W, half):
    """One Douglas step in the standard form, in place: the explicit
    predictor W + h' F(W), h' = h / 2 on a half step and h otherwise, then
    per axis a sweep on the values of the predictor less th = h / 2 times
    the axis's own explicit term, the edges folded in, -q below the eta
    bottom."""
    h = 0.5 * op.h if half else op.h
    d = op.d
    diag = [lo * _view(W, 0, ((axis, _LO),)) + c * _view(W, 0) + up * _view(W, 0, ((axis, _HI),))
            for axis, (lo, c, up) in enumerate(op.bands)]
    mixed = [c * (_cross_diff(W, i, j) / span) for i, j, c, span in op.pairs]
    y = _view(W, 0) + h * sum(diag + mixed)
    th = 0.5 * op.h
    bottom = op.neg_q[(_MID,) * d + (0,)]
    for axis in range(d + 1):
        y = _sweep(op, y - th * diag[axis], th, axis, bottom if axis == d else 0.0)
    W[(_MID,) * (d + 1)] = y
    op.apply_bc(W)
    return W


def _whole_level(stencil, W):
    """The sum of a stencil's terms on W, one full temporary per term."""
    (centre, _), *terms = stencil
    z = centre * _view(W, 0)
    for c, shifts in terms:
        z += c * _view(W, 0, shifts)
    return z


def explicit(op, W):
    """h F(W) on the interior nodes, one full temporary per stencil term."""
    return _whole_level(op.terms, W)


def substep_of_length(op, W, half):
    """One Douglas step in delta form, in place, as the operator took it for
    a step of length h' and weight theta: (h / 2, 1) on a half step, (h,
    1/2) otherwise.  The increment h' F(W) comes from the stencil built for
    h', and the sweeps from factors built at th = theta h', each on a
    swept-axis-first copy of the increment."""
    h, theta_w = (0.5 * op.h, 1.0) if half else (op.h, 0.5)
    th = theta_w * h
    z = _whole_level(op._stencil(h), W)
    for axis in range(op.d + 1):
        lines = np.ascontiguousarray(np.moveaxis(z, axis, 0))
        z = np.moveaxis(_kernels.thomas_batch(op._factor(th, axis), lines), 0, axis)
    inner = _view(W, 0)
    np.add(inner, z, out=inner)
    op.apply_bc(W)
    return W


def read(op, W, out):
    """The clamped cubic read-back of a whole level at once, with the bound
    e^de f made as the operator made it once per solve: the stencil's
    differences, the chords and the cubic in Newton form taken from them
    in the operator's order, scaled by each target's factor, and the
    requested q added after the clamp."""
    u = op.u
    f, g = op.bounds
    ef = math.exp(op.de) * f
    flat = W.ravel()
    v0, v1, v2, v3 = (flat[m:][op.start] for m in range(4))
    d0, d1, d2 = v1 - v0, v2 - v1, v3 - v2
    floor = np.maximum(v1 + ef * d0, v2 + g * d2)
    chord = v1 + f * d1
    dd = d1 - d0
    value = v1 + (((dd / 2.0 + (d2 - d1 - dd) / 6.0 * u) * (u - 2.0) + d1) * (u - 1.0))
    np.copyto(value, np.minimum(np.maximum(value, floor), chord), where=op.centred)
    value *= op.scale
    value += op.q_read
    out[..., :op.first] = 0.0
    np.maximum(value, 0.0, out=out[..., op.first:])
