"""pde._DualOperator's time step in the standard Douglas form, and its
implicit sweeps in per-node form, kept as test references.

The sweeps: the x sweep as one banded solve per node of the other x axes,
and the eta sweep as one per x node.  Both rebuild their matrices on every
call, and both pivot (LAPACK gbsv), where the operator's Thomas kernel
does not.  `solve_x` and `solve_eta` take the operator's interface: an
increment of a state that satisfies the edge relations, so nothing lies
beyond either end.
`substep` is the standard form, in which the sweeps act on values with the
edge relations' own inhomogeneous terms.  They compute the same steps as
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
from qhedge.pde import _HI, _LO, _MID, _along, _cross_diff, _second_diff, _view


def _x_sweep(op, rhs, th, axis, ends):
    """(I - th*A_axis) on interior nodes with the edge extrapolation folded
    in: one banded solve per node of the other x axes, every eta column a
    right-hand side.  `ends` are what the extrapolation adds beyond each
    end, on the (other x axes, eta) interior face."""
    wl, wc, wr = (_along(w, axis, op.d) for w in op.weights[axis])
    r_lo, r_hi = op.ratios[axis]
    c = op.cx[axis]
    lo = np.moveaxis(-th * c * wl, axis, 0)
    di = np.moveaxis(1.0 - th * c * wc, axis, 0)
    up = np.moveaxis(-th * c * wr, axis, 0)
    rhs = rhs.copy()
    src = np.moveaxis(rhs, axis, 0)
    src[0] -= lo[0][..., None] * ends[0]
    src[-1] -= up[-1][..., None] * ends[1]
    di[0] += lo[0] * (1.0 + r_lo)
    up[0] += -lo[0] * r_lo
    di[-1] += up[-1] * (1.0 + r_hi)
    lo[-1] += -up[-1] * r_hi
    ab = np.zeros((3,) + di.shape)
    ab[0, 1:] = up[:-1]
    ab[1] = di
    ab[2, :-1] = lo[1:]
    out = np.empty_like(rhs)
    dst = np.moveaxis(out, axis, 0)
    for node in np.ndindex(di.shape[1:]):
        dst[(slice(None),) + node] = solve_banded((1, 1), ab[(slice(None), slice(None)) + node],
                                                  src[(slice(None),) + node])
    return out


def _eta_sweep(op, rhs, th, bottom, top):
    """(I - th*A_eta) on interior eta nodes, one banded solve per x node,
    with the top's ghost increment folded in; `bottom` and `top` are the
    values beyond either end, one per x node."""
    n = rhs.shape[-1]
    c1 = np.broadcast_to(op.ce1, rhs.shape).reshape(-1, n)
    lo = -th * (op.ce2 - c1)
    up = -th * (op.ce2 + c1)
    di = np.full(lo.shape, 1.0 + 2.0 * th * op.ce2)
    flat = rhs.reshape(-1, n).copy()
    flat[:, 0] -= lo[:, 0] * bottom.ravel()
    flat[:, -1] -= up[:, -1] * top.ravel()
    di[:, -1] += up[:, -1]
    out = np.empty_like(flat)
    for line in range(flat.shape[0]):
        ab = np.zeros((3, n))
        ab[0, 1:] = up[line, :-1]
        ab[1] = di[line]
        ab[2, :-1] = lo[line, 1:]
        out[line] = solve_banded((1, 1), ab, flat[line])
    return out.reshape(rhs.shape)


def solve_x(op, rhs, axis):
    """The x sweep for an increment: zero beyond either end."""
    return _x_sweep(op, rhs, 0.5 * op.h, axis, (0.0, 0.0))


def solve_eta(op, rhs):
    """The eta sweep for an increment: zero beyond either end."""
    ends = np.zeros(rhs.shape[:-1])
    return _eta_sweep(op, rhs, 0.5 * op.h, ends, ends)


def substep(op, W, half):
    """One Douglas step in the standard form, in place: the explicit
    predictor W + h' F(W), h' = h / 2 on a half step and h otherwise, then
    per axis a sweep on the values of the predictor less th = h / 2 times
    the axis's own explicit term, the edges folded in with the faces of q
    and the top increment themselves."""
    h = 0.5 * op.h if half else op.h
    diag = [op.cx[axis][..., None] * _second_diff(W, axis, op.weights[axis])
            for axis in range(op.d)]
    up, down = _view(W, 0, ((op.d, _HI),)), _view(W, 0, ((op.d, _LO),))
    diag.append(op.ce2 * (up - 2.0 * _view(W, 0) + down) + op.ce1 * (up - down))
    mixed = [c * (_cross_diff(W, i, j) / span) for i, j, c, span in op.pairs]
    y = _view(W, 0) + h * sum(diag + mixed)
    th = 0.5 * op.h
    inner = (_MID,) * op.d
    for axis in range(op.d):
        faces = [face[inner] for face in op.faces[axis]]
        y = _x_sweep(op, y - th * diag[axis], th, axis, faces)
    y = _eta_sweep(op, y - th * diag[-1], th, np.zeros(op.top[inner].shape), op.top[inner])
    W[(_MID,) * (op.d + 1)] = y
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
    h', and the sweeps from factors built at th = theta h'."""
    h, theta_w = (0.5 * op.h, 1.0) if half else (op.h, 0.5)
    th = theta_w * h
    z = _whole_level(op._stencil(h), W)
    for axis in range(op.d):
        _kernels.thomas_batch(op._factor_x(th, axis), np.moveaxis(z, axis, 0))
    cols = np.ascontiguousarray(np.moveaxis(z, -1, 0))
    z = np.moveaxis(_kernels.thomas_batch(op._factor_eta(th), cols), 0, -1)
    inner = _view(W, 0)
    np.add(inner, z, out=inner)
    op.apply_bc(W)
    return W


def read(op, W, out):
    """The clamped cubic read-back of a whole level at once, with the
    cubic weights and the bound e^de f made as the operator made them
    once per solve."""
    u = op.u
    cubic = ((u - 1.0) * (u - 2.0) * (u - 3.0) / -6.0, u * (u - 2.0) * (u - 3.0) / 2.0,
             u * (u - 1.0) * (u - 3.0) / -2.0, u * (u - 1.0) * (u - 2.0) / 6.0)
    f, g = op.bounds
    ef = math.exp(op.de) * f
    flat = W.ravel()
    v0, v1, v2, v3 = (flat[m:][op.start] for m in range(4))
    floor = np.maximum(v1 + ef * (v1 - v0), v2 + g * (v3 - v2))
    chord = v1 + f * (v2 - v1)
    value = sum(c * v for c, v in zip(cubic, (v0, v1, v2, v3)))
    np.copyto(value, np.minimum(np.maximum(value, floor), chord), where=op.centred)
    out[..., :op.first] = 0.0
    np.maximum(value, 0.0, out=out[..., op.first:])
