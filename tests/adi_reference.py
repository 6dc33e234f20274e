"""The implicit ADI sweeps of pde._DualOperator in their per-node form,
kept as test references: the x sweep as one banded solve per node of the
other x axes, and the eta sweep as a Thomas recursion looped over eta
nodes, batched over x nodes.  Both rebuild their matrices on every call.
They solve the same systems as the factored block sweeps in another order
of operations, so surfaces agree with them up to rounding.
"""
import numpy as np
from scipy.linalg import solve_banded

from qhedge.pde import _along


def thomas_loop(dl, dd, du, rhs):
    """m tridiagonal systems of size n, rows of (m, n) arrays; dl[:, 0] and
    du[:, -1] are ignored.  No pivoting."""
    m, n = dd.shape
    cp = np.empty((m, n - 1))
    x = np.empty((m, n))
    denom = dd[:, 0].copy()
    cp[:, 0] = du[:, 0] / denom
    x[:, 0] = rhs[:, 0] / denom
    for k in range(1, n):
        denom = dd[:, k] - dl[:, k] * cp[:, k - 1]
        if k < n - 1:
            cp[:, k] = du[:, k] / denom
        x[:, k] = (rhs[:, k] - dl[:, k] * x[:, k - 1]) / denom
    for k in range(n - 2, -1, -1):
        x[:, k] -= cp[:, k] * x[:, k + 1]
    return x


def solve_x(op, rhs, th, axis):
    """(I - th*A_axis) on interior nodes with the edge extrapolation folded
    in: one banded solve per node of the other x axes, every eta column a
    right-hand side."""
    wl, wc, wr = (_along(w, axis, op.d) for w in op.weights[axis])
    r_lo, r_hi = op.ratios[axis]
    c = op.cx[axis]
    lo = np.moveaxis(-th * c * wl, axis, 0)
    di = np.moveaxis(1.0 - th * c * wc, axis, 0)
    up = np.moveaxis(-th * c * wr, axis, 0)
    di[0] += lo[0] * (1.0 + r_lo)
    up[0] += -lo[0] * r_lo
    di[-1] += up[-1] * (1.0 + r_hi)
    lo[-1] += -up[-1] * r_hi
    # the edge offsets of w - q's extrapolation, as right-hand side terms
    f_lo, f_hi = (face[(slice(1, -1),) * op.d] for face in op.faces[axis])
    rhs = rhs.copy()
    src = np.moveaxis(rhs, axis, 0)
    src[0] -= lo[0][..., None] * f_lo
    src[-1] -= up[-1][..., None] * f_hi
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


def solve_eta(op, rhs, th):
    """(I - th*A_eta) on interior eta nodes, batched tridiagonal per x node.

    Folds v = 0 at the bottom and the top's ghost increment of q."""
    n = rhs.shape[-1]
    c1 = np.broadcast_to(op.ce1, rhs.shape).reshape(-1, n)
    lo = -th * (op.ce2 - c1)
    up = -th * (op.ce2 + c1)
    di = np.full(lo.shape, 1.0 + 2.0 * th * op.ce2)
    flat = rhs.reshape(-1, n).copy()
    di[:, -1] += up[:, -1]
    flat[:, -1] -= up[:, -1] * op.top[(slice(1, -1),) * op.d].ravel()
    return thomas_loop(lo, di, up, flat).reshape(rhs.shape)
