"""Hot numerical kernels, in numpy and LAPACK.

The implicit ADI sweeps solve block-diagonal tridiagonal systems: one
block per grid line of the swept axis, with the couplings between blocks
set to zero.  factor_blocks LU-factors such a system once (LAPACK dgttrf);
thomas_batch solves it for any number of right-hand sides in one dgttrs
call, with no Python loop over lines or nodes.  Partial pivoting never
crosses a block boundary (the coupling there is zero, so it never beats
the pivot), so every block is solved exactly as on its own.  The Monte
Carlo stepper has no kernel of its own: every log-Euler model, the radial
one included, steps through engine._log_euler.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np
from scipy.linalg import lapack

from .errors import Nonfinite


def backend() -> str:
    """Name of the kernel backend."""
    return "numpy"


class TridiagFactors(NamedTuple):
    """dgttrf's LU factors of one block-diagonal tridiagonal system."""

    dl: np.ndarray
    d: np.ndarray
    du: np.ndarray
    du2: np.ndarray
    ipiv: np.ndarray


def factor_blocks(lo, di, up, label: str) -> TridiagFactors:
    """Factor the block-diagonal system whose m blocks are the rows of the
    (m, n) bands: row k of block i reads

        lo[i, k] x[k-1] + di[i, k] x[k] + up[i, k] x[k+1],

    with lo[:, 0] and up[:, -1] ignored.  Unknowns are numbered block by
    block, so node k of block i is unknown i n + k.  Raises Nonfinite,
    naming `label`, on a zero pivot or a factor that is not finite.
    """
    m, n = di.shape
    lower = np.zeros((m, n))
    lower[:, :-1] = lo[:, 1:]
    upper = np.zeros((m, n))
    upper[:, :-1] = up[:, :-1]
    dl, d, du, du2, ipiv, info = lapack.dgttrf(lower.ravel()[:-1], di.ravel(),
                                               upper.ravel()[:-1])
    if info > 0:
        raise Nonfinite(f"{label}: zero pivot in row {info - 1} of the tridiagonal sweep")
    if not all(np.isfinite(a).all() for a in (dl, d, du, du2)):
        raise Nonfinite(f"{label}: tridiagonal sweep factors are not finite")
    return TridiagFactors(dl, d, du, du2, ipiv)


def thomas_batch(factors: TridiagFactors, rhs: np.ndarray) -> np.ndarray:
    """Solve the factored system for rhs (N,) or (N, nrhs), in one call.

    rhs is consumed: LAPACK solves in its memory when it is a float64
    array in Fortran order (a 1-d array always is), so its contents are
    undefined afterwards."""
    b = rhs if rhs.ndim == 2 else rhs[:, None]
    x, info = lapack.dgttrs(*factors, b, overwrite_b=True)
    if info < 0:
        raise ValueError(f"dgttrs: argument {-info} is invalid")
    return x if rhs.ndim == 2 else x[:, 0]
