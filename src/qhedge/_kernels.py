"""Hot numerical kernels, in numpy.

thomas_batch solves batches of tridiagonal systems for the implicit ADI
sweeps.  The Monte Carlo stepper has no kernel of its own: every log-Euler
model, the radial one included, steps through engine._log_euler.
"""
from __future__ import annotations

import numpy as np


def backend() -> str:
    """Name of the kernel backend."""
    return "numpy"


# ---------------------------------------------------------------------------
# Batched tridiagonal solve (Thomas algorithm).
#
# System i:  dl[i,k] x[k-1] + dd[i,k] x[k] + du[i,k] x[k+1] = rhs[i,k],
# with dl[:,0] and du[:,-1] ignored.  All arrays are (m, n), m independent
# systems of size n.  No pivoting: callers supply diagonally dominant
# matrices (implicit diffusion steps).
# ---------------------------------------------------------------------------

def thomas_batch(dl, dd, du, rhs):
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
