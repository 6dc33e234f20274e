"""Hot numerical kernels, in numpy.

thomas_batch solves batches of tridiagonal systems for the implicit ADI
sweeps; bessel3_log_paths is the log-Euler recursion of the radial model.
"""
from __future__ import annotations

import math

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


# ---------------------------------------------------------------------------
# Log-Euler evolution for the radial (Bessel-3 type) model, d=1:
#   d log X = 0.5 exp(-2 log X) dt + exp(-log X) dW
#   d log Z = -0.5 exp(-2 log X) dt - exp(-log X) dW
# A full step that would push log X below `floor` is redone as two half
# steps with the Brownian increment split by a bridge normal; a half step
# still below the floor is clamped there and counted.
# ---------------------------------------------------------------------------

def bessel3_log_paths(y0, dw, xi, dt, floor):
    """Return (y, lz, n_clamped); y and lz are (m, K+1) log X and log Z paths.

    y0: (m,) initial log X; dw: (m, K) Brownian increments; xi: (m, K)
    bridge normals, read only at steps that cross the floor.
    """
    m, nsteps = dw.shape
    y = np.empty((m, nsteps + 1))
    lz = np.empty((m, nsteps + 1))
    y[:, 0] = y0
    lz[:, 0] = 0.0
    half = 0.5 * dt
    bridge_scale = 0.5 * math.sqrt(dt)
    n_clamped = 0
    for k in range(nsteps):
        yk = y[:, k]
        e = dw[:, k]
        ey = np.exp(-yk)
        drift = 0.5 * ey * ey * dt
        trial = yk + drift + ey * e
        dlz = -drift - ey * e
        bad = trial < floor
        if bad.any():
            yb = yk[bad]
            eb = e[bad]
            e1 = 0.5 * eb + bridge_scale * xi[bad, k]
            e2 = eb - e1
            ey1 = np.exp(-yb)
            d1 = 0.5 * ey1 * ey1 * half
            y1 = yb + d1 + ey1 * e1
            dlzb = -d1 - ey1 * e1
            low1 = y1 < floor
            n_clamped += int(low1.sum())
            y1 = np.where(low1, floor, y1)
            ey2 = np.exp(-y1)
            d2 = 0.5 * ey2 * ey2 * half
            y2 = y1 + d2 + ey2 * e2
            dlzb = dlzb - d2 - ey2 * e2
            low2 = y2 < floor
            n_clamped += int(low2.sum())
            y2 = np.where(low2, floor, y2)
            trial[bad] = y2
            dlz[bad] = dlzb
        y[:, k + 1] = trial
        lz[:, k + 1] = lz[:, k] + dlz
    return y, lz, n_clamped
