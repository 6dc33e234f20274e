"""Full-path log-Euler steppers, kept as test references for
engine._log_euler: the generic stepper and the radial model's own
recursion.  Both store every step of log X and log Z.  The generic one
does the engine's arithmetic, so terminal states agree bit for bit for
every model the engine steps in log space, builtin gbm included, under
log-euler and under exact-gbm (one step over the horizon).  The radial
one writes the bessel3 coefficients out by hand, so it agrees up to
rounding.  `theta_by_solve` is engine._theta with a solve on every path,
diagonal volatilities included.
"""
import numpy as np

from qhedge.engine import _REGION_W, _block_gen


def block_draws(cfg, block_index, bn, d):
    """dW (bn, n_steps, d) of one block, the W stream, and the step dt."""
    dt = cfg.horizon / cfg.n_steps
    dW = np.sqrt(dt) * _block_gen(cfg.seed, block_index, _REGION_W).standard_normal(
        (bn, cfg.n_steps, d))
    return dW, dt


def log_euler_paths(model, y0, dW, dt):
    """Full-path log-Euler for state-dependent coefficients; y0 (d,), dW
    (m, K, d).  Returns (y (m, K+1, d), lz (m, K+1))."""
    m, nsteps, d = dW.shape
    y = np.empty((m, nsteps + 1, d))
    lz = np.empty((m, nsteps + 1))
    y[:, 0, :] = y0
    lz[:, 0] = 0.0
    for k in range(nsteps):
        yk = y[:, k, :]
        e = dW[:, k, :]
        x_cur = np.exp(yk)
        bv = np.asarray(model.b(x_cur), dtype=float)
        sv = np.asarray(model.s(x_cur), dtype=float)
        a_diag = np.einsum("nij,nij->ni", sv, sv)
        theta = np.linalg.solve(sv, bv[..., None])[..., 0]
        y[:, k + 1, :] = yk + (bv - 0.5 * a_diag) * dt + np.einsum("nij,nj->ni", sv, e)
        lz[:, k + 1] = lz[:, k] + (-0.5 * (theta * theta).sum(axis=1) * dt
                                   - np.einsum("ni,ni->n", theta, e))
    return y, lz


def bessel3_log_paths(y0, dw, dt):
    """The radial model's recursion, d log X = e^{-2y}/2 dt + e^{-y} dW and
    d log Z = -d log X; y0 (m,), dw (m, K).  Returns (y, lz), both (m, K+1)."""
    m, nsteps = dw.shape
    y = np.empty((m, nsteps + 1))
    lz = np.empty((m, nsteps + 1))
    y[:, 0] = y0
    lz[:, 0] = 0.0
    for k in range(nsteps):
        ey = np.exp(-y[:, k])
        drift = 0.5 * ey * ey * dt
        y[:, k + 1] = y[:, k] + drift + ey * dw[:, k]
        lz[:, k + 1] = lz[:, k] - drift - ey * dw[:, k]
    return y, lz


def theta_by_solve(model, sv, bv):
    """theta = s^-1 b by one batched solve, whatever the shape of s."""
    return np.linalg.solve(sv, bv[..., None])[..., 0]
