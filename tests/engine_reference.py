"""The log-Euler steppers that engine._log_euler replaced, kept as test
references: the full-path generic stepper and the radial model's own
recursion.  Both store every step of log X and log Z and read the bridge
normals from one (m, K, d) block stream.  On paths that never cross
engine.LOG_FLOOR the generic one does the engine's arithmetic, so terminal
states agree bit for bit; the radial one writes the bessel3 coefficients
out by hand, so it agrees up to rounding.
"""
import numpy as np

from qhedge.engine import LOG_FLOOR, _REGION_BRIDGE, _REGION_W, _block_gen


def block_draws(cfg, block_index, bn, d):
    """dW and xi (bn, n_steps, d) of one block: the W stream, and the bridge
    normals as one draw over every step."""
    dt = cfg.horizon / cfg.n_steps
    dW = np.sqrt(dt) * _block_gen(cfg.seed, block_index, _REGION_W).standard_normal(
        (bn, cfg.n_steps, d))
    xi = _block_gen(cfg.seed, block_index, _REGION_BRIDGE).standard_normal((bn, cfg.n_steps, d))
    return dW, xi, dt


def log_euler_paths(model, y0, dW, xi, dt):
    """Full-path log-Euler for state-dependent coefficients; y0 (d,), dW and
    xi (m, K, d).  Returns (y (m, K+1, d), lz (m, K+1), n_clamped)."""
    m, nsteps, d = dW.shape
    y = np.empty((m, nsteps + 1, d))
    lz = np.empty((m, nsteps + 1))
    y[:, 0, :] = y0
    lz[:, 0] = 0.0
    half = 0.5 * dt
    bridge_scale = 0.5 * np.sqrt(dt)
    n_clamped = 0

    def step(y_cur, e, h):
        x_cur = np.exp(y_cur)
        bv = np.asarray(model.b(x_cur), dtype=float)
        sv = np.asarray(model.s(x_cur), dtype=float)
        a_diag = np.einsum("nij,nij->ni", sv, sv)
        theta = np.linalg.solve(sv, bv[..., None])[..., 0]
        y_new = y_cur + (bv - 0.5 * a_diag) * h + np.einsum("nij,nj->ni", sv, e)
        dlz = -0.5 * (theta * theta).sum(axis=1) * h - np.einsum("ni,ni->n", theta, e)
        return y_new, dlz

    def clamped_half_step(y_cur, e):
        nonlocal n_clamped
        y_new, dlz = step(y_cur, e, half)
        low = y_new < LOG_FLOOR
        n_clamped += int(low.sum())
        return np.where(low, LOG_FLOOR, y_new), dlz

    for k in range(nsteps):
        yk = y[:, k, :]
        e = dW[:, k, :]
        trial, dlz = step(yk, e, dt)
        bad = (trial < LOG_FLOOR).any(axis=1)
        if bad.any():
            eb = e[bad]
            e1 = 0.5 * eb + bridge_scale * xi[bad, k, :]
            y1, dlz1 = clamped_half_step(yk[bad], e1)
            trial[bad], dlz2 = clamped_half_step(y1, eb - e1)
            dlz[bad] = dlz1 + dlz2
        y[:, k + 1, :] = trial
        lz[:, k + 1] = lz[:, k] + dlz
    return y, lz, n_clamped


def bessel3_log_paths(y0, dw, dt):
    """The radial model's recursion, d log X = e^{-2y}/2 dt + e^{-y} dW and
    d log Z = -d log X, on paths that stay above the floor; y0 (m,), dw
    (m, K).  Returns (y, lz), both (m, K+1)."""
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
