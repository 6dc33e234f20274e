"""Terminal states of X, the deflator Z and the auxiliary Brownian motion B.

Randomness is counter-based (Philox).  Paths are partitioned into fixed
blocks of BLOCK; block j draws from streams keyed by (seed, j, region),
where the region index separates the driving increments of W, the
auxiliary Brownian motion B, and the bridge normals of the near-zero
guard.  The partition never depends on the thread schedule, so results
are bit-identical under any worker count.

Stream contract: terminal_block() is the one entry point and _step_block()
the one reader of these streams.  Log-Euler steps a block on cfg.n_steps
steps; an exact scheme makes one draw over the whole horizon.

Log-Euler evolves log X with drift b - diag(a)/2 and log Z with drift
-|theta|^2/2 and diffusion -theta'dW on the same W increments.  A step
that would push log X below LOG_FLOOR is redone as two half steps split by
a bridge normal, and a half step still below the floor is clamped there;
terminal_block() returns the number of clamps.  The exact-bessel3 scheme
takes X as the norm of a 3-dimensional Brownian motion started at x0 e1,
and Z = x0 / X.  B(T) - B(t0) is returned per path; the regularized
estimators in mc turn it into the factor exp(-eps^2 (T-t0)/2 + eps B).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import Nonfinite, SchemeMismatch, SingularDiffusion
from .market import MarketModel

BLOCK = 8192
LOG_FLOOR = -30.0
# Above this magnitude exp() overflows float64; treated as a lost path.
_LOG_LIMIT = 700.0
_MASK64 = (1 << 64) - 1

_REGION_W = 0
_REGION_B = 1
_REGION_BRIDGE = 2

SCHEMES = ("log-euler", "exact-gbm", "exact-bessel3")


def _block_gen(seed: int, block_index: int, region: int) -> np.random.Generator:
    key = np.array([seed & _MASK64, 0], dtype=np.uint64)
    counter = np.array([0, 0, block_index, region], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(counter=counter, key=key))


def _blocks(n_paths: int):
    start = 0
    block_index = 0
    while start < n_paths:
        bn = min(BLOCK, n_paths - start)
        yield block_index, start, bn
        start += bn
        block_index += 1


@dataclass(frozen=True)
class SimConfig:
    t0: float = 0.0
    T: float = 1.0
    n_steps: int = 64
    n_paths: int = 1024
    seed: int = 0
    scheme: str = "log-euler"
    epsilon: float = 0.0

    def __post_init__(self):
        if not self.t0 < self.T:
            raise ValueError(f"need t0 < T, got {self.t0} >= {self.T}")
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if self.n_paths < 1:
            raise ValueError("n_paths must be >= 1")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; choose from {SCHEMES}")
        if self.epsilon < 0:
            raise ValueError("epsilon must be >= 0")

    @property
    def horizon(self) -> float:
        return self.T - self.t0


def _check_log_range(logX, logZ, first_path: int, what: str):
    """Raise Nonfinite on the first path whose log X or log Z is NaN or at
    least _LOG_LIMIT in magnitude; first_path is row 0's global index."""
    # max/min propagate NaN, which fails the comparisons
    if all(a.max() < _LOG_LIMIT and a.min() > -_LOG_LIMIT for a in (logX, logZ)):
        return
    ok = (np.abs(logX) < _LOG_LIMIT).all(axis=(1, 2)) & (np.abs(logZ) < _LOG_LIMIT).all(axis=1)
    idx = first_path + int(np.argmin(ok))
    raise Nonfinite(f"log-space overflow on path {idx} ({what})", path_index=idx)


def _gbm_coeffs(model: MarketModel):
    b_vec = np.asarray(model.params["b"], dtype=float)
    s_mat = np.asarray(model.params["s"], dtype=float)
    a_diag = (s_mat * s_mat).sum(axis=1)
    theta = np.linalg.solve(s_mat, b_vec)
    return b_vec, s_mat, a_diag, theta


def _generic_log_euler(model: MarketModel, y0: np.ndarray, dW: np.ndarray, xi: np.ndarray, dt: float):
    """Stepper for state-dependent coefficients; y0 (d,), dW and xi (m, K, d).

    A step that would push a coordinate of log X below LOG_FLOOR is redone
    as two half steps with the increment split by the bridge normal xi; a
    half step still below the floor is clamped there and counted.
    Returns (y (m,K+1,d), lz (m,K+1), n_clamped)."""
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
        try:
            theta = np.linalg.solve(sv, bv[..., None])[..., 0]
        except np.linalg.LinAlgError as exc:
            raise SingularDiffusion(
                f"volatility matrix singular on a simulated path of model {model.name}: {exc}"
            ) from None
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


def _step_block(model: MarketModel, x0: np.ndarray, cfg: SimConfig, block_index: int, bn: int,
                n_steps: int):
    """Paths of one block over cfg's horizon on n_steps equal steps.

    The only reader of the block streams and the only place a scheme's
    arithmetic is written.  Returns (X (bn, n_steps+1, d), Z (bn, n_steps+1),
    dB (bn, n_steps), n_clamped).  The log-space schemes raise Nonfinite
    with the global index of the first path that leaves the representable
    log range.
    """
    dt = cfg.horizon / n_steps
    sq_dt = np.sqrt(dt)
    dB = sq_dt * _block_gen(cfg.seed, block_index, _REGION_B).standard_normal((bn, n_steps))
    gen_w = _block_gen(cfg.seed, block_index, _REGION_W)

    if cfg.scheme == "exact-bessel3":
        # X = |x0 e1 + W3| for a 3-dimensional Brownian motion W3, Z = x0 / X
        w3 = np.zeros((bn, n_steps + 1, 3))
        np.cumsum(sq_dt * gen_w.standard_normal((bn, n_steps, 3)), axis=1, out=w3[:, 1:, :])
        w3[:, :, 0] += x0[0]
        X = np.sqrt((w3 * w3).sum(axis=2))
        return X[:, :, None], x0[0] / X, dB, 0

    d = model.dim
    dW = sq_dt * gen_w.standard_normal((bn, n_steps, d))
    n_clamped = 0
    if model.kind == "gbm":
        # Constant coefficients: log-Euler has no discretization error,
        # so exact-gbm and log-euler share this path.
        b_vec, s_mat, a_diag, theta = _gbm_coeffs(model)
        logX = np.zeros((bn, n_steps + 1, d))
        np.cumsum((b_vec - 0.5 * a_diag) * dt + dW @ s_mat.T, axis=1, out=logX[:, 1:, :])
        logX += np.log(x0)
        logZ = np.zeros((bn, n_steps + 1))
        np.cumsum(-0.5 * float(theta @ theta) * dt - dW @ theta, axis=1, out=logZ[:, 1:])
    elif model.kind == "bessel3":
        xi = _block_gen(cfg.seed, block_index, _REGION_BRIDGE).standard_normal((bn, n_steps))
        y, logZ, n_clamped = _kernels.bessel3_log_paths(
            np.full(bn, np.log(x0[0])), dW[:, :, 0], xi, dt, LOG_FLOOR
        )
        logX = y[:, :, None]
    else:
        xi = _block_gen(cfg.seed, block_index, _REGION_BRIDGE).standard_normal((bn, n_steps, d))
        logX, logZ, n_clamped = _generic_log_euler(model, np.log(x0), dW, xi, dt)
    _check_log_range(logX, logZ, block_index * BLOCK, f"{model.name}, {cfg.scheme}")
    return np.exp(logX, out=logX), np.exp(logZ, out=logZ), dB, n_clamped


def _check_scheme(model: MarketModel, scheme: str):
    if scheme == "exact-gbm" and model.kind != "gbm":
        raise SchemeMismatch(f"exact-gbm scheme requires a gbm model, got {model.kind}")
    if scheme == "exact-bessel3" and model.kind != "bessel3":
        raise SchemeMismatch(f"exact-bessel3 scheme requires a bessel3 model, got {model.kind}")


def default_scheme(model: MarketModel) -> str:
    """Exact sampler for the built-in models, log-Euler otherwise."""
    if model.kind == "gbm":
        return "exact-gbm"
    if model.kind == "bessel3":
        return "exact-bessel3"
    return "log-euler"


def terminal_block(model: MarketModel, x0: np.ndarray, cfg: SimConfig, block_index: int, bn: int):
    """Terminal state of one path block: (X_T (bn, d), Z_T (bn,), B_T (bn,),
    n_clamped), B_T the auxiliary increment B(T) - B(t0) and n_clamped the
    floor clamps of the log-Euler guard (0 for the exact schemes).

    Exact schemes make one draw over the whole horizon; log-Euler steps
    through cfg.n_steps steps.
    """
    _check_scheme(model, cfg.scheme)
    n_steps = cfg.n_steps if cfg.scheme == "log-euler" else 1
    X, Z, dB, n_clamped = _step_block(model, x0, cfg, block_index, bn, n_steps)
    return X[:, -1, :], Z[:, -1], dB.sum(axis=1), n_clamped
