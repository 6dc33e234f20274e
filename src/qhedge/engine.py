"""Terminal states of X, the deflator Z and the auxiliary Brownian motion B.

Randomness is counter-based (Philox).  Paths are partitioned into fixed
blocks of BLOCK; block j draws from streams keyed by (seed, j, region),
where the region index separates the driving increments of W from the
auxiliary Brownian motion B.  The partition never depends on the thread
schedule, so results are bit-identical under any worker count.

Stream contract: terminal_block() is the one entry point and the one
reader of these streams.  W is one stream per block: cfg.n_steps
increments per path for log-Euler, one over the whole horizon for an exact
scheme.  The log-space schemes draw it in chunks of whole paths, as many as
fit in _DRAW_CHUNK values (at least one), and store it step-major, (n_steps,
bn, d); successive draws continue the stream, so the values are those of
one (bn, n_steps, d) draw.
B(T) - B(t0) is one N(0, T - t0) draw per path for every scheme, from a
stream of its own, drawn only when the caller asks for it: W never
depends on it, so X and Z are the same bit for bit with or without B.
The regularized estimators in mc turn it into the factor
exp(-eps^2 (T-t0)/2 + eps B).

Log-Euler evolves log X with drift b - diag(a)/2 and log Z with drift
-|theta|^2/2 and diffusion -theta'dW on the same W increments, keeping
only the current state.  The log range is checked after every step,
before the next coefficients are evaluated.  With constant coefficients
log-Euler has no discretization error, so exact-gbm is one log-Euler step
over [t0, T].  The exact-bessel3 scheme takes X as the norm of a
3-dimensional Brownian motion started at x0 e1, and Z = x0 / X.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import Nonfinite, SchemeMismatch, SingularDiffusion
from .market import MarketModel, theta_from

BLOCK = 8192
# Above this magnitude exp() overflows float64; treated as a lost path.
_LOG_LIMIT = 700.0
_MASK64 = (1 << 64) - 1
# Values per W draw of a log-space block, stored step-major as drawn: 512
# paths of 64 steps, and a whole 8192-path block of one step (exact-gbm).
_DRAW_CHUNK = 512 * 64

_REGION_W = 0
_REGION_B = 1

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

    def __post_init__(self):
        if not self.t0 < self.T:
            raise ValueError(f"need t0 < T, got {self.t0} >= {self.T}")
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if self.n_paths < 1:
            raise ValueError("n_paths must be >= 1")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; choose from {SCHEMES}")

    @property
    def horizon(self) -> float:
        return self.T - self.t0


def _check_log_range(logX, logZ, first_path: int, what: str):
    """Raise Nonfinite on the first path whose log X or log Z is NaN or at
    least _LOG_LIMIT in magnitude; axis 0 of both arrays indexes the paths
    and first_path is row 0's global index."""
    # max/min propagate NaN, which fails the comparisons
    if all(a.max() < _LOG_LIMIT and a.min() > -_LOG_LIMIT for a in (logX, logZ)):
        return
    n = logZ.shape[0]
    ok = ((np.abs(logX) < _LOG_LIMIT).reshape(n, -1).all(axis=1)
          & (np.abs(logZ) < _LOG_LIMIT).reshape(n, -1).all(axis=1))
    idx = first_path + int(np.argmin(ok))
    raise Nonfinite(f"log-space overflow on path {idx} ({what})", path_index=idx)


def _euler_step(model: MarketModel, y: np.ndarray, e: np.ndarray, h: float, y_out: np.ndarray,
                dlz_out: np.ndarray, work: np.ndarray):
    """One log-Euler step of length h from log X = y (n, d) on the W
    increments e (n, d) of that step: writes log X into y_out (n, d) and
    the log Z increment into dlz_out (n,).  work is (3, n, d) scratch; no
    argument may share memory with another."""
    d = y.shape[1]
    x, t1, t2 = work
    np.exp(y, out=x)
    bv = np.asarray(model.b(x), dtype=float)
    sv = np.asarray(model.s(x), dtype=float)
    if d == 1:
        # theta = b / s is what LAPACK's 1x1 solve returns, bit for bit
        s = sv[:, :, 0]
        if not s.all():
            raise SingularDiffusion(
                f"volatility matrix singular on a simulated path of model {model.name}")
        # y + (b - 0.5 s^2) h + s e and -0.5 theta^2 h - theta e, each product
        # and sum in the order written, so the rounding is that of the plain
        # expressions
        np.multiply(s, s, out=t1)
        t1 *= 0.5
        np.subtract(bv, t1, out=t1)
        t1 *= h
        t1 += y
        np.multiply(s, e, out=t2)
        np.add(t1, t2, out=y_out)
        theta = np.divide(bv, s, out=x)
        np.multiply(theta, theta, out=t1)
        t1 *= -0.5
        t1 *= h
        np.multiply(theta, e, out=t2)
        np.subtract(t1, t2, out=dlz_out[:, None])
        return
    theta = theta_from(sv, bv, model.name)
    # y + (b - 0.5 diag(a)) h + s e and -0.5 |theta|^2 h - theta'e, in the
    # order written, as for d = 1
    np.einsum("nij,nij->ni", sv, sv, out=t1)
    t1 *= 0.5
    np.subtract(bv, t1, out=t1)
    t1 *= h
    t1 += y
    np.einsum("nij,nj->ni", sv, e, out=t2)
    np.add(t1, t2, out=y_out)
    np.multiply(theta, theta, out=t1)
    t1.sum(axis=1, out=dlz_out)
    dlz_out *= -0.5
    dlz_out *= h
    dlz_out -= np.einsum("ni,ni->n", theta, e)


def _log_euler(model: MarketModel, x0: np.ndarray, dW: np.ndarray, dt: float, first_path: int,
               what: str):
    """Log-Euler on the step-major W increments dW (n_steps, bn, d),
    holding only the current log X (bn, d) and log Z (bn,).  Every buffer
    is made here, per call, so blocks on different threads share none.
    Returns (log X_T, log Z_T)."""
    n_steps, bn, d = dW.shape
    y = np.tile(np.log(x0), (bn, 1))
    y_new = np.empty_like(y)
    lz = np.zeros(bn)
    dlz = np.empty(bn)
    work = np.empty((3, bn, d))
    for k in range(n_steps):
        _euler_step(model, y, dW[k], dt, y_new, dlz, work)
        y, y_new = y_new, y
        lz += dlz
        _check_log_range(y, lz, first_path, what)
    return y, lz


def _step_major_increments(gen: np.random.Generator, bn: int, n_steps: int, d: int, dt: float):
    """sqrt(dt) times gen's (bn, n_steps, d) standard normal draw, stored
    step-major as (n_steps, bn, d).  The draw is made as many whole paths
    at a time as fit in _DRAW_CHUNK values, at least one; successive draws
    continue the stream, so the values are those of one draw, and each
    chunk's transpose stays in cache."""
    sq_dt = np.sqrt(dt)
    dW = np.empty((n_steps, bn, d))
    paths = max(1, _DRAW_CHUNK // (n_steps * d))
    for start in range(0, bn, paths):
        stop = min(start + paths, bn)
        chunk = gen.standard_normal((stop - start, n_steps, d))
        np.multiply(chunk.transpose(1, 0, 2), sq_dt, out=dW[:, start:stop])
    return dW


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


def terminal_block(model: MarketModel, x0: np.ndarray, cfg: SimConfig, block_index: int, bn: int,
                   aux: bool = True):
    """Terminal state of one path block: (X_T (bn, d), Z_T (bn,), B_T (bn,)),
    B_T the auxiliary increment B(T) - B(t0), or None without aux, in
    which case its stream is not drawn.

    log-Euler steps through cfg.n_steps steps, exact-gbm is one log-Euler
    step over the whole horizon, and exact-bessel3 is one draw.  The
    log-space schemes raise Nonfinite with the global index of the first
    path that leaves the representable log range.
    """
    _check_scheme(model, cfg.scheme)
    sq_horizon = np.sqrt(cfg.horizon)
    B_T = None
    if aux:
        B_T = sq_horizon * _block_gen(cfg.seed, block_index, _REGION_B).standard_normal(bn)
    gen_w = _block_gen(cfg.seed, block_index, _REGION_W)

    if cfg.scheme == "exact-bessel3":
        # X = |x0 e1 + W3| for a 3-dimensional Brownian motion W3, Z = x0 / X
        w3 = sq_horizon * gen_w.standard_normal((bn, 3))
        w3[:, 0] += x0[0]
        X = np.sqrt((w3 * w3).sum(axis=1))
        return X[:, None], x0[0] / X, B_T

    n_steps = cfg.n_steps if cfg.scheme == "log-euler" else 1
    dt = cfg.horizon / n_steps
    dW = _step_major_increments(gen_w, bn, n_steps, model.dim, dt)
    logX, logZ = _log_euler(model, x0, dW, dt, block_index * BLOCK, f"{model.name}, {cfg.scheme}")
    return np.exp(logX), np.exp(logZ), B_T
