"""Path simulation for X, the deflator Z, and the dual processes Q and Q_eps.

Randomness is counter-based (Philox).  Paths are partitioned into fixed
blocks of BLOCK; block j draws from streams keyed by (seed, j, region),
where the region index separates the driving increments of W, the
auxiliary Brownian motion B, and the bridge normals of the near-zero
guard.  The partition never depends on the thread schedule, so results
are bit-identical under any worker count.

Stream contract: one per-block stepper reads these streams for every
consumer.  simulate() and the log-Euler terminal_block() step a block on
cfg.n_steps steps, so their terminal states agree bit for bit.  When only
terminal states are needed, an exact scheme makes one draw over the whole
horizon: it matches simulate()'s terminal column in law, and bit for bit
when cfg.n_steps == 1.

Log-Euler evolves log X with drift b - diag(a)/2 and log Z with drift
-|theta|^2/2 and diffusion -theta'dW on the same W increments.  The
exact-bessel3 scheme takes X as the norm of a 3-dimensional Brownian
motion started at x0 e1, and Z = x0 / X.  Q is derived as q0/Z exactly,
and Q_eps from Q by the exact multiplicative factor
exp(-eps^2 (s-t0)/2 + eps (B(s)-B(t0))).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernels
from .errors import Nonfinite, SchemeMismatch, SingularDiffusion
from .market import MarketModel, builtin_model

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


@dataclass(frozen=True)
class PathBundle:
    t: np.ndarray
    X: np.ndarray
    Z: np.ndarray
    Q: np.ndarray
    Q_eps: np.ndarray
    dW: Optional[np.ndarray]
    dB: np.ndarray
    model_name: str
    x0: np.ndarray
    q0: float
    config: SimConfig
    n_floor_hits: int = 0

    @property
    def n_paths(self) -> int:
        return self.X.shape[0]

    @property
    def n_steps(self) -> int:
        return self.X.shape[1] - 1

    @property
    def dim(self) -> int:
        return self.X.shape[2]

    def aux_total(self) -> np.ndarray:
        """B(T) - B(t0) per path."""
        return self.dB.sum(axis=1)


def _freeze(*arrays):
    for a in arrays:
        if a is not None:
            a.flags.writeable = False


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
    dW (bn, n_steps, d), dB (bn, n_steps), n_clamped); dW is None for
    exact-bessel3, which draws a 3-dimensional Brownian motion instead.
    The log-space schemes raise Nonfinite with the global index of the
    first path that leaves the representable log range.
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
        return X[:, :, None], x0[0] / X, None, dB, 0

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
    return np.exp(logX, out=logX), np.exp(logZ, out=logZ), dW, dB, n_clamped


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


def simulate(model: MarketModel, x0, q0: float, cfg: SimConfig) -> PathBundle:
    """Joint paths of (X, Z, Q, Q_eps) on n_steps+1 nodes.

    dW is None for the exact-bessel3 scheme: the radial embedding draws a
    3-dimensional Brownian motion, and no 1-dimensional driving increments
    exist for it.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.shape != (model.dim,):
        raise ValueError(f"x0 must have shape ({model.dim},)")
    if not np.all(x0 > 0):
        raise ValueError("x0 must be strictly positive")
    if not q0 > 0:
        raise ValueError("q0 must be > 0")
    _check_scheme(model, cfg.scheme)

    n, K, d = cfg.n_paths, cfg.n_steps, model.dim
    t = cfg.t0 + (cfg.horizon / K) * np.arange(K + 1)
    t[-1] = cfg.T

    X = np.empty((n, K + 1, d))
    Z = np.empty((n, K + 1))
    dW_out = None if cfg.scheme == "exact-bessel3" else np.empty((n, K, d))
    dB_out = np.empty((n, K))
    floor_hits = 0
    for blk, start, bn in _blocks(n):
        sl = slice(start, start + bn)
        X[sl], Z[sl], dW, dB_out[sl], clamped = _step_block(model, x0, cfg, blk, bn, K)
        if dW_out is not None:
            dW_out[sl] = dW
        floor_hits += clamped

    Q = q0 / Z
    Bcum = np.zeros((n, K + 1))
    np.cumsum(dB_out, axis=1, out=Bcum[:, 1:])
    eps = cfg.epsilon
    Q_eps = Q * np.exp(-0.5 * eps * eps * (t - cfg.t0)[None, :] + eps * Bcum)

    _freeze(t, X, Z, Q, Q_eps, dW_out, dB_out)
    return PathBundle(
        t=t,
        X=X,
        Z=Z,
        Q=Q,
        Q_eps=Q_eps,
        dW=dW_out,
        dB=dB_out,
        model_name=model.name,
        x0=x0.copy(),
        q0=float(q0),
        config=cfg,
        n_floor_hits=floor_hits,
    )


def terminal_block(model: MarketModel, x0: np.ndarray, cfg: SimConfig, block_index: int, bn: int):
    """Terminal state for one path block: (X_T (bn,d), Z_T (bn,), B_T (bn,)).

    Exact schemes make one draw over the whole horizon; log-Euler steps
    through the same streams as simulate().  Used by the streaming sampler.
    """
    _check_scheme(model, cfg.scheme)
    n_steps = cfg.n_steps if cfg.scheme == "log-euler" else 1
    X, Z, _, dB, _ = _step_block(model, x0, cfg, block_index, bn, n_steps)
    return X[:, -1, :], Z[:, -1], dB.sum(axis=1)


def _terminal_draws(model: MarketModel, x0: float, cfg: SimConfig):
    """(X_T, Z_T) of every path of a d=1 model, block by block."""
    X = np.empty(cfg.n_paths)
    Z = np.empty(cfg.n_paths)
    for blk, start, bn in _blocks(cfg.n_paths):
        X_T, Z[start : start + bn], _ = terminal_block(model, np.array([x0]), cfg, blk, bn)
        X[start : start + bn] = X_T[:, 0]
    _freeze(X, Z)
    return X, Z


def exact_bessel3_terminal(x0: float, T: float, n_paths: int, seed: int):
    """Exact terminal draws for the radial model: X(T) = |x0 e1 + G| with G
    3-dimensional N(0, T I); Z(T) = x0 / X(T).  Returns (X, Z)."""
    if not x0 > 0:
        raise ValueError("x0 must be > 0")
    if not T > 0:
        raise ValueError("T must be > 0")
    cfg = SimConfig(T=T, n_steps=1, n_paths=n_paths, seed=seed, scheme="exact-bessel3")
    return _terminal_draws(builtin_model("bessel3"), x0, cfg)


def exact_gbm_terminal(b: float, s: float, x0: float, T: float, n_paths: int, seed: int):
    """Exact lognormal terminal draws, d=1 constant coefficients: same normal
    N drives X(T) = x0 exp((b - s^2/2)T + s sqrt(T) N) and
    Z(T) = exp(-theta sqrt(T) N - theta^2 T / 2), theta = b/s.  Returns (X, Z)."""
    if s == 0.0:
        raise ValueError("s must be nonzero")
    if not x0 > 0:
        raise ValueError("x0 must be > 0")
    if not T > 0:
        raise ValueError("T must be > 0")
    cfg = SimConfig(T=T, n_steps=1, n_paths=n_paths, seed=seed, scheme="exact-gbm")
    return _terminal_draws(builtin_model("gbm", b=b, s=s), x0, cfg)


@dataclass(frozen=True)
class IntegrabilityReport:
    """Discrete-path check of the coefficient integrability sum
    sum_i int (|b_i| + a_ii + theta_i^2) dt against a cap."""

    sums: np.ndarray
    flagged_paths: np.ndarray
    cap: float

    @property
    def passed(self) -> bool:
        return self.flagged_paths.size == 0


def integrability_diagnostic(model: MarketModel, bundle: PathBundle, cap: float = 1e6) -> IntegrabilityReport:
    n, k1, d = bundle.X.shape
    dt = bundle.t[1] - bundle.t[0]
    sums = np.zeros(n)
    for k in range(k1 - 1):
        xk = bundle.X[:, k, :]
        bv = np.abs(np.asarray(model.b(xk), dtype=float)).sum(axis=1)
        sv = np.asarray(model.s(xk), dtype=float)
        a_diag = np.einsum("nij,nij->ni", sv, sv).sum(axis=1)
        th = model.theta(xk)
        sums += (bv + a_diag + (th * th).sum(axis=1)) * dt
    flagged = np.nonzero(sums > cap)[0]
    sums.flags.writeable = False
    return IntegrabilityReport(sums=sums, flagged_paths=flagged, cap=float(cap))
