"""Market models: diffusion coefficients, payoffs, and derived quantities.

A model is a coefficient bundle (b, s) for d stocks with relative drift
b(x) and relative volatility matrix s(x), evaluated batchwise: coefficient
callables map an (n, d) array of states to (n, d) for b and (n, d, d) for
s.  Derived from them are the market price of risk theta = s^{-1} b and
the absolute volatility sigma_ik = s_ik x_i; pde._coefficients forms
alpha = sigma sigma' from sigma.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InvalidCoefficients, SingularDiffusion, UnknownModel

COND_LIMIT = 1e12

# Expression vocabulary for custom coefficient strings; x1..xd added per call.
_EXPR_NAMES = {
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "sin": np.sin,
    "cos": np.cos,
    "tanh": np.tanh,
    "minimum": np.minimum,
    "maximum": np.maximum,
    "pi": np.pi,
}


@dataclass(frozen=True)
class MarketModel:
    """Immutable coefficient bundle; coefficient callables must be pure."""

    dim: int
    b: Callable[[np.ndarray], np.ndarray]
    s: Callable[[np.ndarray], np.ndarray]
    name: str
    kind: str = "custom"
    params: dict = field(default_factory=dict)

    def _points(self, x) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != self.dim:
            raise ValueError(f"expected points of dimension {self.dim}, got shape {x.shape}")
        return x

    def drift(self, x) -> np.ndarray:
        return np.asarray(self.b(self._points(x)), dtype=float)

    def vol(self, x) -> np.ndarray:
        return np.asarray(self.s(self._points(x)), dtype=float)

    def theta(self, x) -> np.ndarray:
        """Market price of risk s(x)^{-1} b(x), batched; no conditioning check."""
        pts = self._points(x)
        return theta_from(self.vol(pts), self.drift(pts), self.name)

    def sigma(self, x) -> np.ndarray:
        pts = self._points(x)
        return self.vol(pts) * pts[:, :, None]


def theta_from(sv: np.ndarray, bv: np.ndarray, name: str) -> np.ndarray:
    """theta = s^-1 b at every state, for s (n, d, d) and b (n, d) of the
    model called `name`.  Where s is diagonal at every state (its nonzero
    entries are all on the diagonal, as always in d = 1) this is b /
    diag(s), which is what LAPACK's solve returns on a diagonal matrix, bit
    for bit, in a tenth of its time (0.3 against 3.0 ms on 8192 d = 2
    states); otherwise one batched solve.  A singular s raises
    SingularDiffusion."""
    diag = np.diagonal(sv, axis1=1, axis2=2)
    if np.count_nonzero(sv) == np.count_nonzero(diag):
        if not diag.all():
            raise SingularDiffusion(f"volatility matrix singular for model {name}")
        return bv / diag
    try:
        return np.linalg.solve(sv, bv[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise SingularDiffusion(f"volatility matrix singular for model {name}: {exc}") from None


@dataclass(frozen=True)
class Payoff:
    """Terminal claim g(X(T)) > 0, evaluated batchwise (n, d) -> (n,)."""

    g: Callable[[np.ndarray], np.ndarray]
    name: str = "payoff"

    def __call__(self, x) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return np.asarray(self.g(x), dtype=float)


def linear_payoff(weights=None) -> Payoff:
    """g(x) = w . x ; default takes the first coordinate."""
    if weights is None:
        return Payoff(lambda x: x[:, 0], "first-coordinate")
    w = np.asarray(weights, dtype=float)
    return Payoff(lambda x: x @ w, "weighted-sum")


def payoff_from_expression(expr: str, dim: int) -> Payoff:
    return Payoff(_expression_array(expr, dim), f"expr:{expr}")


def _compile_expression(expr: str):
    """Compile one expression in x1..xd and the _EXPR_NAMES vocabulary,
    rejecting any other name."""
    code = compile(expr, f"<expr {expr!r}>", "eval")
    for name in code.co_names:
        if name not in _EXPR_NAMES and not (name.startswith("x") and name[1:].isdigit()):
            raise InvalidCoefficients(f"unknown name {name!r} in expression {expr!r}")
    return code


def _expression_array(exprs, dim: int) -> Callable[[np.ndarray], np.ndarray]:
    """Evaluator of an array of expressions: exprs is one string, a list or
    a nested list of them, each compiled once.  fn(x) maps (n, dim) states
    to a float array of shape (n,) + the shape of exprs, each expression's
    result assigned straight into its entry (broadcast over the n rows)."""
    table = np.array(exprs, dtype=object)
    codes = [(idx, _compile_expression(e)) for idx, e in np.ndenumerate(table)]

    def fn(x: np.ndarray) -> np.ndarray:
        names = dict(_EXPR_NAMES)
        for i in range(dim):
            names[f"x{i + 1}"] = x[:, i]
        out = np.empty((x.shape[0],) + table.shape)
        for idx, code in codes:
            # a fresh scope per expression: an assignment expression in one
            # must not rebind a name the next one reads
            out[(slice(None),) + idx] = eval(code, {"__builtins__": {}}, dict(names))
        return out

    return fn


def _constant_model(name: str, kind: str, b_vec: np.ndarray, s_mat: np.ndarray) -> MarketModel:
    d = b_vec.shape[0]

    def b_fn(x: np.ndarray) -> np.ndarray:
        return np.broadcast_to(b_vec, (x.shape[0], d)).copy()

    def s_fn(x: np.ndarray) -> np.ndarray:
        return np.broadcast_to(s_mat, (x.shape[0], d, d)).copy()

    return MarketModel(d, b_fn, s_fn, name, kind, {"b": b_vec.copy(), "s": s_mat.copy()})


def builtin_model(kind: str, **params) -> MarketModel:
    """Construct a validated model.

    kind "gbm": constant coefficients; params b (scalar or length-d), s
    (scalar, length-d diagonal, or full d x d matrix).
    kind "bessel3": d=1, b(x) = 1/x^2, s(x) = 1/x.
    kind "custom": params dim, b_exprs (list of d strings), s_exprs (d x d
    nested list of strings) in variables x1..xd.
    """
    if kind == "bessel3":
        if params:
            raise InvalidCoefficients(f"bessel3 takes no parameters, got {sorted(params)}")

        def b_fn(x: np.ndarray) -> np.ndarray:
            return 1.0 / (x * x)

        def s_fn(x: np.ndarray) -> np.ndarray:
            return (1.0 / x)[:, :, None]

        return MarketModel(1, b_fn, s_fn, "bessel3", "bessel3", {})

    if kind == "gbm":
        try:
            b_in = params.pop("b")
            s_in = params.pop("s")
        except KeyError as exc:
            raise InvalidCoefficients(f"gbm requires parameter {exc}") from None
        if params:
            raise InvalidCoefficients(f"unknown gbm parameters {sorted(params)}")
        b_vec = np.atleast_1d(np.asarray(b_in, dtype=float))
        s_arr = np.asarray(s_in, dtype=float)
        if s_arr.ndim == 0:
            s_mat = s_arr.reshape(1, 1) if b_vec.shape[0] == 1 else np.eye(b_vec.shape[0]) * s_arr
        elif s_arr.ndim == 1:
            s_mat = np.diag(s_arr)
        else:
            s_mat = s_arr
        d = b_vec.shape[0]
        if s_mat.shape != (d, d):
            raise InvalidCoefficients(f"s shape {s_mat.shape} incompatible with b length {d}")
        model = _constant_model(f"gbm(b={b_vec.tolist()},s={s_mat.tolist()})", "gbm", b_vec, s_mat)
        _validation_sample(model)
        return model

    if kind == "custom":
        try:
            dim = int(params["dim"])
            b_exprs = list(params["b_exprs"])
            s_exprs = [list(row) for row in params["s_exprs"]]
        except KeyError as exc:
            raise InvalidCoefficients(f"custom model requires parameter {exc}") from None
        if len(b_exprs) != dim or len(s_exprs) != dim or any(len(r) != dim for r in s_exprs):
            raise InvalidCoefficients("custom model needs d drift and d*d volatility expressions")
        b_fn = _expression_array(b_exprs, dim)
        s_fn = _expression_array(s_exprs, dim)

        name = params.get("name", "custom")
        model = MarketModel(dim, b_fn, s_fn, str(name), "custom", {"b_exprs": b_exprs, "s_exprs": s_exprs})
        _validation_sample(model)
        return model

    raise UnknownModel(f"unknown model kind {kind!r}")


# Construction-time probes deliberately avoid round numbers so that models
# singular at a user-relevant point (for example s(x) = x - 1 at x = 1)
# still construct; a singular matrix met later raises SingularDiffusion
# where theta is solved for (theta_from, and the log-Euler stepper in d = 1).
_PROBE_SCALES = (0.6, 1.3, 2.9)


def _validation_sample(model: MarketModel) -> None:
    pts = np.array([[c] * model.dim for c in _PROBE_SCALES])
    svals = model.vol(pts)
    bvals = model.drift(pts)
    if not (np.all(np.isfinite(svals)) and np.all(np.isfinite(bvals))):
        raise InvalidCoefficients(f"coefficients not finite at validation probes for {model.name}")
    for k, c in enumerate(_PROBE_SCALES):
        cond = np.linalg.cond(svals[k])
        if not np.isfinite(cond) or cond > COND_LIMIT:
            raise InvalidCoefficients(
                f"volatility matrix singular at validation probe x={c} for {model.name}"
            )
