"""Quantile-hedging values in deflator-only diffusion markets.

Monte Carlo estimators and a regularized dual PDE solver for the minimal
capital that superreplicates a terminal claim with prescribed probability,
plus the Legendre transform of the dual surface back to the primal value
and a supersolution verifier for candidate value surfaces.
"""
from . import oracles
from .duality import convex_envelope
from .engine import SimConfig, default_scheme
from .errors import (
    ArgmaxAtBoundary,
    ConfigError,
    DimensionUnsupported,
    DomainMismatch,
    EmptySamples,
    InvalidCoefficients,
    MissingAux,
    Nonfinite,
    POutOfRange,
    QhedgeError,
    SchemeMismatch,
    SingularDiffusion,
    UnknownModel,
)
from .market import (
    MarketModel,
    Payoff,
    builtin_model,
    linear_payoff,
    payoff_from_expression,
)
from .mc import (
    Estimate,
    SampleSet,
    default_p_grid,
    dual_curve,
    dual_value,
    dual_value_regularized,
    quantile_curve,
    quantile_value,
    sample_set,
    sample_terminal,
)
from .pde import (
    HJBResult,
    SupersolutionReport,
    default_residual_tol,
    dual_to_primal,
    hjb_residual,
    solve_dual_pde,
    verify_supersolution,
)
from .surfaces import (
    GridSpec,
    Surface,
    read_surface_bin,
    write_surface_bin,
    write_surface_csv,
)

__version__ = "0.1.0"
