"""Closed-form reference values and bounds used by tests and the CLI.

Conventions: Phi is the standard normal CDF; a "lognormal with mean x and
log-variance v^2" is x*exp(v*N - v^2/2) for standard normal N.  Derived
constants are pinned by the quadrature/Monte-Carlo script
tests/oracle_derivations.py, which must be run standalone to regenerate
them.

Phi and its inverse come from the standard library: Phi from math.erfc,
Phi^{-1} from statistics.NormalDist.inv_cdf (Wichura's AS241), so the
package runs on numpy alone.  Measured against scipy.special.ndtr and
ndtri: Phi agrees to a relative 1.3e-14 for z in [-8, 8] and 4.1e-13 for
z in [-37, -8]; Phi^{-1} agrees to 2.9e-14 absolute (1.1e-15 relative)
for p in [1e-300, 1 - 1e-15].
"""
from __future__ import annotations

import math
from statistics import NormalDist

_inv_cdf = NormalDist().inv_cdf


def std_normal_cdf(z: float) -> float:
    """Standard normal CDF as 0.5*erfc(-z/sqrt(2)): relative error below
    1.3e-14 for z in [-8, 8] and 4.1e-13 in the left tail [-37, -8]."""
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def lognormal_put(x: float, q: float, v: float) -> float:
    """E[(q - L)^+] for lognormal L with mean x and log-variance v^2.

    Equals q*Phi(h + v/2) - x*Phi(h - v/2) with h = log(q/x)/v; (q - x)^+
    in the degenerate limit v = 0.
    """
    if x <= 0:
        raise ValueError("x must be > 0")
    if q < 0:
        raise ValueError("q must be >= 0")
    if v < 0:
        raise ValueError("v must be >= 0")
    if q == 0.0:
        return 0.0
    if v == 0.0:
        return max(q - x, 0.0)
    h = math.log(q / x) / v
    return q * std_normal_cdf(h + 0.5 * v) - x * std_normal_cdf(h - 0.5 * v)


def lognormal_lower_partial(x: float, p: float, v: float) -> float:
    """E[L; L <= a] at the p-quantile a of the same lognormal: x*Phi(Phi^{-1}(p) - v)."""
    if x <= 0:
        raise ValueError("x must be > 0")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    if v < 0:
        raise ValueError("v must be >= 0")
    if p == 0.0:
        return 0.0
    if p == 1.0:
        return x
    return x * std_normal_cdf(_inv_cdf(p) - v)


def bessel_quantile_value(x: float, p: float) -> float:
    """Quantile-hedging value for the radial model with g(x) = x: p*x, any horizon."""
    if x <= 0:
        raise ValueError("x must be > 0")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    return p * x


def bessel_dual(x: float, q: float) -> float:
    """Dual value for the radial model with g(x) = x: (q - x)^+, any horizon."""
    if x <= 0:
        raise ValueError("x must be > 0")
    if q < 0:
        raise ValueError("q must be >= 0")
    return max(q - x, 0.0)


def _bessel_survival(x: float, a: float, tau: float) -> float:
    """P(X_tau >= a) for the radial model (BES(3)) started at x:
    Phi((x - a)/r) + Phi(-(x + a)/r) + (r/x) (phi((a - x)/r) - phi((a +
    x)/r)), r = sqrt(tau), from the density (y/x) (phi_tau(y - x) -
    phi_tau(y + x)) on y > 0."""
    r = math.sqrt(tau)
    lo, hi = (a - x) / r, (a + x) / r
    density_gap = (math.exp(-0.5 * lo * lo) - math.exp(-0.5 * hi * hi)) / math.sqrt(2.0 * math.pi)
    return std_normal_cdf(-lo) + std_normal_cdf(-hi) + r / x * density_gap


def bessel_unit_quantile_value(x: float, p: float, tau: float) -> float:
    """Quantile-hedging value for the radial model with g = 1 (a claim of
    one), at eps = 0: Phi((x - a)/sqrt(tau)) + Phi((x + a)/sqrt(tau)) - 1,
    where P(X_tau >= a) = p.  The cheapest set of probability p is {X_tau
    >= a}, where the deflator x/X_tau is smallest, and E[x/X_tau; X_tau >=
    a] is the probability that a Brownian motion from x ends above a
    without hitting 0.  Z is a strict local martingale, so at p = 1 (a =
    0) the value is 2 Phi(x/sqrt(tau)) - 1 < 1.  a is found by bisection
    on the survival function, which falls from 1 at a = 0."""
    if x <= 0:
        raise ValueError("x must be > 0")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    if tau <= 0:
        raise ValueError("tau must be > 0")
    if p == 0.0:
        return 0.0
    r = math.sqrt(tau)
    a = 0.0
    if p < 1.0:
        # the survival at x + 40 r is below 1e-300
        lo, hi = 0.0, x + 40.0 * r
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if _bessel_survival(x, mid, tau) >= p:
                lo = mid
            else:
                hi = mid
        a = 0.5 * (lo + hi)
    return std_normal_cdf((x - a) / r) + std_normal_cdf((x + a) / r) - 1.0


def _gbm_vol(b: float, s: float, tau: float) -> float:
    if s == 0.0:
        raise ValueError("s must be nonzero")
    if tau <= 0:
        raise ValueError("tau must be > 0")
    theta = b / s
    return abs(s - theta) * math.sqrt(tau)


def _gbm_smeared_vol(b: float, s: float, tau: float, eps: float) -> float:
    """Combined log-volatility sqrt(((s - theta)^2 + eps^2) tau) of the
    eps-smeared Z(T)X(T), theta = b/s."""
    if s == 0.0:
        raise ValueError("s must be nonzero")
    if tau < 0:
        raise ValueError("tau must be >= 0")
    theta = b / s
    return math.sqrt(((s - theta) ** 2 + eps * eps) * tau)


def gbm_dual(x: float, q: float, b: float, s: float, tau: float) -> float:
    """Dual value E[(q - Z(T)X(T))^+] for constant coefficients, g(x) = x.

    Z(T)X(T) is lognormal with mean x and log-variance (s - theta)^2 tau,
    theta = b/s; the s = theta case degenerates to (q - x)^+.
    """
    return lognormal_put(x, q, _gbm_vol(b, s, tau))


def gbm_quantile_value(x: float, p: float, b: float, s: float, tau: float) -> float:
    """Quantile-hedging value for constant coefficients, g(x) = x.

    Lower partial expectation of the lognormal law of Z(T)X(T) at its
    p-quantile: x*Phi(Phi^{-1}(p) - v), v = |s - theta|*sqrt(tau).
    """
    return lognormal_lower_partial(x, p, _gbm_vol(b, s, tau))


def regularization_bound(q: float, eps: float, horizon: float) -> float:
    """Uniform bound on the regularization gap at level eps over the horizon.

    q * ((1 + Phi(r) - Phi(-r)) * exp(eps^2 T) - 1) with r = eps*sqrt(T).
    Dominates sup over the window [0, q] of the smearing error; value at
    (1, 0.5, 1) is 0.7757107499225921 (pinned by quadrature).
    """
    if q < 0:
        raise ValueError("q must be >= 0")
    if eps < 0:
        raise ValueError("eps must be >= 0")
    if horizon <= 0:
        raise ValueError("horizon must be > 0")
    if q == 0.0 or eps == 0.0:
        return 0.0
    r = eps * math.sqrt(horizon)
    return q * ((1.0 + std_normal_cdf(r) - std_normal_cdf(-r)) * math.exp(eps * eps * horizon) - 1.0)


# Regularized (smeared) closed forms.  Multiplying the threshold q by an
# independent lognormal factor L_eps with log-variance eps^2 tau turns the
# ramp (q - x)^+ into an exchange value between two lognormals, which
# reduces to lognormal_put with the combined log-volatility.

def bessel_dual_smeared(x: float, q: float, eps: float, tau: float) -> float:
    """Regularized dual value for the radial model, g(x) = x: Z(T)X(T) is
    pathwise constant so only the eps-smearing contributes."""
    if tau < 0:
        raise ValueError("tau must be >= 0")
    return lognormal_put(x, q, eps * math.sqrt(tau))


def bessel_primal_smeared(x: float, p: float, eps: float, tau: float) -> float:
    """Regularized value surface for the radial model: x*Phi(Phi^{-1}(p) - eps*sqrt(tau))."""
    if tau < 0:
        raise ValueError("tau must be >= 0")
    return lognormal_lower_partial(x, p, eps * math.sqrt(tau))


def gbm_dual_smeared(x: float, q: float, b: float, s: float, tau: float, eps: float) -> float:
    """Regularized dual value for constant coefficients, g(x) = x: combined
    log-variance ((s - theta)^2 + eps^2) tau."""
    return lognormal_put(x, q, _gbm_smeared_vol(b, s, tau, eps))


def gbm_primal_smeared(x: float, p: float, b: float, s: float, tau: float, eps: float) -> float:
    """Regularized value surface for constant coefficients, g(x) = x."""
    return lognormal_lower_partial(x, p, _gbm_smeared_vol(b, s, tau, eps))
