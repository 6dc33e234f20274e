"""Closed forms against independent quadrature and sampling references."""
import math
import statistics

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import ndtr, ndtri
from scipy.stats import norm

from qhedge import oracles


def lognormal_put_quad(x, q, v):
    # integral of (q - x e^{v z - v^2/2}) phi(z) up to the kink, where the
    # positive part switches off
    zstar = math.log(q / x) / v + 0.5 * v

    def f(z):
        return (q - x * math.exp(v * z - 0.5 * v * v)) * norm.pdf(z)

    val, err = quad(f, -12, zstar, limit=200)
    assert err < 1e-8
    return val


def test_std_normal_cdf_matches_scipy():
    # erfc agrees to a relative 1.3e-14 on [-8, 8] and 4.1e-13 in the left
    # tail; past 8.3 both round to 1, and below -37.5 Phi is subnormal
    for lo, hi, rtol in ((-8.0, 8.5, 5e-14), (-37.0, -8.0, 2e-12)):
        z = np.linspace(lo, hi, 20001)
        ours = np.array([oracles.std_normal_cdf(float(t)) for t in z])
        np.testing.assert_allclose(ours, ndtr(z), rtol=rtol, atol=0.0)


def test_lower_partial_inverse_matches_scipy_special():
    # Phi^{-1} agrees to 2.9e-14 absolute down to p = 1e-300, where the
    # quantile is -37 and Phi's slope turns it into a 1.1e-12 relative
    # error of Phi(Phi^{-1}(p) - v)
    p = np.concatenate([10.0 ** np.linspace(-300, -1, 3001), np.linspace(0.1, 0.9, 801),
                        1.0 - 10.0 ** np.linspace(-1, -15, 1401)])
    for v in (0.0, 0.3, 1.0):
        ours = np.array([oracles.lognormal_lower_partial(1.0, float(t), v) for t in p])
        np.testing.assert_allclose(ours, ndtr(ndtri(p) - v), rtol=1e-11, atol=1e-300)


def test_lower_partial_at_extreme_p_is_finite_and_monotone():
    # inv_cdf raises at p = 0 and p = 1, so the oracle must answer those first
    with pytest.raises(statistics.StatisticsError):
        statistics.NormalDist().inv_cdf(0.0)
    with pytest.raises(statistics.StatisticsError):
        statistics.NormalDist().inv_cdf(1.0)
    x = 1.3
    for v in (0.0, 0.6, 5.0):
        ps = (0.0, 1e-300, 1e-200, 1e-16, 0.5, 1.0 - 1e-15, 1.0 - 1e-16, 1.0)
        values = [oracles.lognormal_lower_partial(x, p, v) for p in ps]
        assert all(math.isfinite(val) for val in values)
        assert values[0] == 0.0 and values[-1] == x
        assert all(a <= b for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("x,q,v", [(1.0, 1.0, 0.3), (2.0, 1.5, 0.7), (0.5, 1.1, 0.05)])
def test_lognormal_put_against_quadrature(x, q, v):
    assert oracles.lognormal_put(x, q, v) == pytest.approx(
        lognormal_put_quad(x, q, v), abs=1e-9)


def test_lognormal_put_limits():
    assert oracles.lognormal_put(1.0, 0.0, 0.3) == 0.0
    assert oracles.lognormal_put(1.0, 1.4, 0.0) == pytest.approx(0.4)
    assert oracles.lognormal_put(2.0, 1.0, 0.0) == 0.0
    # monotone in q, monotone in v
    vals_q = [oracles.lognormal_put(1.0, q, 0.3) for q in np.linspace(0, 3, 15)]
    assert all(b >= a for a, b in zip(vals_q, vals_q[1:]))
    vals_v = [oracles.lognormal_put(1.0, 1.0, v) for v in np.linspace(0, 2, 15)]
    assert all(b >= a for a, b in zip(vals_v, vals_v[1:]))


def test_lognormal_put_rejects_bad_inputs():
    with pytest.raises(ValueError):
        oracles.lognormal_put(0.0, 1.0, 0.3)
    with pytest.raises(ValueError):
        oracles.lognormal_put(1.0, -0.1, 0.3)
    with pytest.raises(ValueError):
        oracles.lognormal_put(1.0, 1.0, -0.1)


def test_lower_partial_against_quadrature():
    x, p, v = 1.3, 0.35, 0.6

    def f(z):
        return x * math.exp(v * z - 0.5 * v * v) * norm.pdf(z)

    a = norm.ppf(p)  # the p-quantile of L in z coordinates
    val, err = quad(f, -12, a, limit=200)
    assert err < 1e-8
    assert oracles.lognormal_lower_partial(x, p, v) == pytest.approx(val, abs=1e-9)
    assert oracles.lognormal_lower_partial(x, 0.0, v) == 0.0
    assert oracles.lognormal_lower_partial(x, 1.0, v) == x


def test_radial_model_values_are_degenerate():
    assert oracles.bessel_quantile_value(2.0, 0.3) == pytest.approx(0.6)
    assert oracles.bessel_dual(1.0, 2.5) == 1.5
    assert oracles.bessel_dual(1.0, 0.5) == 0.0
    with pytest.raises(ValueError):
        oracles.bessel_quantile_value(-1.0, 0.5)
    with pytest.raises(ValueError):
        oracles.bessel_dual(1.0, -0.5)


def test_gbm_dual_against_quadrature():
    b, s, tau = 0.1, 0.2, 1.0
    v = abs(s - b / s) * math.sqrt(tau)
    for q in (0.5, 1.0, 1.7):
        assert oracles.gbm_dual(1.0, q, b, s, tau) == pytest.approx(
            lognormal_put_quad(1.0, q, v), abs=1e-9)


def test_gbm_primal_dual_conjugacy_numerical():
    # U(p) = sup_q (p q - w(q)) on fine grids, p in the interior
    b, s, tau, x = 0.1, 0.2, 1.0, 1.0
    q_grid = np.linspace(0.0, 12.0, 6001)
    w = np.array([oracles.gbm_dual(x, q, b, s, tau) for q in q_grid])
    for p in (0.2, 0.5, 0.8):
        u_grid = np.max(p * q_grid - w)
        assert u_grid == pytest.approx(
            oracles.gbm_quantile_value(x, p, b, s, tau), abs=2e-5)


def test_regularization_bound_formula_and_pin():
    # pinned spot value and the defining expression, independently recomputed
    assert oracles.regularization_bound(1.0, 0.5, 1.0) == pytest.approx(
        0.7757107499225921, abs=1e-15)
    q, eps, T = 2.0, 0.2, 1.0
    r = eps * math.sqrt(T)
    expected = q * ((1 + norm.cdf(r) - norm.cdf(-r)) * math.exp(eps * eps * T) - 1)
    assert oracles.regularization_bound(q, eps, T) == pytest.approx(expected, abs=1e-14)
    assert oracles.regularization_bound(0.0, 0.5, 1.0) == 0.0
    assert oracles.regularization_bound(2.0, 0.0, 1.0) == 0.0
    # linear in q, increasing in eps
    assert oracles.regularization_bound(4.0, 0.3, 1.0) == pytest.approx(
        2 * oracles.regularization_bound(2.0, 0.3, 1.0), rel=1e-14)
    vals = [oracles.regularization_bound(2.0, e, 1.0) for e in (0.1, 0.2, 0.5)]
    assert vals[0] < vals[1] < vals[2]


def test_regularization_bound_dominates_actual_gap():
    # the actual sup-gap for the radial model is computable in closed form:
    # sup_q |lognormal_put(x, q, eps sqrt(T)) - (q - x)^+| over the window
    x, eps, T = 1.0, 0.5, 1.0
    qs = np.linspace(0.2, 2.0, 400)
    gap = max(abs(oracles.bessel_dual_smeared(x, q, eps, T) - max(q - x, 0.0))
              for q in qs)
    assert gap <= oracles.regularization_bound(2.0, eps, T)


def test_smeared_forms_reduce_and_match_quadrature():
    # eps = 0 collapses to the unsmeared values
    assert oracles.bessel_dual_smeared(1.0, 1.5, 0.0, 1.0) == 0.5
    assert oracles.gbm_dual_smeared(1.0, 1.5, 0.1, 0.2, 1.0, 0.0) == pytest.approx(
        oracles.gbm_dual(1.0, 1.5, 0.1, 0.2, 1.0), rel=1e-15)
    # eps > 0: combined variance checked by quadrature
    b, s, tau, eps = 0.1, 0.2, 0.8, 0.3
    v = math.sqrt(((s - b / s) ** 2 + eps * eps) * tau)
    assert oracles.gbm_dual_smeared(1.2, 0.9, b, s, tau, eps) == pytest.approx(
        lognormal_put_quad(1.2, 0.9, v), abs=1e-9)
    assert oracles.bessel_dual_smeared(1.0, 1.0, 0.4, 1.0) == pytest.approx(
        lognormal_put_quad(1.0, 1.0, 0.4), abs=1e-9)


def test_smeared_primal_dual_consistency():
    # p -> q -> p roundtrip through the closed forms
    x, eps, tau = 1.0, 0.2, 1.0
    q_grid = np.linspace(0.0, 10.0, 4001)
    w = np.array([oracles.bessel_dual_smeared(x, q, eps, tau) for q in q_grid])
    for p in (0.3, 0.5, 0.7):
        u = np.max(p * q_grid - w)
        assert u == pytest.approx(oracles.bessel_primal_smeared(x, p, eps, tau), abs=5e-5)


def test_bessel_claim_of_one_matches_quadrature():
    # U(p) = E[x/X; X >= a] with P(X >= a) = p, both by quadrature of the
    # BES(3) density (y/x) (phi_tau(y - x) - phi_tau(y + x)) and a root
    # finder; at p = 1 the strict local martingale's E[Z_T] = 2 Phi(x /
    # sqrt(tau)) - 1
    for x, tau in ((1.0, 1.0), (0.6, 0.5), (2.0, 1.7)):
        r = math.sqrt(tau)

        def density(y):
            return y / x * (norm.pdf(y, x, r) - norm.pdf(y, -x, r))

        def survival(a):
            return quad(density, a, x + 40.0 * r, epsabs=0.0, epsrel=1e-13, limit=200)[0]

        for p in (0.05, 0.5, 0.9, 0.999):
            a = brentq(lambda t: survival(t) - p, 0.0, x + 40.0 * r, xtol=1e-14)
            want = quad(lambda y: x / y * density(y), a, x + 40.0 * r, epsabs=0.0,
                        epsrel=1e-13, limit=200)[0]
            assert oracles.bessel_unit_quantile_value(x, p, tau) == pytest.approx(want, abs=1e-10)
        assert oracles.bessel_unit_quantile_value(x, 1.0, tau) == pytest.approx(
            2.0 * norm.cdf(x / r) - 1.0, abs=1e-15)
        assert oracles.bessel_unit_quantile_value(x, 0.0, tau) == 0.0
