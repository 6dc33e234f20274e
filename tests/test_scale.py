"""Checks at the scale the project targets: 10^6 Monte Carlo paths.

The exact-gbm sampler at 10^6 paths, with the aux draws, is checked for
thread independence and against the closed forms of qhedge.oracles: the
quantile-hedging curve at 21 p and the eps = 0.2 regularized dual curve at
41 q, each point within 3 of its own standard errors.  As in the
compare-oracle command, each SE is floored at one sample's contribution,
coordinate / n (x0 / n for a quantile point): in the far tail, where q is
below nearly every sample's threshold, no sample or only a few pay, and
their SE is 0 or far below the true spread.  With seed 0 the points at
q <= 0.35 are such points: at q = 0.35 the curve is 3.8e-8 with SE 2.7e-8
against 1.9e-7, and below it 0 with SE 0 against up to 6.7e-9.
"""
import numpy as np
import pytest

from qhedge import mc, oracles
from qhedge.engine import SimConfig
from qhedge.market import builtin_model, linear_payoff

B, S, X0, TAU, EPS = 0.05, 0.3, 1.0, 1.0, 0.2
N_PATHS = 10 ** 6


def within_3se(value, ref, se, floor):
    return np.all(np.abs(value - ref) <= 3.0 * np.maximum(se, floor))


@pytest.fixture(scope="module")
def million_paths():
    model = builtin_model("gbm", b=B, s=S)
    cfg = SimConfig(0.0, TAU, 1, N_PATHS, 0, "exact-gbm")
    one = mc.sample_terminal(model, linear_payoff(), [X0], cfg, threads=1)
    two = mc.sample_terminal(model, linear_payoff(), [X0], cfg, threads=2)
    return one, two


def test_million_paths_do_not_depend_on_the_thread_count(million_paths):
    one, two = million_paths
    assert one.n == N_PATHS
    assert np.array_equal(one.values, two.values)
    assert np.array_equal(one.aux, two.aux)


def test_million_path_quantile_curve_matches_the_closed_form(million_paths):
    samples, _ = million_paths
    p, value, se = mc.quantile_curve(samples, np.linspace(0.0, 1.0, 21))
    ref = np.array([oracles.gbm_quantile_value(X0, float(pp), B, S, TAU) for pp in p])
    assert within_3se(value, ref, se, X0 / N_PATHS)


def test_million_path_regularized_dual_curve_matches_the_smeared_closed_form(million_paths):
    samples, _ = million_paths
    q, value, se = mc.dual_curve(samples, np.linspace(0.0, 2.0, 41), EPS)
    ref = np.array([oracles.gbm_dual_smeared(X0, float(qq), B, S, TAU, EPS) for qq in q])
    assert within_3se(value, ref, se, q / N_PATHS)
