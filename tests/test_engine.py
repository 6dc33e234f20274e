"""Path simulation: determinism, exact samplers, failure contracts."""
import numpy as np
import pytest
from scipy.stats import norm

from qhedge.engine import (SCHEMES, SimConfig, default_scheme,
                           exact_bessel3_terminal, exact_gbm_terminal,
                           integrability_diagnostic, simulate, terminal_block)
from qhedge.errors import Nonfinite, SchemeMismatch
from qhedge.market import builtin_model, linear_payoff
from qhedge.mc import sample_terminal


def test_config_validation():
    cfg = SimConfig(0.0, 1.0, 8, 100, 0, "log-euler", 0.0)
    assert cfg.horizon == 1.0
    with pytest.raises(ValueError):
        SimConfig(1.0, 1.0, 8, 100, 0, "log-euler", 0.0)
    with pytest.raises(ValueError):
        SimConfig(0.0, 1.0, 0, 100, 0, "log-euler", 0.0)
    with pytest.raises(ValueError):
        SimConfig(0.0, 1.0, 8, 0, 0, "log-euler", 0.0)
    with pytest.raises(ValueError):
        SimConfig(0.0, 1.0, 8, 100, 0, "milstein", 0.0)
    with pytest.raises(ValueError):
        SimConfig(0.0, 1.0, 8, 100, 0, "log-euler", -0.1)


def test_default_scheme_prefers_exact_samplers():
    assert default_scheme(builtin_model("bessel3")) == "exact-bessel3"
    assert default_scheme(builtin_model("gbm", b=0.1, s=0.2)) == "exact-gbm"
    m = builtin_model("custom", dim=1, b_exprs=["0.1"], s_exprs=[["0.2"]])
    assert default_scheme(m) == "log-euler"
    assert set(("log-euler", "exact-gbm", "exact-bessel3")) <= set(SCHEMES)


def test_scheme_model_mismatch():
    cfg = SimConfig(0.0, 1.0, 8, 64, 0, "exact-gbm", 0.0)
    with pytest.raises(SchemeMismatch):
        simulate(builtin_model("bessel3"), [1.0], 0.5, cfg)
    cfg2 = SimConfig(0.0, 1.0, 8, 64, 0, "exact-bessel3", 0.0)
    with pytest.raises(SchemeMismatch):
        simulate(builtin_model("gbm", b=0.1, s=0.2), [1.0], 0.5, cfg2)


def test_radial_exact_sampler_is_pathwise_degenerate():
    X, Z = exact_bessel3_terminal(1.0, 1.0, 50_000, seed=11)
    assert np.all(X > 0) and np.all(Z > 0)
    # Z X = x0 along every path
    assert np.max(np.abs(Z * X - 1.0)) < 1e-12
    # strict local martingale: E[Z(T)] = 2 Phi(x0/sqrt(T)) - 1 < 1
    expect = 2 * norm.cdf(1.0) - 1
    se = Z.std(ddof=1) / np.sqrt(Z.size)
    assert abs(Z.mean() - expect) < 3 * se
    assert Z.mean() < 0.75


def test_radial_exact_sampler_distribution():
    # X(T) = |x0 e + G| with G ~ N(0, T I_3): squared norm is noncentral
    # chi-square with 3 dof, E[X^2] = x0^2 + 3T
    x0, T = 1.3, 0.7
    X, _ = exact_bessel3_terminal(x0, T, 200_000, seed=5)
    m2 = (X ** 2).mean()
    se = (X ** 2).std(ddof=1) / np.sqrt(X.size)
    assert abs(m2 - (x0 * x0 + 3 * T)) < 3 * se


def test_gbm_exact_sampler_moments():
    b, s, x0, T = 0.1, 0.2, 1.0, 1.0
    X, Z = exact_gbm_terminal(b, s, x0, T, 200_000, seed=3)
    seX = X.std(ddof=1) / np.sqrt(X.size)
    assert abs(X.mean() - x0 * np.exp(b * T)) < 3 * seX
    # deflated wealth is a true martingale here
    prod = Z * X
    seP = prod.std(ddof=1) / np.sqrt(prod.size)
    assert abs(prod.mean() - x0) < 3 * seP


def test_exact_samplers_are_deterministic():
    a = exact_bessel3_terminal(1.0, 1.0, 10_000, seed=7)
    b = exact_bessel3_terminal(1.0, 1.0, 10_000, seed=7)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    c = exact_bessel3_terminal(1.0, 1.0, 10_000, seed=8)
    assert not np.array_equal(a[0], c[0])
    # draws depend only on the absolute path index, not the batch size
    big = exact_bessel3_terminal(1.0, 1.0, 20_000, seed=7)
    assert np.array_equal(big[0][:10_000], a[0])


def test_simulate_shapes_and_determinism():
    model = builtin_model("gbm", b=0.1, s=0.2)
    cfg = SimConfig(0.0, 0.5, 16, 300, 9, "log-euler", 0.3)
    bundle = simulate(model, [1.0], 0.7, cfg)
    assert bundle.X.shape == (300, 17, 1)
    assert bundle.Z.shape == (300, 17)
    assert bundle.Q.shape == (300, 17)
    assert bundle.Q_eps.shape == (300, 17)
    assert bundle.t.shape == (17,)
    assert bundle.t[0] == 0.0 and bundle.t[-1] == 0.5
    assert bundle.n_paths == 300 and bundle.n_steps == 16 and bundle.dim == 1
    assert np.all(bundle.X[:, 0, 0] == 1.0)
    assert np.all(bundle.Z[:, 0] == 1.0)
    assert np.all(bundle.Q[:, 0] == 0.7)
    again = simulate(model, [1.0], 0.7, cfg)
    assert np.array_equal(bundle.X, again.X)
    assert np.array_equal(bundle.Q_eps, again.Q_eps)


def test_simulate_martingale_sanity():
    # Z X has constant expectation along a gbm path simulation
    model = builtin_model("gbm", b=0.1, s=0.2)
    cfg = SimConfig(0.0, 0.25, 32, 50_000, 2, "log-euler", 0.0)
    bundle = simulate(model, [2.0], 0.5, cfg)
    prod = bundle.Z[:, -1] * bundle.X[:, -1, 0]
    se = prod.std(ddof=1) / np.sqrt(prod.size)
    assert abs(prod.mean() - 2.0) < 3 * se
    # the dual process carries the theta^2 drift, so Q itself is a
    # submartingale with E[Q(T)] = q0 e^{theta^2 T} while Z Q is the martingale
    assert np.all(bundle.Q > 0)
    qT = bundle.Q[:, -1]
    seq = qT.std(ddof=1) / np.sqrt(qT.size)
    theta = 0.1 / 0.2
    assert abs(qT.mean() - 0.5 * np.exp(theta ** 2 * 0.25)) < 3 * seq
    zq = bundle.Z[:, -1] * qT
    sez = zq.std(ddof=1) / np.sqrt(zq.size)
    assert abs(zq.mean() - 0.5) < 3 * sez


def test_log_euler_matches_exact_gbm_distribution():
    model = builtin_model("gbm", b=0.1, s=0.2)
    cfg = SimConfig(0.0, 0.25, 64, 20_000, 4, "log-euler", 0.0)
    bundle = simulate(model, [2.0], 0.5, cfg)
    # for constant coefficients the log-Euler step is exact in distribution
    X_ex, _ = exact_gbm_terminal(0.1, 0.2, 2.0, 0.25, 20_000, 4)
    a, b = np.sort(bundle.X[:, -1, 0]), np.sort(X_ex)
    # Kolmogorov-Smirnov style: compare empirical quantiles loosely
    qs = np.linspace(0.05, 0.95, 19)
    assert np.allclose(np.quantile(a, qs), np.quantile(b, qs), rtol=0.02)


def test_terminal_block_provides_brownian_aux():
    model = builtin_model("bessel3")
    cfg = SimConfig(0.0, 1.0, 8, 8192, 1, "exact-bessel3", 0.0)
    X, Z, B = terminal_block(model, np.array([1.0]), cfg, 0, 4096)
    assert X.shape == (4096, 1) and Z.shape == (4096,) and B.shape == (4096,)
    # aux Brownian is independent N(0, T): crude moment check
    assert abs(B.mean()) < 4 / np.sqrt(4096)
    assert abs(B.std(ddof=1) - 1.0) < 0.05
    # block splitting is invariant: block 0 of size 8192 = two of 4096? no:
    # blocks are keyed by index, so the same (index, size) is reproducible
    X2, Z2, B2 = terminal_block(model, np.array([1.0]), cfg, 0, 4096)
    assert np.array_equal(X, X2) and np.array_equal(B, B2)


def test_nonfinite_guard_on_deep_dive():
    # the radial model started near zero overflows the deflator in log-Euler
    model = builtin_model("bessel3")
    cfg = SimConfig(0.0, 1.0, 64, 2048, 0, "log-euler", 0.0)
    with pytest.raises(Nonfinite):
        simulate(model, [0.02], 0.5, cfg)


def test_nonfinite_reports_global_path_index():
    # path 2194 of block 1 overflows; both entry points name it by its
    # index among all paths
    model = builtin_model("bessel3")
    cfg = SimConfig(0.0, 1.0, 64, 10_387, 0, "log-euler", 0.0)
    with pytest.raises(Nonfinite) as sim:
        simulate(model, [1.0], 0.5, cfg)
    with pytest.raises(Nonfinite) as streamed:
        sample_terminal(model, linear_payoff(), [1.0], cfg)
    assert sim.value.path_index == 10_386
    assert streamed.value.path_index == 10_386


def test_integrability_diagnostic():
    model = builtin_model("gbm", b=0.1, s=0.2)
    cfg = SimConfig(0.0, 1.0, 16, 200, 0, "log-euler", 0.0)
    bundle = simulate(model, [1.0], 0.5, cfg)
    rep = integrability_diagnostic(model, bundle)
    assert rep.passed
    # constant coefficients: sum = (|b| + s^2 + theta^2) * T exactly
    expect = (0.1 + 0.04 + 0.25) * 1.0
    assert np.allclose(rep.sums, expect, rtol=1e-12)
    tight = integrability_diagnostic(model, bundle, cap=expect / 2)
    assert not tight.passed
    assert tight.flagged_paths.size == 200
