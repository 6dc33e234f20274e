"""Path simulation: determinism, exact samplers, failure contracts."""
import numpy as np
import pytest
from scipy.stats import norm

from qhedge.engine import (BLOCK, SCHEMES, SimConfig, _blocks, default_scheme,
                           terminal_block)
from qhedge.errors import Nonfinite, SchemeMismatch
from qhedge.market import builtin_model, linear_payoff
from qhedge.mc import sample_terminal


def terminal(model, x0, T, n_paths, seed, scheme, n_steps=1):
    """(X_T, Z_T, B_T) of every path, block by block, with the floor clamps
    summed over the blocks."""
    cfg = SimConfig(0.0, T, n_steps, n_paths, seed, scheme, 0.0)
    blocks = [terminal_block(model, np.array([x0]), cfg, blk, bn)
              for blk, _, bn in _blocks(n_paths)]
    X, Z, B = (np.concatenate([blk[k] for blk in blocks]) for k in range(3))
    return X, Z, B, sum(blk[3] for blk in blocks)


def exact_bessel3(x0, T, n_paths, seed):
    X, Z, _, _ = terminal(builtin_model("bessel3"), x0, T, n_paths, seed, "exact-bessel3")
    return X[:, 0], Z


def exact_gbm(b, s, x0, T, n_paths, seed):
    X, Z, _, _ = terminal(builtin_model("gbm", b=b, s=s), x0, T, n_paths, seed, "exact-gbm")
    return X[:, 0], Z


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
        terminal_block(builtin_model("bessel3"), np.array([1.0]), cfg, 0, 64)
    cfg2 = SimConfig(0.0, 1.0, 8, 64, 0, "exact-bessel3", 0.0)
    with pytest.raises(SchemeMismatch):
        sample_terminal(builtin_model("gbm", b=0.1, s=0.2), linear_payoff(), [1.0], cfg2)


def test_radial_exact_sampler_is_pathwise_degenerate():
    X, Z = exact_bessel3(1.0, 1.0, 50_000, seed=11)
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
    X, _ = exact_bessel3(x0, T, 200_000, seed=5)
    m2 = (X ** 2).mean()
    se = (X ** 2).std(ddof=1) / np.sqrt(X.size)
    assert abs(m2 - (x0 * x0 + 3 * T)) < 3 * se


def test_gbm_exact_sampler_moments():
    b, s, x0, T = 0.1, 0.2, 1.0, 1.0
    X, Z = exact_gbm(b, s, x0, T, 200_000, seed=3)
    seX = X.std(ddof=1) / np.sqrt(X.size)
    assert abs(X.mean() - x0 * np.exp(b * T)) < 3 * seX
    # deflated wealth is a true martingale here
    prod = Z * X
    seP = prod.std(ddof=1) / np.sqrt(prod.size)
    assert abs(prod.mean() - x0) < 3 * seP


def test_exact_samplers_are_deterministic():
    a = exact_bessel3(1.0, 1.0, 10_000, seed=7)
    b = exact_bessel3(1.0, 1.0, 10_000, seed=7)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    c = exact_bessel3(1.0, 1.0, 10_000, seed=8)
    assert not np.array_equal(a[0], c[0])
    # draws depend only on the absolute path index, not the batch size
    big = exact_bessel3(1.0, 1.0, 20_000, seed=7)
    assert np.array_equal(big[0][:10_000], a[0])


def test_simulate_shapes_and_determinism():
    # log-Euler terminal states of a stepped block: shapes, no floor
    # clamps far from the floor, and the same draws on every call
    model = builtin_model("gbm", b=0.1, s=0.2)
    cfg = SimConfig(0.0, 0.5, 16, 300, 9, "log-euler", 0.3)
    X, Z, B, n_clamped = terminal_block(model, np.array([1.0]), cfg, 0, 300)
    assert X.shape == (300, 1) and Z.shape == (300,) and B.shape == (300,)
    assert n_clamped == 0
    assert np.all(X > 0) and np.all(Z > 0)
    again = terminal_block(model, np.array([1.0]), cfg, 0, 300)
    for a, b in zip((X, Z, B), again):
        assert np.array_equal(a, b)
    other = terminal_block(model, np.array([1.0]), cfg, 1, 300)
    assert not np.array_equal(X, other[0])


def test_simulate_martingale_sanity():
    # Z X has constant expectation under a stepped gbm simulation
    X, Z, _, _ = terminal(builtin_model("gbm", b=0.1, s=0.2), 2.0, 0.25, 50_000, 2,
                          "log-euler", n_steps=32)
    prod = Z * X[:, 0]
    se = prod.std(ddof=1) / np.sqrt(prod.size)
    assert abs(prod.mean() - 2.0) < 3 * se
    # the dual process Q = q0 / Z carries the theta^2 drift: it is a
    # submartingale with E[Q(T)] = q0 e^{theta^2 T}
    qT = 0.5 / Z
    seq = qT.std(ddof=1) / np.sqrt(qT.size)
    theta = 0.1 / 0.2
    assert abs(qT.mean() - 0.5 * np.exp(theta ** 2 * 0.25)) < 3 * seq


def test_log_euler_matches_exact_gbm_distribution():
    X, _, _, _ = terminal(builtin_model("gbm", b=0.1, s=0.2), 2.0, 0.25, 20_000, 4,
                          "log-euler", n_steps=64)
    # for constant coefficients the log-Euler step is exact in distribution
    X_ex, _ = exact_gbm(0.1, 0.2, 2.0, 0.25, 20_000, 4)
    a, b = np.sort(X[:, 0]), np.sort(X_ex)
    # Kolmogorov-Smirnov style: compare empirical quantiles loosely
    qs = np.linspace(0.05, 0.95, 19)
    assert np.allclose(np.quantile(a, qs), np.quantile(b, qs), rtol=0.02)


def test_terminal_block_provides_brownian_aux():
    model = builtin_model("bessel3")
    cfg = SimConfig(0.0, 1.0, 8, 8192, 1, "exact-bessel3", 0.0)
    X, Z, B, n_clamped = terminal_block(model, np.array([1.0]), cfg, 0, 4096)
    assert X.shape == (4096, 1) and Z.shape == (4096,) and B.shape == (4096,)
    assert n_clamped == 0
    # aux Brownian is independent N(0, T): crude moment check
    assert abs(B.mean()) < 4 / np.sqrt(4096)
    assert abs(B.std(ddof=1) - 1.0) < 0.05
    # blocks are keyed by index, so the same (index, size) is reproducible
    X2, Z2, B2, _ = terminal_block(model, np.array([1.0]), cfg, 0, 4096)
    assert np.array_equal(X, X2) and np.array_equal(B, B2)


def test_nonfinite_guard_on_deep_dive():
    # the radial model started near zero overflows the deflator in log-Euler
    model = builtin_model("bessel3")
    cfg = SimConfig(0.0, 1.0, 64, 2048, 0, "log-euler", 0.0)
    with pytest.raises(Nonfinite):
        sample_terminal(model, linear_payoff(), [0.02], cfg)


def test_nonfinite_reports_global_path_index():
    # path 2194 of block 1 overflows; the block and the streaming sampler
    # both name it by its index among all paths
    model = builtin_model("bessel3")
    cfg = SimConfig(0.0, 1.0, 64, 10_387, 0, "log-euler", 0.0)
    with pytest.raises(Nonfinite) as block:
        terminal_block(model, np.array([1.0]), cfg, 1, 10_387 - BLOCK)
    with pytest.raises(Nonfinite) as streamed:
        sample_terminal(model, linear_payoff(), [1.0], cfg)
    assert block.value.path_index == 10_386
    assert streamed.value.path_index == 10_386
