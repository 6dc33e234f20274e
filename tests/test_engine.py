"""Path simulation: determinism, exact samplers, failure contracts."""
import dataclasses

import numpy as np
import pytest
from scipy.stats import norm

import engine_reference as ref
from qhedge import engine
from qhedge.engine import (BLOCK, SCHEMES, SimConfig, _blocks, default_scheme,
                           terminal_block)
from qhedge.errors import Nonfinite, SchemeMismatch, SingularDiffusion
from qhedge.market import builtin_model, linear_payoff
from qhedge.mc import sample_terminal


def terminal(model, x0, T, n_paths, seed, scheme, n_steps=1):
    """(X_T, Z_T, B_T) of every path, block by block."""
    cfg = SimConfig(0.0, T, n_steps, n_paths, seed, scheme)
    blocks = [terminal_block(model, np.array([x0]), cfg, blk, bn)
              for blk, _, bn in _blocks(n_paths)]
    return tuple(np.concatenate([blk[k] for blk in blocks]) for k in range(3))


def exact_bessel3(x0, T, n_paths, seed):
    X, Z, _ = terminal(builtin_model("bessel3"), x0, T, n_paths, seed, "exact-bessel3")
    return X[:, 0], Z


def exact_gbm(b, s, x0, T, n_paths, seed):
    X, Z, _ = terminal(builtin_model("gbm", b=b, s=s), x0, T, n_paths, seed, "exact-gbm")
    return X[:, 0], Z


def test_config_validation():
    cfg = SimConfig(0.0, 1.0, 8, 100, 0, "log-euler")
    assert cfg.horizon == 1.0
    with pytest.raises(ValueError):
        SimConfig(1.0, 1.0, 8, 100, 0, "log-euler")
    with pytest.raises(ValueError):
        SimConfig(0.0, 1.0, 0, 100, 0, "log-euler")
    with pytest.raises(ValueError):
        SimConfig(0.0, 1.0, 8, 0, 0, "log-euler")
    with pytest.raises(ValueError):
        SimConfig(0.0, 1.0, 8, 100, 0, "milstein")


def test_default_scheme_prefers_exact_samplers():
    assert default_scheme(builtin_model("bessel3")) == "exact-bessel3"
    assert default_scheme(builtin_model("gbm", b=0.1, s=0.2)) == "exact-gbm"
    m = builtin_model("custom", dim=1, b_exprs=["0.1"], s_exprs=[["0.2"]])
    assert default_scheme(m) == "log-euler"
    assert set(("log-euler", "exact-gbm", "exact-bessel3")) <= set(SCHEMES)


def test_scheme_model_mismatch():
    cfg = SimConfig(0.0, 1.0, 8, 64, 0, "exact-gbm")
    with pytest.raises(SchemeMismatch):
        terminal_block(builtin_model("bessel3"), np.array([1.0]), cfg, 0, 64)
    cfg2 = SimConfig(0.0, 1.0, 8, 64, 0, "exact-bessel3")
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
    # log-Euler terminal states of a stepped block: shapes, and the same
    # draws on every call
    model = builtin_model("gbm", b=0.1, s=0.2)
    cfg = SimConfig(0.0, 0.5, 16, 300, 9, "log-euler")
    X, Z, B = terminal_block(model, np.array([1.0]), cfg, 0, 300)
    assert X.shape == (300, 1) and Z.shape == (300,) and B.shape == (300,)
    assert np.all(X > 0) and np.all(Z > 0)
    again = terminal_block(model, np.array([1.0]), cfg, 0, 300)
    for a, b in zip((X, Z, B), again):
        assert np.array_equal(a, b)
    other = terminal_block(model, np.array([1.0]), cfg, 1, 300)
    assert not np.array_equal(X, other[0])


def test_simulate_martingale_sanity():
    # Z X has constant expectation under a stepped gbm simulation
    X, Z, _ = terminal(builtin_model("gbm", b=0.1, s=0.2), 2.0, 0.25, 50_000, 2,
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
    X, _, _ = terminal(builtin_model("gbm", b=0.1, s=0.2), 2.0, 0.25, 20_000, 4,
                       "log-euler", n_steps=64)
    # for constant coefficients the log-Euler step is exact in distribution
    X_ex, _ = exact_gbm(0.1, 0.2, 2.0, 0.25, 20_000, 4)
    a, b = np.sort(X[:, 0]), np.sort(X_ex)
    # Kolmogorov-Smirnov style: compare empirical quantiles loosely
    qs = np.linspace(0.05, 0.95, 19)
    assert np.allclose(np.quantile(a, qs), np.quantile(b, qs), rtol=0.02)


def test_terminal_block_provides_brownian_aux():
    model = builtin_model("bessel3")
    cfg = SimConfig(0.0, 1.0, 8, 8192, 1, "exact-bessel3")
    X, Z, B = terminal_block(model, np.array([1.0]), cfg, 0, 4096)
    assert X.shape == (4096, 1) and Z.shape == (4096,) and B.shape == (4096,)
    # aux Brownian is independent N(0, T): crude moment check
    assert abs(B.mean()) < 4 / np.sqrt(4096)
    assert abs(B.std(ddof=1) - 1.0) < 0.05
    # blocks are keyed by index, so the same (index, size) is reproducible
    X2, Z2, B2 = terminal_block(model, np.array([1.0]), cfg, 0, 4096)
    assert np.array_equal(X, X2) and np.array_equal(B, B2)


def test_nonfinite_guard_on_deep_dive():
    # the radial model started near zero overflows the deflator in log-Euler
    model = builtin_model("bessel3")
    cfg = SimConfig(0.0, 1.0, 64, 2048, 0, "log-euler")
    with pytest.raises(Nonfinite):
        sample_terminal(model, linear_payoff(), [0.02], cfg)


def test_nonfinite_reports_global_path_index():
    # path 2194 of block 1 overflows; the block and the streaming sampler
    # both name it by its index among all paths
    model = builtin_model("bessel3")
    cfg = SimConfig(0.0, 1.0, 64, 10_387, 0, "log-euler")
    with pytest.raises(Nonfinite) as block:
        terminal_block(model, np.array([1.0]), cfg, 1, 10_387 - BLOCK)
    with pytest.raises(Nonfinite) as streamed:
        sample_terminal(model, linear_payoff(), [1.0], cfg)
    assert block.value.path_index == 10_386
    assert streamed.value.path_index == 10_386


# volatility-stabilized market: b_i = (x1 + x2) / (2 x_i), s = diag(sqrt((x1 + x2) / x_i))
VSM_D2 = builtin_model("custom", dim=2, b_exprs=["(x1+x2)/(2*x1)", "(x1+x2)/(2*x2)"],
                       s_exprs=[["sqrt((x1+x2)/x1)", "0"], ["0", "sqrt((x1+x2)/x2)"]])


@pytest.mark.parametrize("model, x0, n_steps, seed, path", [
    pytest.param(builtin_model("bessel3"), [1.0], 16, 3, 5657, id="bessel3-16-steps"),
    pytest.param(builtin_model("bessel3"), [1.0], 256, 0, 18_912, id="bessel3-256-steps"),
    pytest.param(VSM_D2, [1.0, 1.0], 64, 1, 740, id="vsm-d2"),
])
def test_state_dependent_log_euler_fails_on_the_pinned_path(model, x0, n_steps, seed, path):
    # explicit Euler on these superlinear coefficients throws a path that
    # comes near X = 0 out of the log range (Hutzenthaler, Jentzen &
    # Kloeden 2011); more steps do not avoid it.  The pinned path shows a
    # change of the stepper that changes the outcome
    cfg = SimConfig(0.0, 1.0, n_steps, 20_000, seed, "log-euler")
    with np.errstate(over="ignore"), pytest.raises(Nonfinite) as exc:
        sample_terminal(model, linear_payoff(), x0, cfg)
    assert exc.value.path_index == path


@pytest.mark.parametrize("model, x0, T, n_steps, scheme", [
    pytest.param(builtin_model("gbm", b=[0.05, 0.03], s=[0.3, 0.25]), [1.0, 1.2], 1.0, 16,
                 "log-euler", id="gbm-diagonal-d2"),
    pytest.param(builtin_model("gbm", b=[0.05, 0.03], s=[0.3, 0.25]), [1.0, 1.2], 1.0, 16,
                 "exact-gbm", id="exact-gbm-diagonal-d2"),
    pytest.param(VSM_D2, [1.0, 1.0], 0.25, 64, "log-euler", id="vsm-d2"),
])
def test_diagonal_volatility_divides_as_the_solve_does(monkeypatch, model, x0, T, n_steps,
                                                      scheme):
    # a diagonal s gives theta = b / diag(s) with no solve, and that is what
    # the solve returns, bit for bit.  Over T = 0.25 every VSM path of the
    # block stays in the log range
    cfg = SimConfig(0.0, T, n_steps, 2000, 1, scheme)

    def no_solve(*args, **kwargs):
        raise AssertionError("a diagonal volatility went to the solve")

    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "solve", no_solve)
        got = terminal_block(model, np.array(x0), cfg, 0, cfg.n_paths)
    monkeypatch.setattr(engine, "theta_from", ref.theta_by_solve)
    want = terminal_block(model, np.array(x0), cfg, 0, cfg.n_paths)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("s_exprs", [[["x1 - 1", "0"], ["0", "0.3"]],
                                     [["x1 - 1", "0.1"], ["0", "0.3"]]],
                         ids=["diagonal", "triangular"])
def test_singular_volatility_on_a_path_raises(s_exprs):
    # s is singular at the start x0 = (1, 1): an exactly zero diagonal entry
    # stops the division as a singular matrix stops the solve
    model = builtin_model("custom", dim=2, b_exprs=["0.05", "0.03"], s_exprs=s_exprs)
    with pytest.raises(SingularDiffusion):
        terminal_block(model, np.array([1.0, 1.0]), SimConfig(0.0, 1.0, 4, 64, 0, "log-euler"),
                       0, 64)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("bn", [1, 511, 512, 513, 808, 8192])
def test_step_major_increments_are_the_block_draw(bn, d):
    # drawn in path chunks and stored step-major, the increments are the
    # values of one (bn, n_steps, d) draw, bit for bit; 808 is the last
    # block of 9000 paths
    n_steps, dt = 16, 1.0 / 16
    one_draw = np.sqrt(dt) * engine._block_gen(3, 1, engine._REGION_W).standard_normal(
        (bn, n_steps, d))
    got = engine._step_major_increments(engine._block_gen(3, 1, engine._REGION_W), bn, n_steps,
                                        d, dt)
    assert got.shape == (n_steps, bn, d) and got.flags.c_contiguous
    assert np.array_equal(got, one_draw.transpose(1, 0, 2))


def test_nan_coefficient_raises_nonfinite():
    # s = sqrt(x1 - 0.5) is NaN once a path falls below 0.5; the range
    # check after the step stops it
    model = builtin_model("custom", dim=1, b_exprs=["0.05"], s_exprs=[["sqrt(x1 - 0.5)"]])
    cfg = SimConfig(0.0, 1.0, 32, 20_000, 3, "log-euler")
    with np.errstate(invalid="ignore"), pytest.raises(Nonfinite) as exc:
        sample_terminal(model, linear_payoff(), [1.0], cfg)
    assert exc.value.path_index == 1417


GBM_D1 = builtin_model("gbm", b=0.05, s=0.3)
GBM_FULL_D2 = builtin_model("gbm", b=[0.05, 0.03], s=[[0.3, 0.1], [0.05, 0.25]])


@pytest.mark.parametrize("model, x0, n_steps, scheme", [
    pytest.param(builtin_model("custom", dim=1, b_exprs=["0.05"], s_exprs=[["0.3"]]), [1.0], 64,
                 "log-euler", id="constant-d1"),
    pytest.param(builtin_model("custom", dim=1, b_exprs=["0.1*sin(x1)"], s_exprs=[["0.2+0.1*x1"]]),
                 [1.0], 32, "log-euler", id="state-d1"),
    pytest.param(builtin_model("custom", dim=2, b_exprs=["0.05", "0.03*x2"],
                               s_exprs=[["0.3", "0.1*x1"], ["0.05", "0.25"]]),
                 [1.0, 1.2], 16, "log-euler", id="full-matrix-d2"),
    pytest.param(GBM_D1, [1.3], 64, "log-euler", id="gbm-d1"),
    pytest.param(GBM_D1, [1.3], 64, "exact-gbm", id="exact-gbm-d1"),
    pytest.param(GBM_FULL_D2, [1.0, 1.2], 16, "log-euler", id="gbm-full-matrix-d2"),
    pytest.param(GBM_FULL_D2, [1.0, 1.2], 16, "exact-gbm", id="exact-gbm-full-matrix-d2"),
])
def test_log_euler_matches_the_full_path_reference(monkeypatch, model, x0, n_steps, scheme):
    # the stepper keeps only the current state but does the reference's
    # arithmetic, so X_T and Z_T are equal bit for bit; it draws from the W
    # and B streams only.  exact-gbm is one log-Euler step over the horizon,
    # whatever cfg.n_steps says
    regions = []
    block_gen = engine._block_gen

    def recording_gen(seed, block_index, region):
        regions.append(region)
        return block_gen(seed, block_index, region)

    monkeypatch.setattr(engine, "_block_gen", recording_gen)
    cfg = SimConfig(0.0, 1.0, n_steps, 9000, 3, scheme)
    ref_cfg = cfg if scheme == "log-euler" else dataclasses.replace(cfg, n_steps=1)
    for blk, _, bn in _blocks(cfg.n_paths):
        X, Z, _ = terminal_block(model, np.array(x0), cfg, blk, bn)
        dW, dt = ref.block_draws(ref_cfg, blk, bn, model.dim)
        y, lz = ref.log_euler_paths(model, np.log(x0), dW, dt)
        assert np.array_equal(X, np.exp(y[:, -1, :]))
        assert np.array_equal(Z, np.exp(lz[:, -1]))
    assert set(regions) == {engine._REGION_W, engine._REGION_B}


def test_bessel3_log_euler_matches_the_radial_recursion():
    # bessel3 steps through the generic b/s stepper; the hand-written radial
    # recursion computes the same map in another order
    cfg = SimConfig(0.0, 1.0, 64, 9000, 0, "log-euler")
    for blk, _, bn in _blocks(cfg.n_paths):
        X, Z, _ = terminal_block(builtin_model("bessel3"), np.array([1.0]), cfg, blk, bn)
        dW, dt = ref.block_draws(cfg, blk, bn, 1)
        y, lz = ref.bessel3_log_paths(np.zeros(bn), dW[:, :, 0], dt)
        assert np.max(np.abs(X[:, 0] / np.exp(y[:, -1]) - 1.0)) < 1e-12
        assert np.max(np.abs(Z / np.exp(lz[:, -1]) - 1.0)) < 1e-12
        # Z X = x0 pathwise, as for the exact sampler
        assert np.max(np.abs(X[:, 0] * Z - 1.0)) < 1e-13


@pytest.mark.parametrize("model, exact", [
    (builtin_model("gbm", b=0.1, s=0.2), "exact-gbm"),
    (builtin_model("bessel3"), "exact-bessel3"),
], ids=["gbm", "bessel3"])
def test_log_euler_draws_the_exact_schemes_aux_brownian(model, exact):
    # B_T is one N(0, T - t0) draw per path whatever the scheme and step count
    for blk, bn in ((0, 1000), (3, 100)):
        stepped = terminal_block(model, np.array([1.0]), SimConfig(0.0, 0.5, 16, 9000, 5, "log-euler"),
                                 blk, bn)
        one_draw = terminal_block(model, np.array([1.0]), SimConfig(0.0, 0.5, 1, 9000, 5, exact),
                                  blk, bn)
        assert np.array_equal(stepped[2], one_draw[2])


def test_radial_log_euler_step_is_the_plain_euler_map():
    # one step from log X = 0, checked by hand against the block's W draw
    dt = 0.5
    cfg = SimConfig(0.0, dt, 1, 64, 2, "log-euler")
    X, Z, _ = terminal_block(builtin_model("bessel3"), np.array([1.0]), cfg, 0, 64)
    dw = ref.block_draws(cfg, 0, 64, 1)[0][:, 0, 0]
    drift = 0.5 * dt
    assert np.allclose(np.log(X[:, 0]), drift + dw, rtol=0.0, atol=1e-15)
    assert np.allclose(np.log(Z), -drift - dw, rtol=0.0, atol=1e-15)
