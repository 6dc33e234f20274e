"""Estimators on terminal samples in draw order (quantiles sort their own
copy): hand values, order independence, duality, determinism."""
import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import estimator_reference as ref
from memory_helpers import traced_peak
from neyman_pearson_reference import neyman_pearson_bruteforce
from qhedge import engine, mc
from qhedge.engine import SimConfig
from qhedge.errors import EmptySamples, MissingAux, Nonfinite, POutOfRange
from qhedge.market import builtin_model, linear_payoff, payoff_from_expression


def toy(values, aux=None):
    return mc.sample_set(values, aux=aux, horizon=1.0)


def test_sample_set_keeps_draw_order_and_aligns_aux():
    s = toy([3.0, 1.0, 2.0], aux=[30.0, 10.0, 20.0])
    assert np.array_equal(s.values, [3.0, 1.0, 2.0])
    assert np.array_equal(s.aux, [30.0, 10.0, 20.0])
    assert s.n == 3
    assert not s.values.flags.writeable
    assert not s.aux.flags.writeable
    with pytest.raises(EmptySamples):
        toy([])
    with pytest.raises(ValueError):
        toy([1.0, -2.0])
    with pytest.raises(ValueError):
        toy([1.0, 0.0])
    with pytest.raises(ValueError):
        toy([1.0, np.inf])
    with pytest.raises(ValueError):
        toy([1.0, 2.0], aux=[1.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -0.0, -1.5, -np.finfo(float).tiny])
def test_sample_set_rejects_values_not_finite_and_positive(bad):
    # the check takes the min and max, which NaN propagates to
    for at in (0, 2, 4):
        values = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        values[at] = bad
        with pytest.raises(ValueError, match="finite and > 0"):
            toy(values)


def _tied_sample():
    rng = np.random.default_rng(7)
    return toy(rng.choice([0.5, 0.75, 1.0, 1.25, 2.0], size=4000), aux=rng.normal(size=4000))


def _bessel3_sample():
    # exact bessel3 has Z X = x0 on every path: all values (nearly) tied
    cfg = SimConfig(0.0, 1.0, 1, 9000, 8, "exact-bessel3")
    return mc.sample_terminal(builtin_model("bessel3"), linear_payoff(), [1.0], cfg)


@pytest.mark.parametrize("make", [
    pytest.param(_tied_sample, id="ties"),
    pytest.param(lambda: toy(np.full(3000, 1.3), aux=np.linspace(-2.0, 2.0, 3000)),
                 id="all-equal"),
    pytest.param(_bessel3_sample, id="exact-bessel3"),
])
def test_estimators_do_not_depend_on_sample_order(make):
    s = make()
    perm = np.random.default_rng(11).permutation(s.n)
    shuffled = toy(s.values[perm], aux=s.aux[perm])
    p_grid = np.linspace(0.0, 1.0, 41)
    for a, b in zip(mc.quantile_curve(s, p_grid), mc.quantile_curve(shuffled, p_grid)):
        assert np.array_equal(a, b)
    for p in (0.0, 0.3, 0.5, 0.999, 1.0):
        assert mc.quantile_value(s, p) == mc.quantile_value(shuffled, p)
    q_grid = np.linspace(0.0, 2.0 * s.values.mean(), 33)
    for eps in (0.0, 0.3):
        _, value, se = mc.dual_curve(s, q_grid, eps)
        _, value_p, se_p = mc.dual_curve(shuffled, q_grid, eps)
        # only the summation order moves
        np.testing.assert_allclose(value_p, value, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(se_p, se, rtol=1e-12, atol=0.0)


def test_quantile_value_hand_examples():
    s = toy([1.0, 2.0, 3.0, 4.0])
    # p n = 2 samples fully used: (1 + 2) / 4
    assert mc.quantile_value(s, 0.5).value == pytest.approx(0.75)
    assert mc.quantile_value(s, 0.0).value == 0.0
    assert mc.quantile_value(s, 1.0).value == pytest.approx(2.5)
    # fractional atom: p n = 1.5 uses the second sample at weight 0.5
    assert mc.quantile_value(s, 0.375).value == pytest.approx((1.0 + 0.5 * 2.0) / 4)
    # repeated atom: p n = 1.5 on [1, 1, 2]
    s2 = toy([1.0, 1.0, 2.0])
    assert mc.quantile_value(s2, 0.5).value == pytest.approx(1.5 / 3)
    with pytest.raises(POutOfRange):
        mc.quantile_value(s, 1.2)


def test_quantile_matches_bruteforce_neyman_pearson():
    rng = np.random.default_rng(0)
    vals = rng.uniform(0.1, 3.0, size=7)
    s = toy(vals)
    dist = [(v, 1.0 / 7) for v in vals]
    for p in np.linspace(0, 1, 23):
        assert mc.quantile_value(s, float(p)).value == pytest.approx(
            neyman_pearson_bruteforce(dist, float(p)), abs=1e-12)


def test_dual_value_hand_example():
    s = toy([1.0, 2.0, 3.0])
    assert mc.dual_value(s, 2.5).value == pytest.approx(2.0 / 3)
    assert mc.dual_value(s, 0.0).value == 0.0
    with pytest.raises(ValueError):
        mc.dual_value(s, -1.0)


def test_primal_dual_conjugacy_on_samples():
    # V(p) and w(q) are empirical conjugates: V(p) = max_q (p q - w(q))
    rng = np.random.default_rng(3)
    s = toy(rng.lognormal(0.0, 0.6, size=200))
    q_grid = np.linspace(0.0, 30.0, 20_001)
    _, w, _ = mc.dual_curve(s, q_grid)
    for p in (0.1, 0.45, 0.8):
        direct = mc.quantile_value(s, p).value
        legendre = np.max(p * q_grid - w)
        assert legendre == pytest.approx(direct, abs=1e-3)
        assert legendre <= direct + 1e-12


def test_curves_match_pointwise_calls():
    rng = np.random.default_rng(1)
    s = toy(rng.lognormal(0.0, 0.5, size=500))
    p_grid = np.linspace(0, 1, 11)
    p, val, se = mc.quantile_curve(s, p_grid)
    for i, pp in enumerate(p_grid):
        est = mc.quantile_value(s, float(pp))
        assert val[i] == pytest.approx(est.value, abs=1e-14)
        assert se[i] == pytest.approx(est.std_error, abs=1e-14)
    q_grid = np.linspace(0.0, 2.0 * s.values.mean(), 17)
    q, wval, wse = mc.dual_curve(s, q_grid)
    for i, qq in enumerate(q_grid):
        est = mc.dual_value(s, float(qq))
        assert wval[i] == pytest.approx(est.value, abs=1e-14)
        assert wse[i] == pytest.approx(est.std_error, abs=1e-14)


@pytest.mark.parametrize("n,c", [(64, 0.1), (777, 1.7)])
def test_quantile_curve_constant_samples_have_zero_stderr(n, c):
    # the influence function is 0 on every sample; raw prefix-sum moments
    # left ~1e-9 here
    _, value, se = mc.quantile_curve(toy(np.full(n, c)), np.linspace(0.0, 1.0, 21))
    np.testing.assert_allclose(value, c * np.linspace(0.0, 1.0, 21), rtol=1e-12, atol=0.0)
    assert np.all(se <= 1e-15 * c)


def test_superhedge_value_is_mean():
    # the p = 1 capital is the sample mean; at or above every sample the
    # dual value is q less it
    s = toy([1.0, 2.0, 3.0])
    assert mc.quantile_value(s, 1.0).value == pytest.approx(2.0)
    _, w, _ = mc.dual_curve(s, np.linspace(0.0, 4.0, 5))
    assert w[-2:] == pytest.approx([1.0, 2.0])


def test_regularized_dual_reduces_and_requires_aux():
    rng = np.random.default_rng(2)
    vals = rng.lognormal(0.0, 0.4, size=1000)
    aux = rng.normal(0.0, 1.0, size=1000)
    s = toy(vals, aux=aux)
    assert mc.dual_value_regularized(s, 1.3, 0.0).value == pytest.approx(
        mc.dual_value(s, 1.3).value, abs=0.0)
    bare = toy(vals)
    with pytest.raises(MissingAux):
        mc.dual_value_regularized(bare, 1.3, 0.2)
    # smearing increases the value of the put at the kink
    assert (mc.dual_value_regularized(s, 1.0, 0.3).value
            >= mc.dual_value(s, 1.0).value - 1e-12)


def test_regularized_dual_on_degenerate_samples_matches_closed_form():
    # all values equal x0: the estimator is a lognormal put in q by
    # construction, so compare against the closed form at the sample aux
    from qhedge.oracles import lognormal_put
    rng = np.random.default_rng(4)
    n = 200_000
    aux = rng.normal(0.0, 1.0, size=n)
    s = toy(np.full(n, 1.0), aux=aux)
    for q, eps in [(0.8, 0.2), (1.0, 0.5), (1.5, 0.1)]:
        est = mc.dual_value_regularized(s, q, eps)
        ref = lognormal_put(1.0, q, eps)
        assert abs(est.value - ref) < 3 * est.std_error + 1e-9


def test_neyman_pearson_bruteforce_validation():
    with pytest.raises(Exception):
        neyman_pearson_bruteforce([(1.0, 0.4)], 0.5)
    with pytest.raises(Exception):
        neyman_pearson_bruteforce([(1.0, 0.5), (2.0, 0.5)], 1.5)
    # greedy fill by hand: values (1, 0.25), (2, 0.75); p = 0.5
    got = neyman_pearson_bruteforce([(2.0, 0.75), (1.0, 0.25)], 0.5)
    assert got == pytest.approx(0.25 * 1.0 + 0.25 * 2.0)


def test_sample_terminal_threads_do_not_change_results():
    model = builtin_model("bessel3")
    payoff = linear_payoff()
    cfg = SimConfig(0.0, 1.0, 4, 20_000, 6, "exact-bessel3")
    s1 = mc.sample_terminal(model, payoff, [1.0], cfg, threads=1)
    s4 = mc.sample_terminal(model, payoff, [1.0], cfg, threads=4)
    assert np.array_equal(s1.values, s4.values)
    assert np.array_equal(s1.aux, s4.aux)
    assert s1.horizon == 1.0


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("scheme, n_steps", [("exact-gbm", 1), ("log-euler", 8)])
def test_samples_without_aux_are_the_samples_with_aux(threads, scheme, n_steps):
    # B has a stream of its own, so leaving it undrawn moves no value
    model = builtin_model("gbm", b=0.05, s=0.3)
    cfg = SimConfig(0.0, 1.0, n_steps, 20_000, 4, scheme)
    full = mc.sample_terminal(model, linear_payoff(), [1.0], cfg)
    bare = mc.sample_terminal(model, linear_payoff(), [1.0], cfg, threads=threads, aux=False)
    assert bare.aux is None
    assert np.array_equal(bare.values, full.values)


@pytest.mark.parametrize("model, x0, n_steps", [
    pytest.param(builtin_model("custom", dim=1, b_exprs=["0.1*sin(x1)"], s_exprs=[["0.2+0.1*x1"]]),
                 [1.0], 32, id="state-d1"),
    pytest.param(builtin_model("custom", dim=2, b_exprs=["0.05", "0.03*x2"],
                               s_exprs=[["0.3", "0.1*x1"], ["0.05", "0.25"]]),
                 [1.0, 1.2], 16, id="full-matrix-d2"),
])
def test_log_euler_samples_do_not_depend_on_the_thread_count(model, x0, n_steps):
    # three blocks stepped on four threads give the one-thread samples, so
    # no block writes into another's buffers
    cfg = SimConfig(0.0, 1.0, n_steps, 20_000, 3, "log-euler")
    s1 = mc.sample_terminal(model, linear_payoff(), x0, cfg, threads=1)
    s4 = mc.sample_terminal(model, linear_payoff(), x0, cfg, threads=4)
    assert np.array_equal(s1.values, s4.values)
    assert np.array_equal(s1.aux, s4.aux)


@pytest.mark.parametrize("model, scheme, n_steps", [
    pytest.param(builtin_model("gbm", b=0.1, s=0.2), "log-euler", 8, id="gbm-log-euler"),
    pytest.param(builtin_model("custom", dim=1, b_exprs=["0.1"], s_exprs=[["0.2"]]),
                 "log-euler", 8, id="custom-log-euler"),
    pytest.param(builtin_model("bessel3"), "log-euler", 8, id="bessel3-log-euler"),
    pytest.param(builtin_model("gbm", b=0.1, s=0.2), "exact-gbm", 1, id="exact-gbm"),
    pytest.param(builtin_model("bessel3"), "exact-bessel3", 1, id="exact-bessel3"),
])
def test_sample_terminal_assembles_terminal_blocks(model, scheme, n_steps):
    # the streaming sampler is Z_T g(X_T) of every block of
    # engine.terminal_block in block order, with the aux draws alongside;
    # 9000 paths span two blocks
    payoff = linear_payoff()
    cfg = SimConfig(0.0, 0.5, n_steps, 9000, 5, scheme)
    blocks = [engine.terminal_block(model, np.array([1.0]), cfg, blk, bn)
              for blk, _, bn in engine._blocks(cfg.n_paths)]
    ref = mc.sample_set(np.concatenate([Z * payoff(X) for X, Z, _ in blocks]),
                        aux=np.concatenate([B for _, _, B in blocks]))
    got = mc.sample_terminal(model, payoff, [1.0], cfg)
    assert np.array_equal(got.values, ref.values)
    assert np.array_equal(got.aux, ref.aux)


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_zero_sample_names_the_lowest_path_for_any_thread_count(threads):
    # the payoff is 0 on paths 9977 and 16011 of block 1 and 17463 of block
    # 2, so two blocks fail; the first in block order is reported
    payoff = payoff_from_expression("maximum(x1 - 0.33, 0)", 1)
    cfg = SimConfig(0.0, 1.0, 1, 20_000, 3, "exact-gbm")
    with pytest.raises(Nonfinite) as exc:
        mc.sample_terminal(builtin_model("gbm", b=0.05, s=0.3), payoff, [1.0], cfg, threads=threads)
    assert exc.value.path_index == 9977
    assert "g(X_T) = 0.0" in str(exc.value)


@pytest.mark.parametrize("custom, gbm, x0", [
    pytest.param(builtin_model("custom", dim=1, b_exprs=["-32"], s_exprs=[["2"]]),
                 builtin_model("gbm", b=-32, s=2), [1.0], id="d1"),
    pytest.param(builtin_model("custom", dim=2, b_exprs=["-32", "-20"],
                               s_exprs=[["2", "0.5"], ["0.3", "1.5"]]),
                 builtin_model("gbm", b=[-32, -20], s=[[2, 0.5], [0.3, 1.5]]), [1.0, 1.0],
                 id="full-matrix-d2"),
])
def test_constant_custom_model_samples_the_builtin_gbm(custom, gbm, x0):
    # both models step through the one log-Euler stepper on the same
    # coefficient values, so they sample the same values bit for bit, also
    # where log X falls far below -30 on most paths
    cfg = SimConfig(0.0, 1.0, 16, 20_000, 3, "log-euler")
    a = mc.sample_terminal(custom, linear_payoff(), x0, cfg)
    b = mc.sample_terminal(gbm, linear_payoff(), x0, cfg)
    assert np.array_equal(a.values, b.values)


@given(st.lists(st.floats(0.01, 100.0), min_size=2, max_size=50),
       st.floats(0.0, 1.0))
@settings(max_examples=60, deadline=None)
def test_quantile_value_properties(vals, p):
    s = toy(vals)
    est = mc.quantile_value(s, p)
    # bounded by the full mean, nonnegative, increasing in p
    assert -1e-12 <= est.value <= np.mean(vals) + 1e-12
    if p < 1.0:
        later = mc.quantile_value(s, min(1.0, p + 0.1))
        assert later.value >= est.value - 1e-12


@given(st.lists(st.floats(0.01, 100.0), min_size=2, max_size=50),
       st.floats(0.0, 50.0))
@settings(max_examples=60, deadline=None)
def test_dual_value_properties(vals, q):
    s = toy(vals)
    est = mc.dual_value(s, q)
    # (q - v)^+ bounds: between (q - max)^+ and q
    assert max(q - max(vals), 0.0) - 1e-12 <= est.value <= q + 1e-12


@st.composite
def curve_cases(draw):
    """A sample set with aux, an eps, and a q grid that holds q = 0, every
    sample's own threshold v / L_eps (ties), a q above all thresholds and
    a few q in between.  Values and aux are O(1), as Z g(X) and B(T) are."""
    n = draw(st.integers(1, 30))
    vals = draw(st.lists(st.floats(0.01, 10.0), min_size=n, max_size=n))
    aux = draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
    eps = draw(st.sampled_from([0.0, 0.1, 0.5]))
    s = toy(vals, aux=aux)
    u = s.values / (mc._aux_multipliers(s, eps) if eps > 0 else 1.0)
    extra = draw(st.lists(st.floats(0.0, 2.0 * u.max()), max_size=5))
    q = np.sort(np.concatenate([[0.0, 1.5 * u.max()], u, extra]))
    return s, eps, q


@given(curve_cases())
@settings(max_examples=300, deadline=None)
def test_dual_curve_matches_pointwise_regularized(case):
    s, eps, q = case
    _, value, se = mc.dual_curve(s, q, eps)
    assert np.all(value >= 0.0)
    ref = [mc.dual_value_regularized(s, float(qq), eps) for qq in q]
    ref_value = np.array([e.value for e in ref])
    ref_var = np.array([e.std_error for e in ref]) ** 2
    np.testing.assert_allclose(value, ref_value, rtol=0.0, atol=1e-12)
    # the variance agrees to 2e-8 relative (1e-8 on se), up to the
    # rounding floor of any variance built from sums of moments: machine
    # eps times the squared spread of q L and v about their means, plus
    # the reference's own rounding of a constant payout
    L = mc._aux_multipliers(s, eps) if eps > 0 else np.ones(s.n)
    spread = q[:, None] * np.abs(L - L.mean()) + np.abs(s.values - s.values.mean())
    tiny = np.finfo(float).eps
    floor = 16 * tiny * (spread ** 2).sum(axis=1) / (s.n * max(s.n - 1, 1))
    floor += (16 * tiny * (q * L.max() + s.values.max())) ** 2
    assert np.all(np.abs(se ** 2 - ref_var) <= 2e-8 * ref_var + floor)


@pytest.mark.parametrize("eps", [0.0, 0.3])
def test_dual_curve_constant_payouts_have_zero_stderr(eps):
    # every sample pays the same amount at each q, so the spread is zero;
    # a raw second moment minus the squared mean would leave ~1e-8 q here
    s = toy(np.full(64, 0.1), aux=np.full(64, 0.7))
    q = np.linspace(0.0, 3.0, 31)
    _, value, se = mc.dual_curve(s, q, eps)
    L = mc._aux_multipliers(s, eps)[0] if eps > 0 else 1.0
    np.testing.assert_allclose(value, np.maximum(q * L - 0.1, 0.0), rtol=0.0, atol=1e-15)
    assert np.all(se <= 1e-15 * q)


def test_dual_curve_keeps_the_order_of_an_unsorted_grid():
    rng = np.random.default_rng(5)
    s = toy(rng.lognormal(0.0, 0.5, size=300), aux=rng.normal(size=300))
    q = np.linspace(0.0, 3.0, 25)
    perm = rng.permutation(q.size)
    _, value, se = mc.dual_curve(s, q, 0.2)
    q_out, value_p, se_p = mc.dual_curve(s, q[perm], 0.2)
    assert np.array_equal(q_out, q[perm])
    assert np.array_equal(value_p, value[perm])
    assert np.array_equal(se_p, se[perm])


@pytest.mark.parametrize("grid", ["uniform", "nonuniform", "ties", "single", "flat"])
def test_grid_bins_match_searchsorted(grid):
    # thresholds on every node, a hair either side of them, far outside the
    # grid and at random, against np.searchsorted(side="right")
    rng = np.random.default_rng(11)
    qs = {
        "uniform": np.linspace(0.0, 3.0, 31),
        "nonuniform": np.sort(rng.uniform(0.0, 3.0, 40)) ** 2,
        "ties": np.array([0.0, 0.5, 0.5, 0.5, 1.0, 2.0, 2.0, 4.0]),
        "single": np.array([0.7]),
        "flat": np.full(5, 1.5),
    }[grid]
    u = np.concatenate([qs, np.nextafter(qs, -np.inf), np.nextafter(qs, np.inf),
                        [-1e300, -1.0, 0.0, 1e-300, 10.0, 1e300, np.inf],
                        rng.uniform(-0.5, 1.2 * qs[-1] + 1.0, 5000)])
    rng.shuffle(u)
    assert np.array_equal(mc._bin_right(qs, u), np.searchsorted(qs, u, side="right"))


@pytest.mark.parametrize("call, error", [
    (lambda s: mc.dual_curve(s, [1.0, 2.5], math.nan), ValueError),
    (lambda s: mc.dual_curve(s, [1.0, 2.5], math.inf), ValueError),
    (lambda s: mc.dual_curve(s, [math.nan, 2.5]), ValueError),
    (lambda s: mc.dual_curve(s, [1.0, math.inf]), ValueError),
    (lambda s: mc.quantile_curve(s, [math.nan, 0.5]), POutOfRange),
    (lambda s: mc.dual_value(s, math.nan), ValueError),
    (lambda s: mc.dual_value(s, math.inf), ValueError),
    (lambda s: mc.dual_value_regularized(s, 2.5, math.nan), ValueError),
    (lambda s: mc.dual_value_regularized(s, math.nan, 0.2), ValueError),
], ids=["curve-eps-nan", "curve-eps-inf", "curve-q-nan", "curve-q-inf", "quantile-p-nan",
        "value-q-nan", "value-q-inf", "regularized-eps-nan", "regularized-q-nan"])
def test_estimators_reject_nonfinite_arguments(call, error):
    # a NaN fails every range check, as in quantile_value: no curve of eps
    # = 0, no NaN row and no cast warning comes back instead
    with pytest.raises(error):
        call(toy([1.0, 2.0, 3.0], aux=[0.1, -0.2, 0.3]))


def test_dual_curve_argument_checks():
    s = toy([1.0, 2.0, 3.0], aux=[0.1, -0.2, 0.3])
    with pytest.raises(MissingAux):
        mc.dual_curve(toy([1.0, 2.0]), [1.0], 0.2)
    with pytest.raises(ValueError):
        mc.dual_curve(s, [1.0], -0.1)
    with pytest.raises(ValueError):
        mc.dual_curve(s, [-1.0, 1.0])
    # eps = 0 needs no aux
    _, value, _ = mc.dual_curve(toy([1.0, 2.0, 3.0]), [2.5])
    assert value[0] == pytest.approx(2.0 / 3)


def _curves_equal(a, b) -> bool:
    return all(np.array_equal(x, y) for x, y in zip(a, b))


def _block_case():
    # n = 1000 is a multiple of none of the blocks > 1 below, so every
    # blocking ends on a short block; the q grid is unsorted, with repeats
    # and q = 0; the p grid holds p = 0 and p = 1 (k = 0 and k = n)
    rng = np.random.default_rng(23)
    s = toy(rng.lognormal(0.0, 0.5, 1000), aux=rng.normal(size=1000))
    q = rng.permutation(np.concatenate([np.linspace(0.0, 3.0, 41), [1.0, 1.0, 0.0, 2.5, 9.0]]))
    p = rng.permutation(np.concatenate([np.linspace(0.0, 1.0, 101), [0.5, 0.0, 0.9995]]))
    return s, q, p


@pytest.mark.parametrize("block", [1, 7, 97, 1 << 16])
@pytest.mark.parametrize("eps", [0.0, 0.2, 1.3])
def test_blocked_dual_curve_matches_the_whole_array_pass(monkeypatch, block, eps):
    monkeypatch.setattr(mc, "_BIN_BLOCK", block)
    s, q, _ = _block_case()
    assert _curves_equal(mc.dual_curve(s, q, eps), ref.dual_curve(s, q, eps))


@pytest.mark.parametrize("block", [1, 7, 97, 1 << 16])
def test_blocked_quantile_curve_matches_the_whole_array_pass(monkeypatch, block):
    monkeypatch.setattr(mc, "_BIN_BLOCK", block)
    s, _, p = _block_case()
    assert _curves_equal(mc.quantile_curve(s, p), ref.quantile_curve(s, p))


@pytest.mark.parametrize("block", [7, 1 << 16])
def test_blocked_curves_on_constant_samples_match_the_whole_array_passes(monkeypatch, block):
    monkeypatch.setattr(mc, "_BIN_BLOCK", block)
    s = toy(np.full(1000, 1.3), aux=np.linspace(-2.0, 2.0, 1000))
    q = np.linspace(0.0, 3.0, 31)
    p = np.linspace(0.0, 1.0, 21)
    for eps in (0.0, 0.2):
        assert _curves_equal(mc.dual_curve(s, q, eps), ref.dual_curve(s, q, eps))
    assert _curves_equal(mc.quantile_curve(s, p), ref.quantile_curve(s, p))


@pytest.fixture(scope="module")
def mean_cases():
    # lengths about the leaf of 128, the 8-element unroll and a 2^14 block,
    # and one past 10^6 that no block divides
    rng = np.random.default_rng(29)
    return [toy(rng.lognormal(0.0, 0.5, n), aux=rng.normal(size=n))
            for n in (1, 7, 8, 9, 127, 128, 129, 1000, (1 << 14) - 1, (1 << 14) + 1, 10 ** 6 + 3)]


@pytest.mark.parametrize("block", [1, 7, 1 << 14])
def test_blocked_multiplier_mean_is_the_whole_array_mean(monkeypatch, mean_cases, block):
    # the mean is numpy's pairwise sum of the whole L_eps, replayed one
    # range at a time; a range splits only above max(block, 128) elements,
    # which also ends the recursion at block 1, where n//2 - (n//2) % 8 is
    # 0 below 16 elements
    monkeypatch.setattr(mc, "_BIN_BLOCK", block)
    for s in mean_cases:
        for eps in (0.2, 1.3):
            blocked = mc._multiplier_sum(s, eps, 0, s.n) / s.n
            assert blocked == np.mean(mc._aux_multipliers(s, eps))


def test_dual_curve_leaves_no_reference_to_the_samples():
    # with the cyclic collector off, the samples go as soon as the caller
    # drops them; a recursive closure over them in the blocked mean made a
    # reference cycle that kept them alive until the collector ran
    s, q, _ = _block_case()
    gone = weakref.ref(s)
    gc.disable()
    try:
        mc.dual_curve(s, q, 0.2)
        del s
        assert gone() is None
    finally:
        gc.enable()


def test_in_place_multipliers_match_the_whole_array_expression():
    s, _, _ = _block_case()
    for eps in (0.2, 1.3):
        assert np.array_equal(mc._aux_multipliers(s, eps), ref.aux_multipliers(s, eps))
        est = mc.dual_value_regularized(s, 1.1, eps)
        assert (est.value, est.std_error) == ref.dual_value_regularized(s, 1.1, eps)


@pytest.fixture(scope="module")
def million():
    rng = np.random.default_rng(9)
    return toy(rng.lognormal(0.0, 0.5, 10 ** 6), aux=rng.normal(size=10 ** 6))


# One block of mc._BIN_BLOCK = 2^14 doubles is 0.0164 of the 10^6-sample
# value array.  While a block is binned, dual_curve holds _bin_right's
# first guess, bin index, result and one gathered grid row (about 4.3
# blocks, its masks included) and d = v - cv with its square: 5.4 blocks,
# 0.089 measured at eps = 0.  At eps > 0 the block's L_eps and its
# thresholds v / L add two blocks: 0.122 measured.  L_eps is never whole:
# its mean cL is taken one block at a time (mc._multiplier_sum).  The
# gates leave room for three more blocks (0.049); an L_eps kept whole
# would add 1.0.  The whole-array pass held L, the thresholds, the bins
# and one weight array at once: 3.21.
@pytest.mark.parametrize("eps, bound", [(0.2, 0.17), (0.0, 0.14)])
def test_dual_curve_scratch_is_a_few_blocks(million, eps, bound):
    q = np.linspace(0.0, 3.0, 257)
    _, peak = traced_peak(mc.dual_curve, million, q, eps)
    assert peak < bound * million.values.nbytes


def test_quantile_curve_scratch_is_its_sorted_copy_and_three_block_rows(million):
    # the sorted copy (1.0) and one reused three-row block buffer of prefix
    # sums (3 x 0.0164): 1.05 measured; the gate leaves room for three
    # more blocks.  The whole-array pass held
    # the sorted copy, v - c, its square and a prefix sum at once: 4.00
    _, peak = traced_peak(mc.quantile_curve, million, mc.default_p_grid())
    assert peak < 1.10 * million.values.nbytes
