"""Checks at the scale the project targets: 10^6 Monte Carlo paths and a
256^2 dual-to-primal pipeline.

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

The gbm pipeline on 256 x in [0.5, 2] x 256 q in [0, 8] x 128 t at eps 0.2
solves the dual, conjugates it to the primal at 101 p, writes the primal
to .bin only and verifies what it reads back, each stage through
memory_helpers.traced_peak.  Its bounds are derived in place from the
values measured on a 2-core x86-64 machine (numpy 2.4).

The d=2 gbm dual of the pde-adi benchmark model, b = (0.05, 0.03), s =
diag(0.3, 0.25), g = x1, on 64^2 x in [0.5, 2]^2 x 64 q in [0, 6] x 32 t
at eps 0.2, takes the numeraire route: one eta line, read back on the x1
axis and repeated along x2.  It is checked against the closed form at x0
= (1, 1), for 0 <= w <= q, 0 <= w_q <= 1 and convexity in q at every
node, and for a peak of the one (t, x1, q) block that the surface
repeats along x2, plus the read-back's data of the x1 axis.  Its 41-p
primal is the d=1 transform of the x1 line, repeated along x2 bit for
bit, and passes the verifier.  The market portfolio g = x1 + x2 on that
grid takes the price-ratio route, one d=1 solve on the 127-node ratio
axis x1 / x2, read back onto the d=2 grid; its peak is the surface plus
the read-back's data per target, and it keeps 0 <= w <= q and 0 <= w_q
<= 1 but not convexity in q near T (a strict xfail).  g = x1 forced onto
that route keeps all three.
"""
import numpy as np
import pytest

from memory_helpers import traced_peak
from qhedge import mc, oracles, pde
from qhedge.engine import SimConfig
from qhedge.market import builtin_model, linear_payoff
from qhedge.surfaces import GridSpec, Surface, read_surface_bin, write_surface_bin

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


@pytest.fixture(scope="module")
def pipeline_256(tmp_path_factory):
    model = builtin_model("gbm", b=B, s=S)
    grid = GridSpec.regular(0.0, TAU, 128, 0.5, 2.0, 256, 256, "q", z_max=8.0, epsilon=EPS)
    dual, solve_peak = traced_peak(pde.solve_dual_pde, model, linear_payoff(), grid)
    primal, transform_peak = traced_peak(pde.dual_to_primal, dual, mc.default_p_grid(101))
    path = tmp_path_factory.mktemp("pipeline") / "primal_eps0p2.bin"
    write_surface_bin(primal, path)
    primal = read_surface_bin(path)
    report, verify_peak = traced_peak(pde.verify_supersolution, primal, model, linear_payoff())
    return dual, primal, report, (solve_peak, transform_peak, verify_peak)


def test_256_pipeline_matches_the_smeared_closed_forms_at_x0(pipeline_256):
    # the gbm takes the numeraire route.  Measured at the x node nearest
    # x0 = 1 (0.99729): dual 1.96e-6 over the q nodes, primal 6.36e-6 over
    # the p nodes (the direct solve: 2.20e-5 and 2.41e-5); bounds at 2x
    # each
    dual, primal, _, _ = pipeline_256
    x = dual.grid.x_axes[0]
    i = int(np.argmin(np.abs(x - X0)))
    dual_ref = [oracles.gbm_dual_smeared(x[i], float(q), B, S, TAU, EPS) for q in dual.grid.z]
    primal_ref = [oracles.gbm_primal_smeared(x[i], float(p), B, S, TAU, EPS)
                  for p in primal.grid.z]
    assert dual.meta["route"] == "numeraire"
    assert np.abs(dual.values[0, i] - dual_ref).max() <= 2 * 1.96e-6
    assert np.abs(primal.values[0, i] - primal_ref).max() <= 2 * 6.36e-6


def test_256_pipeline_passes_the_verifier_with_its_margin(pipeline_256):
    # measured: max residual 0.0567 against the default tol 0.0809, a
    # margin of 1.43; the bound allows the max 1.1x, a margin of 1.30
    _, _, report, _ = pipeline_256
    assert report.passed
    assert report.tol == pytest.approx(0.0809, abs=1e-4)
    assert report.max_residual <= 1.1 * 0.0567


def test_256_pipeline_dual_keeps_its_invariants(pipeline_256):
    # measured: 0 nodes outside 0 <= w <= q and 0 enveloped slices, so
    # both bounds are 0
    dual, primal, _, _ = pipeline_256
    w, q = dual.values, dual.grid.z
    assert np.count_nonzero((w < 0.0) | (w > q)) == 0
    assert primal.meta["enveloped_slices"] == 0


def test_256_pipeline_stages_keep_their_memory(pipeline_256):
    # tracemalloc peak of each stage, its result included, measured: the
    # solve 71.5 MB with its 67.1 MB dual surface (1.07x; the direct solve
    # 1.20x), the transform
    # 38.0 MB with its 26.5 MB primal (1.43x), the verifier 2.3 MB (0.087x
    # the primal).  Each bound allows the measured ratio 1.1x
    dual, primal, _, (solve, transform, verify) = pipeline_256
    assert solve <= 1.1 * 1.07 * dual.values.nbytes
    assert transform <= 1.1 * 1.43 * primal.values.nbytes
    assert verify <= 1.1 * 0.087 * primal.values.nbytes


D2_B, D2_S = [0.05, 0.03], [0.3, 0.25]


def d2_64(weights):
    """The d=2 dual of g = weights . x on the 64^2 grid, and its traced peak."""
    model = builtin_model("gbm", b=D2_B, s=D2_S)
    grid = GridSpec.regular(0.0, TAU, 32, [0.5, 0.5], [2.0, 2.0], [64, 64], 64, "q",
                            z_max=6.0, epsilon=EPS)
    return traced_peak(pde.solve_dual_pde, model, linear_payoff(weights), grid)


@pytest.fixture(scope="module")
def routed_d2_64():
    return d2_64([1.0, 0.0])


@pytest.fixture(scope="module")
def market_d2_64():
    return d2_64([1.0, 1.0])


def bounds_and_slopes(dual):
    """Asserts 0 <= w <= q exactly and 0 <= w_q <= 1 to rounding at every
    node; returns the slopes in q."""
    w, q = dual.values, dual.grid.z
    assert np.count_nonzero((w < 0.0) | (w > q)) == 0
    slope = np.diff(w, axis=-1) / np.diff(q)
    assert slope.min() >= -1e-12 and slope.max() <= 1.0 + 1e-12
    return slope


def test_routed_d2_matches_the_closed_form_at_x0(routed_d2_64):
    # Z X1 is lognormal with log-volatility |(s1 - theta1, -theta2)|;
    # measured at the node nearest (1, 1), (0.98906, 0.98906): 2.98e-5
    # over the q nodes, where the direct Douglas solve of the benchmark's
    # 48^2 grid is 3.4e-4 off; the bound is 2x
    dual, _ = routed_d2_64
    assert dual.meta["route"] == "numeraire"
    x = dual.grid.x_axes[0]
    i = int(np.argmin(np.abs(x - X0)))
    vol = float(np.hypot(D2_S[0] - D2_B[0] / D2_S[0], D2_B[1] / D2_S[1]))
    ref = [oracles.gbm_dual_smeared(x[i], float(q), 0.0, vol, TAU, EPS) for q in dual.grid.z]
    assert np.abs(dual.values[0, i, i] - ref).max() <= 2 * 2.98e-5


def test_routed_d2_dual_keeps_its_invariants_everywhere(routed_d2_64):
    # measured: 0 <= w <= q exactly; slopes in [-2.3e-15, 1 + 9.3e-15] and
    # second differences of the slope down to -1.9e-14, rounding, at every
    # node (the direct solve broke them at 41 175 nodes of the 48^2 grid)
    dual, _ = routed_d2_64
    assert dual.meta["route"] == "numeraire"
    slope = bounds_and_slopes(dual)
    assert np.diff(slope, axis=-1).min() >= -1e-12


def test_price_ratio_d2_dual_of_one_stock_keeps_its_invariants_everywhere(monkeypatch):
    # g = x1 on the price-ratio route, with the stock hidden from the
    # numeraire route: the rho solve's doubled eta cells exist for its
    # convexity in q.  Measured: 0 <= w <= q exactly; slopes in [0, 1 +
    # 9.3e-15] and second differences of the slope down to -1.9e-14
    monkeypatch.setattr(pde, "_stock_numeraire", lambda *args: None)
    model = builtin_model("gbm", b=D2_B, s=D2_S)
    grid = GridSpec.regular(0.0, TAU, 32, [0.5, 0.5], [2.0, 2.0], [64, 64], 64, "q",
                            z_max=6.0, epsilon=EPS)
    dual = pde.solve_dual_pde(model, linear_payoff([1.0, 0.0]), grid)
    assert dual.meta["route"] == "price-ratio"
    slope = bounds_and_slopes(dual)
    assert np.diff(slope, axis=-1).min() >= -1e-12


def test_market_portfolio_d2_dual_keeps_its_bounds_and_slopes(market_d2_64):
    # g = x1 + x2 on the price-ratio route; measured 0 <= w <= q exactly
    # and slopes in [0, 1 + 9.3e-15]
    dual, _ = market_d2_64
    assert dual.meta["route"] == "price-ratio"
    bounds_and_slopes(dual)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 6: the price-ratio read breaks "
                   "convexity in q for the market portfolio near T")
def test_market_portfolio_d2_dual_is_convex_in_q_everywhere(market_d2_64):
    # measured: 309 second differences of the slope below -1e-12, down to
    # -1.57e-8, all at the two levels before T, with x1 and x2 above 1.1
    # and q above 5, where w is about q - g
    dual, _ = market_d2_64
    slope = np.diff(dual.values, axis=-1) / np.diff(dual.grid.z)
    assert np.diff(slope, axis=-1).min() >= -1e-12


def test_numeraire_d2_peak_is_the_surface_and_its_x1_targets(routed_d2_64):
    # the 67.1 MB surface is a view that repeats a (32 t, 64 x1, 64 q)
    # block, 1.05 MB, along x2 (stride 0).  The whole peak: the block; per
    # target of the x1 axis (64 x1 nodes times 63 q > 0) the read-back's
    # data, 33 B, and its place in the eight read slabs, 64 B: 0.39 MB;
    # the x mesh and g on it, the eta line's states and numpy's iterator
    # buffers for the surface's min and max, 0.11 MB.  Measured 1.55 MB
    # (64.6 MiB before the block); the bound allows 105 B per target and
    # 0.26 MB, 1.73 MB in all
    dual, peak = routed_d2_64
    assert dual.meta["route"] == "numeraire"
    assert dual.values.strides[2] == 0
    assert peak <= 8 * 32 * 64 * 64 + 105 * 64 * 63 + 260_000


def test_numeraire_d2_pipeline_is_its_x1_line_transformed_and_repeated(routed_d2_64):
    # the 41-p primal of g = x1: the transform conjugates the 64 x1 slices
    # of each level once and repeats them along x2 (stride 0), bit for bit
    # the d=1 transform of the x1 line.  Measured: terminal slice off p x1
    # by 4.4e-16, p second differences down to -4.4e-16; the verifier
    # passes with max residual 0.120 against tol 0.348 over 4 047 732
    # nodes, 0 violations
    dual, _ = routed_d2_64
    p = np.linspace(0.0, 1.0, 41)
    primal = pde.dual_to_primal(dual, p)
    U, x1 = primal.values, primal.grid.x_axes[0]
    assert U.strides[2] == 0
    assert np.abs(U[-1] - x1[:, None, None] * p).max() <= 1e-14
    # every x2 reads the same memory, so the x1 line shows every slice
    assert np.diff(U[:, :, 0], 2, axis=-1).min() >= -1e-12
    line = Surface(GridSpec(dual.grid.t, (x1,), dual.grid.z, "q", EPS), dual.values[:, :, 0],
                   dual.meta)
    d1 = pde.dual_to_primal(line, p)
    assert np.array_equal(U, np.broadcast_to(d1.values[:, :, None], U.shape))
    assert primal.meta["enveloped_slices"] == 64 * d1.meta["enveloped_slices"]
    assert primal.meta["saturated_slices"] == 64 * d1.meta["saturated_slices"]
    report = pde.verify_supersolution(primal, builtin_model("gbm", b=D2_B, s=D2_S),
                                      linear_payoff([1.0, 0.0]))
    assert report.passed and report.n_violations == 0
    assert report.max_residual <= 1.1 * 0.120


def test_routed_d2_peak_is_the_surface_and_its_targets(market_d2_64):
    # the market portfolio, on the price-ratio route.  Beyond the 67.1 MB
    # surface: per target (64^2 x nodes times 63 q > 0) the read-back's
    # index, offset and two bounds, 8 B each, and a flag, 8.5 MB; the eight
    # read slabs, each within _SLAB_BYTES, 2.1 MB; and rho states (189 rho
    # x 175 eta, 0.26 MB): state and -q, increment and eta-first copy, the
    # two sweeps' factors, measured 9.4 in all.  The bound allows nine
    # slabs and 11 rho states
    dual, peak = market_d2_64
    assert dual.meta["route"] == "price-ratio"
    targets = 64 * 64 * 63
    rho_state = 8 * 189 * 175
    assert peak - dual.values.nbytes <= 33 * targets + 9 * pde._SLAB_BYTES + 11 * rho_state
