"""Dual solver, conjugation, residuals, and the supersolution verifier on
small grids; production-scale agreement lives in the acceptance suite."""
import warnings
from dataclasses import asdict

import adi_reference as ref
import numpy as np
import pytest
from memory_helpers import traced_peak

from qhedge import _kernels, oracles, pde
from qhedge.errors import ArgmaxAtBoundary, DimensionUnsupported, DomainMismatch, Nonfinite
from qhedge.market import Payoff, builtin_model, linear_payoff, payoff_from_expression
from qhedge.surfaces import GridSpec, Surface
from surface_helpers import axes_equal, surface_eval, terminal


def radial_grid(n_t=8, n_x=20, n_z=20, eps=0.1, x_min=0.5, x_max=3.0, z_max=3.0):
    return GridSpec.regular(0.0, 1.0, n_t, x_min, x_max, n_x, n_z, "q",
                            z_max=z_max, epsilon=eps)


def test_terminal_slice_is_exact_ramp():
    grid = radial_grid()
    surf = pde.solve_dual_pde(builtin_model("bessel3"), linear_payoff(), grid)
    x = grid.x_axes[0]
    ramp = np.maximum(grid.z[None, :] - x[:, None], 0.0)
    assert np.array_equal(terminal(surf), ramp)
    assert surf.meta["scheme"] == "douglas-adi"
    assert surf.grid.epsilon == 0.1


@pytest.mark.parametrize("kind", ["bessel3", "gbm"])
def test_zero_payoff_keeps_linear_solution_away_from_the_bottom_edge(kind):
    # with g = 0 the terminal data is w = q, which solves the equation, and
    # the discrete operator annihilates q exactly; only the eta axis's
    # bottom edge, v = 0 where w = q, errs, by at most the q it sits at
    model = builtin_model(kind, **({"b": 0.05, "s": 0.3} if kind == "gbm" else {}))
    grid = radial_grid(eps=0.2)
    zero = Payoff(lambda x: np.zeros(x.shape[0]), name="zero")
    err = np.abs(pde.solve_dual_pde(model, zero, grid).values - grid.z)
    assert err.max() <= np.exp(-pde._ETA_MARGIN) * grid.z[1]
    assert err[..., grid.z >= 1.0].max() < 1e-11


def test_interior_matches_heat_equation_closed_form():
    # drift-free constant-volatility model, eps = 0: the dual value is a
    # plain lognormal put, solved here on a modest grid, by the direct
    # solve of the custom twin, whose eta axis has no diffusion at eps = 0,
    # and by the builtin gbm's numeraire route at eps_eff = nu = 0.2, all
    # of it along its one eta line, no coarser than the x axis's log step.
    # Measured: direct 3.2e-4, route 9.5e-5 (7.1e-4 with twice the q
    # axis's cells alone)
    gbm = builtin_model("gbm", b=0.0, s=0.2)
    grid = GridSpec.regular(0.0, 1.0, 24, 0.4, 2.5, 48, 48, "q",
                            z_max=3.0, epsilon=0.0)
    x = grid.x_axes[0]
    for model, route in ((custom_twin(gbm), "direct"), (gbm, "numeraire")):
        surf = pde.solve_dual_pde(model, linear_payoff(), grid)
        assert surf.meta["route"] == route
        for ix in (18, 24, 30):
            for iq in (16, 24, 32):
                got = surf.values[0, ix, iq]
                ref = oracles.gbm_dual(x[ix], grid.z[iq], 0.0, 0.2, 1.0)
                assert got == pytest.approx(ref, abs=5e-4)


def test_interior_matches_radial_smeared_closed_form():
    # a deliberately small domain: several-percent truncation error is the
    # expected scale here, and mesh refinement must push it down
    grid = radial_grid(n_t=16, n_x=40, n_z=40, eps=0.3)
    nodes = [(20, 18), (20, 24), (26, 18), (26, 24)]

    def max_rel_err(surf):
        x = grid.x_axes[0]
        errs = []
        for ix, iq in nodes:
            ref = oracles.bessel_dual_smeared(x[ix], grid.z[iq], 0.3, 1.0)
            errs.append(abs(surf.values[0, ix, iq] - ref) / ref)
        return max(errs)

    coarse = pde.solve_dual_pde(builtin_model("bessel3"), linear_payoff(), grid)
    fine = pde.solve_dual_pde(builtin_model("bessel3"), linear_payoff(), grid,
                              refine=(4, 7, 4))
    assert max_rel_err(coarse) < 0.15
    assert max_rel_err(fine) < 0.08
    assert max_rel_err(fine) < max_rel_err(coarse)


def custom_twin(model):
    """A custom model with the coefficients of a builtin gbm or bessel3, in
    the builtin's arithmetic: the same problem, which no numeraire route
    takes, so it is solved directly on (x, eta)."""
    if model.kind == "bessel3":
        return builtin_model("custom", dim=1, b_exprs=["1/(x1*x1)"], s_exprs=[["1/x1"]])
    b, s = model.params["b"], model.params["s"]
    return builtin_model("custom", dim=model.dim, b_exprs=[repr(float(v)) for v in b],
                         s_exprs=[[repr(float(v)) for v in row] for row in s])


def gbm_twin(b, s):
    """The custom twin of the gbm (b, s)."""
    return custom_twin(builtin_model("gbm", b=b, s=s))


def test_one_substep_and_no_warning_on_default_grids():
    # the radial model's x-q correlation 1/sqrt(1 + eps^2 x^2) approaches 1
    # at small x; in characteristic coordinates there is no x-eta term, so
    # this grid, which used to need x8 substeps, takes one like any other.
    # Each builtin takes a numeraire route (g = x1, in d = 1 and d = 2: the
    # eta axis alone; the market portfolio in d = 2: the price ratio), its
    # custom twin, with the same coefficients, the direct Douglas solve
    bessel3, gbm = builtin_model("bessel3"), builtin_model("gbm", b=0.05, s=0.3)
    d2 = builtin_model("gbm", b=[0.05, 0.03], s=[[0.3, 0.1], [0.0, 0.25]])
    d2_grid = GridSpec.regular(0.0, 1.0, 6, [0.5, 0.5], [2.0, 2.0], [10, 10], 12, "q",
                               z_max=6.0, epsilon=0.2)
    cases = [
        (bessel3, linear_payoff(),
         radial_grid(n_t=6, n_x=16, n_z=16, eps=0.1, x_min=0.25, x_max=4.0)),
        (bessel3, linear_payoff(),
         GridSpec.regular(0.0, 1.0, 8, 0.25, 2.0, 16, 16, "q", z_max=8.0, epsilon=0.2)),
        (gbm, linear_payoff(), radial_grid(eps=0.2)),
        (d2, linear_payoff(), d2_grid),
        (d2, linear_payoff([1.0, 1.0]), d2_grid),
    ]
    routes = []
    for model, payoff, grid in cases:
        for solved in (model, custom_twin(model)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                surf = pde.solve_dual_pde(solved, payoff, grid)
            assert surf.meta["substeps"] == 1
            assert np.all(np.isfinite(surf.values))
            routes.append(surf.meta["route"])
    assert routes == ["numeraire", "direct"] * 4 + ["price-ratio", "direct"]


def test_no_substeps_for_mild_correlation():
    model = builtin_model("gbm", b=0.1, s=0.2)
    grid = radial_grid(n_t=6, n_x=16, n_z=16, eps=0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        surf = pde.solve_dual_pde(model, linear_payoff(), grid)
    assert surf.meta["substeps"] == 1


def _window_error(surf, ref, x_window, q_window):
    """max |w(t0) - ref| over the requested nodes inside the windows."""
    x, q = surf.grid.x_axes[0], surf.grid.z
    xi = (x >= x_window[0]) & (x <= x_window[1])
    qi = (q >= q_window[0]) & (q <= q_window[1])
    want = np.array([[ref(xx, qq) for qq in q[qi]] for xx in x[xi]])
    return np.abs(surf.values[0][np.ix_(xi, qi)] - want).max()


def order_case(kind):
    """The builtin model of `kind` and its smeared closed form at eps 0.2."""
    if kind == "gbm":
        return (builtin_model("gbm", b=0.05, s=0.3),
                lambda x, q: oracles.gbm_dual_smeared(x, q, 0.05, 0.3, 1.0, 0.2))
    return builtin_model("bessel3"), lambda x, q: oracles.bessel_dual_smeared(x, q, 0.2, 1.0)


ORDER_GRID = GridSpec.regular(0.0, 1.0, 17, 0.5, 2.0, 33, 33, "q", z_max=8.0, epsilon=0.2)


def order_ladder(model, ref):
    """The window error at t0 at refine 1, 2, 4 on ORDER_GRID, and the
    observed orders: the eta axis keeps its ends, so every spacing halves.
    The x pad is widened until the x edges err below the finest level; the
    window stays clear of the edges and of the smallest q, and the t0
    slice has no kink left."""
    surfs = [pde.solve_dual_pde(model, linear_payoff(), ORDER_GRID, refine=r, pad=(16, 12))
             for r in (1, 2, 4)]
    errs = np.array([_window_error(s, ref, (0.7, 1.45), (0.25, 4.0)) for s in surfs])
    return surfs, errs, np.log2(errs[:-1] / errs[1:])


@pytest.mark.parametrize("kind", ["gbm", "bessel3"])
def test_observed_order_is_two(kind):
    # the direct solve, on the custom twin of each builtin
    model, ref = order_case(kind)
    surfs, errs, orders = order_ladder(custom_twin(model), ref)
    assert {s.meta["route"] for s in surfs} == {"direct"}
    assert np.all(orders >= 1.7), (errs, orders)


@pytest.mark.parametrize("kind", ["gbm", "bessel3"])
def test_numeraire_route_converges_to_the_closed_form(kind):
    # the eta axis alone, read back as w = x f(t, q / x), on the ladder of
    # the direct solve; eta is sized by the x axis's log step here, and the
    # kink of the terminal data sits mid-cell at every level.  Measured:
    # gbm 1.70e-4, 4.26e-5, 1.07e-5 (observed orders 2.00, 1.99); bessel3
    # 1.89e-4, 4.79e-5, 1.21e-5 (1.98, 1.99).  The x parts of pad and
    # refine act on nothing there, and are recorded
    model, ref = order_case(kind)
    surfs, errs, orders = order_ladder(model, ref)
    assert [s.meta["route"] for s in surfs] == ["numeraire"] * 3
    assert [s.meta["pad"] for s in surfs] == [[16, 12]] * 3
    assert [s.meta["refine"] for s in surfs] == [[r] * 3 for r in (1, 2, 4)]
    assert errs[-1] <= 2.5e-5
    assert np.all(orders >= 1.8), (errs, orders)


def test_numeraire_route_and_direct_twin_agree_within_the_direct_error():
    # at the default pad, on the grid of the ladders, over their window:
    # the route and the direct solve of the custom twin differ by less than
    # the direct solve's own error against the closed form.  Measured: gbm
    # route 1.70e-4, direct 1.05e-3, gap 1.00e-3; bessel3 route 1.89e-4,
    # direct 5.62e-3, gap 5.58e-3
    for kind in ("gbm", "bessel3"):
        model, ref = order_case(kind)
        routed = pde.solve_dual_pde(model, linear_payoff(), ORDER_GRID)
        direct = pde.solve_dual_pde(custom_twin(model), linear_payoff(), ORDER_GRID)
        assert (routed.meta["route"], direct.meta["route"]) == ("numeraire", "direct")
        x, q = ORDER_GRID.x_axes[0], ORDER_GRID.z
        window = np.ix_((x >= 0.7) & (x <= 1.45), (q >= 0.25) & (q <= 4.0))
        direct_err = _window_error(direct, ref, (0.7, 1.45), (0.25, 4.0))
        assert np.abs(routed.values[0][window] - direct.values[0][window]).max() <= direct_err


def test_numeraire_route_needs_g_proportional_to_x_on_the_direct_solve_mesh():
    # min(x1, x_max) is x1 on every requested node, but not on the pad that
    # the direct solve evaluates g on: the route would drop the cap there,
    # so the input is solved directly.  With no x pad the direct solve's
    # mesh is the requested one, g = x1 on all of it, and the route solves
    # the same problem
    grid = GridSpec.regular(0.0, 1.0, 8, 0.25, 2.0, 16, 16, "q", z_max=8.0, epsilon=0.2)
    capped = payoff_from_expression("minimum(x1, 2.0)", 1)
    for model in (builtin_model("bessel3"), builtin_model("gbm", b=0.05, s=0.3)):
        assert pde.solve_dual_pde(model, capped, grid).meta["route"] == "direct"
        assert pde.solve_dual_pde(model, capped, grid, pad=(4, 6)).meta["route"] == "direct"
        unpadded = pde.solve_dual_pde(model, capped, grid, pad=(0, 6))
        assert unpadded.meta["route"] == "numeraire"
        assert np.array_equal(unpadded.values,
                              pde.solve_dual_pde(model, linear_payoff(), grid, pad=(0, 6)).values)


def test_bessel3_error_at_x0_on_the_benchmark_grid():
    # the grid of the pde-adi benchmark workload, where the explicit x-q
    # cross term used to leave a 0.037 bias at x0 = 1.  The builtin takes
    # the numeraire route, its custom twin the direct solve.  Measured:
    # route 1.89e-5, direct 1.02e-4
    grid = GridSpec.regular(0.0, 1.0, 32, 0.25, 2.0, 64, 64, "q", z_max=8.0, epsilon=0.2)
    x = grid.x_axes[0]
    i0 = int(np.argmin(np.abs(x - 1.0)))
    ref = np.array([oracles.bessel_dual_smeared(x[i0], q, 0.2, 1.0) for q in grid.z])
    errs = {}
    for model in (builtin_model("bessel3"), custom_twin(builtin_model("bessel3"))):
        surf = pde.solve_dual_pde(model, linear_payoff(), grid, refine=2)
        errs[surf.meta["route"]] = np.abs(surf.values[0, i0] - ref).max()
        assert surf.meta["substeps"] == 1
    assert errs["direct"] <= 5e-3
    assert errs["numeraire"] <= 0.3 * errs["direct"]


@pytest.mark.xfail(strict=True, reason="the solver picks a solution above the smallest "
                   "where the deflator is a strict local martingale (ROADMAP item 1)")
def test_bessel3_claim_of_one_is_the_smallest_solution():
    # the paper's own case: Z = x/X is a strict local martingale, so a
    # claim of one costs E[Z_T] = 2 Phi(x / sqrt(tau)) - 1 < 1 at p = 1
    # (oracles.bessel_unit_quantile_value), 0.6720 at the node x = 0.978.
    # Measured: the solver's primal reads 1.0000 there
    grid = GridSpec.regular(0.0, 1.0, 32, 0.25, 4.0, 64, 128, "q", z_max=20.0, epsilon=0.0)
    one = Payoff(lambda x: np.ones(x.shape[0]), "one")
    dual = pde.solve_dual_pde(builtin_model("bessel3"), one, grid)
    primal = pde.dual_to_primal(dual, np.linspace(0.0, 1.0, 101))
    x = grid.x_axes[0]
    i = int(np.argmin(np.abs(x - 1.0)))
    assert abs(primal.values[0, i, -1] - oracles.bessel_unit_quantile_value(x[i], 1.0, 1.0)) <= 0.01


def test_custom_constant_model_matches_builtin_gbm():
    # the custom model's phase is a cumulative trapezoid of a psi that is
    # constant up to rounding, so it agrees with gbm's to rounding as well.
    # With g = x1 + 0.1, which is not c x1, both take the direct solve
    grid = radial_grid(n_t=8, n_x=20, n_z=24, eps=0.2, z_max=4.0)
    payoff = payoff_from_expression("x1 + 0.1", 1)
    gbm = pde.solve_dual_pde(builtin_model("gbm", b=0.05, s=0.3), payoff, grid)
    custom = pde.solve_dual_pde(
        builtin_model("custom", dim=1, b_exprs=["0.05"], s_exprs=[["0.3"]]), payoff, grid)
    assert gbm.meta["route"] == custom.meta["route"] == "direct"
    assert np.abs(custom.values - gbm.values).max() <= 1e-10


def test_custom_state_dependent_d1_converges_at_second_order():
    # a custom d = 1 model whose psi = b / s^2 varies with x: its phase is a
    # second-order quadrature, and the surface still settles at order 2
    model = builtin_model("custom", dim=1, b_exprs=["0.05 + 0.02 * x1"],
                          s_exprs=[["0.25 + 0.05 * x1"]])
    grid = GridSpec.regular(0.0, 1.0, 17, 0.5, 2.0, 33, 33, "q", z_max=8.0, epsilon=0.2)
    x, q = grid.x_axes[0], grid.z
    window = np.ix_((x >= 0.7) & (x <= 1.45), (q >= 0.25) & (q <= 4.0))
    surfs = [pde.solve_dual_pde(model, linear_payoff(), grid, refine=r, pad=(16, 12))
             for r in (1, 2, 4)]
    steps = [np.abs(b.values[0][window] - a.values[0][window]).max()
             for a, b in zip(surfs, surfs[1:])]
    assert np.log2(steps[0] / steps[1]) >= 1.7


def test_custom_d2_state_dependent_model_is_unsupported():
    # (s s')^{-1} b varies with x here, so it need not be a gradient and
    # the phase of the characteristic coordinates is not built
    model = builtin_model("custom", dim=2, b_exprs=["0.05", "0.03 * x1"],
                          s_exprs=[["0.3", "0"], ["0", "0.25"]])
    grid = GridSpec.regular(0.0, 1.0, 4, [0.5, 0.5], [2.0, 2.0], [6, 6], 6, "q",
                            z_max=4.0, epsilon=0.2)
    with pytest.raises(DimensionUnsupported):
        pde.solve_dual_pde(model, linear_payoff(), grid)


def sweep_cases():
    """The custom twin of bessel3 on a d=1 grid that used to need x8
    substeps, the custom twin of a d=2 gbm with a full volatility matrix
    (so the x1-x2 term is live) on unequal x axes, where the gbm itself
    would take the numeraire route, and the eta axis alone: a d=1 gbm with
    g = x1 on the numeraire route, where nu = 0.133 smears eta too."""
    d2 = gbm_twin([0.05, 0.03], [[0.3, 0.1], [0.0, 0.25]])
    return [
        (custom_twin(builtin_model("bessel3")), linear_payoff(),
         radial_grid(n_t=6, n_x=16, n_z=16, eps=0.1, x_min=0.25, x_max=4.0), {}),
        (d2, linear_payoff(),
         GridSpec.regular(0.0, 1.0, 6, [0.5, 0.6], [2.0, 1.8], [12, 10], 16, "q",
                          z_max=4.0, epsilon=0.2), {"refine": (1, 1, 2)}),
        (builtin_model("gbm", b=0.05, s=0.3), linear_payoff(),
         radial_grid(n_t=6, n_x=16, n_z=16, eps=0.1, x_min=0.25, x_max=4.0),
         {"refine": (1, 1, 2)}),
    ]


SWEEP_IDS = ["bessel3-d1", "gbm-d2", "eta-only"]


@pytest.mark.parametrize("case", range(3), ids=SWEEP_IDS)
def test_factored_sweeps_match_the_per_node_reference(monkeypatch, case):
    model, payoff, grid, kw = sweep_cases()[case]
    got = pde.solve_dual_pde(model, payoff, grid, **kw)
    monkeypatch.setattr(pde._DualOperator, "sweep", ref.sweep)
    want = pde.solve_dual_pde(model, payoff, grid, **kw)
    assert got.meta == want.meta
    assert got.meta["substeps"] == 1
    assert np.abs(got.values - want.values).max() <= 1e-11


def drift_dominated_grid(n_t):
    """64 x in [0.5, 2], 64 q in [0, 8] at eps 0.05, where the gbm (b 0.5,
    s 0.1) has b / s^2 = 50."""
    return radial_grid(n_t=n_t, n_x=64, n_z=64, eps=0.05, x_min=0.5, x_max=2.0, z_max=8.0)


@pytest.mark.parametrize("n_t, dominant", [(8, True), (7, False)])
def test_drift_dominated_eta_sweep_matches_the_pivoting_reference(monkeypatch, n_t, dominant):
    # at b/s^2 = 50 and eps = 0.05 the eta drift outweighs its diffusion:
    # with 8 time nodes the eta sweep's rows keep diagonal dominance by a
    # slack of only 6e-4, with 7 they lose it, where the kernel, which does
    # not pivot, is no longer backed by dominance.  It must then match the
    # reference, which pivots, or raise; never return a surface of its own.
    # The surfaces themselves break w <= q on this grid (by up to 4.6 and
    # 4.9), so the 1e-11 is taken relative to their size.  The direct
    # solve, on the custom twin of the gbm: on the numeraire route the
    # drift is folded into eps_eff = 4.9, and eta has no such drift
    model = custom_twin(builtin_model("gbm", b=0.5, s=0.1))
    grid = drift_dominated_grid(n_t)
    slack = []
    factor_lines = _kernels.factor_lines

    def spy(lo, di, up, label):
        if label.startswith("eta"):
            l, u = (np.array(np.broadcast_to(a, di.shape)) for a in (lo, up))
            l[0] = u[-1] = 0.0
            slack.append(float((np.abs(di) - np.abs(l) - np.abs(u)).min()))
        return factor_lines(lo, di, up, label)

    monkeypatch.setattr(_kernels, "factor_lines", spy)
    try:
        got = pde.solve_dual_pde(model, linear_payoff(), grid)
    except Nonfinite as err:
        assert "eta sweep" in str(err)
        return
    assert len(slack) == 1 and (slack[0] > 0.0) == dominant
    assert got.meta["route"] == "direct"
    monkeypatch.setattr(pde._DualOperator, "sweep", ref.sweep)
    want = pde.solve_dual_pde(model, linear_payoff(), grid)
    scale = max(1.0, np.abs(want.values).max())
    assert np.abs(got.values - want.values).max() <= 1e-11 * scale


def nodes_above_q(model, n_ts=(8, 16, 32, 64)):
    """The nodes with w > q of the drift-dominated dual at each n_t."""
    counts = []
    for n_t in n_ts:
        grid = drift_dominated_grid(n_t)
        counts.append(int(np.count_nonzero(
            pde.solve_dual_pde(model, linear_payoff(), grid).values > grid.z)))
    return counts


def test_drift_dominated_gbm_keeps_w_at_most_q_on_the_numeraire_route():
    # the builtin gbm takes the numeraire route, whose one eta line has no
    # drift: b and s enter through eps_eff = 4.9 alone.  Measured: 0 nodes
    # with w > q at n_t 8, 16, 32 and 64
    model = builtin_model("gbm", b=0.5, s=0.1)
    assert pde.solve_dual_pde(model, linear_payoff(),
                              drift_dominated_grid(8)).meta["route"] == "numeraire"
    assert nodes_above_q(model) == [0, 0, 0, 0]


@pytest.mark.xfail(strict=True, reason="the direct solve's central eta drift outweighs its "
                   "diffusion and leaves w > q (ROADMAP item 5)")
def test_drift_dominated_custom_twin_keeps_w_at_most_q():
    # the same problem on the direct solve, whose eta drift is a central
    # difference, monotone only while |ce1| <= ce2.  Measured: 182, 366,
    # 466 and 502 nodes with w > q at n_t 8, 16, 32 and 64, by up to 4.6
    assert nodes_above_q(custom_twin(builtin_model("gbm", b=0.5, s=0.1))) == [0, 0, 0, 0]


@pytest.mark.parametrize("case", range(3), ids=SWEEP_IDS)
def test_delta_form_matches_the_standard_form(monkeypatch, case):
    # the step in delta form solves for the increment; the standard form
    # predicts values and corrects them axis by axis, each sweep less th
    # times its own explicit term.  The same Douglas scheme, x1-x2 term
    # included on the d=2 case
    model, payoff, grid, kw = sweep_cases()[case]
    got = pde.solve_dual_pde(model, payoff, grid, **kw)
    monkeypatch.setattr(pde._DualOperator, "substep", ref.substep)
    want = pde.solve_dual_pde(model, payoff, grid, **kw)
    assert got.meta == want.meta
    assert np.abs(got.values - want.values).max() <= 1e-11


@pytest.mark.parametrize("case", range(3), ids=SWEEP_IDS)
def test_half_step_halves_the_increment_bit_for_bit(monkeypatch, case):
    # the operator is built for one step length h: a Rannacher half step
    # takes the increment of h and halves it, and sweeps at th = h / 2 like
    # a Crank-Nicolson step.  The step of length h / 2 with theta 1, its
    # stencil and factors rebuilt for that length, is the same step: the
    # halving is exact, and theta h' = h / 2 on both kinds of step
    model, payoff, grid, kw = sweep_cases()[case]
    got = pde.solve_dual_pde(model, payoff, grid, **kw)
    monkeypatch.setattr(pde._DualOperator, "substep", ref.substep_of_length)
    want = pde.solve_dual_pde(model, payoff, grid, **kw)
    assert got.meta == want.meta
    assert np.array_equal(got.values, want.values)


@pytest.mark.parametrize("case", range(3), ids=SWEEP_IDS)
def test_edge_relations_hold_after_apply_bc(monkeypatch, case):
    # every state W = w - q a substep starts from, the terminal data and
    # the states the projection onto w >= 0 clipped included, satisfies the
    # edge relations on every line a sweep folds: linear at the x edges,
    # repeated at the eta top, -q at the eta bottom; so the sweeps on the
    # increment have nothing beyond their ends
    model, payoff, grid, kw = sweep_cases()[case]
    seen = []
    substep = pde._DualOperator.substep

    def record(op, W, half):
        seen.append((op, W.copy()))
        return substep(op, W, half)

    monkeypatch.setattr(pde._DualOperator, "substep", record)
    pde.solve_dual_pde(model, payoff, grid, **kw)
    op = seen[0][0]
    inner = (slice(1, -1),) * op.d

    def residuals(W):
        # the node beyond each end is a near + b far, on every x axis and at
        # the eta top; the eta bottom holds -q
        for axis, ((a0, b0), (a1, b1)) in enumerate(op.ends):
            Wa = np.moveaxis(W, axis, 0)
            if axis < op.d:
                yield (a0 * Wa[1] + b0 * Wa[2] - Wa[0])[inner]
            yield (a1 * Wa[-2] + b1 * Wa[-3] - Wa[-1])[inner]
        yield (W[..., 0] - op.neg_q[..., 0])[inner]

    steps = (grid.t.size - 1) * kw.get("refine", (1, 1, 1))[2]
    assert len(seen) == steps + pde._RANNACHER_STEPS
    for _, W in seen:
        scale = np.abs(W).max()
        assert all(np.abs(r).max() <= 1e-12 * scale for r in residuals(W))


@pytest.mark.parametrize("case", range(3), ids=SWEEP_IDS)
def test_one_factorization_and_one_solve_per_sweep(monkeypatch, case):
    # the Rannacher half steps and the Crank-Nicolson steps share one th,
    # so each sweep is factored once, and solved by one call per substep,
    # never per node
    model, payoff, grid, kw = sweep_cases()[case]
    factored, solves, sweep_of = {}, {}, {}
    factor_lines, thomas_batch = _kernels.factor_lines, _kernels.thomas_batch

    def counting_factor(lo, di, up, label):
        sweep = label.split(" sweep")[0]
        factored[sweep] = factored.get(sweep, 0) + 1
        out = factor_lines(lo, di, up, label)
        sweep_of[id(out)] = sweep
        return out

    def counting_solve(factors, rhs):
        sweep = sweep_of[id(factors)]
        solves[sweep] = solves.get(sweep, 0) + 1
        return thomas_batch(factors, rhs)

    monkeypatch.setattr(_kernels, "factor_lines", counting_factor)
    monkeypatch.setattr(_kernels, "thomas_batch", counting_solve)
    surf = pde.solve_dual_pde(model, payoff, grid, **kw)
    # the numeraire route has no x axis to sweep
    x_axes = 0 if surf.meta["route"] == "numeraire" else grid.dim
    sweeps = [f"x axis {i}" for i in range(x_axes)] + ["eta"]
    steps = (grid.t.size - 1) * surf.meta["refine"][2]
    substeps = steps + min(surf.meta["rannacher_steps"], steps)
    assert factored == {sweep: 1 for sweep in sweeps}
    assert solves == {sweep: substeps for sweep in sweeps}


def read_cases():
    """The sweep cases, and a d=2 gbm on equal x axes, which takes the
    price-ratio route: its read scales the state by x2 and reads it at q /
    x2."""
    routed = (builtin_model("gbm", b=[0.05, 0.03], s=[[0.3, 0.1], [0.0, 0.25]]),
              linear_payoff([0.5, 1.0]),
              GridSpec.regular(0.0, 1.0, 6, [0.5, 0.5], [2.0, 2.0], [11, 11], 16, "q",
                               z_max=4.0, epsilon=0.2), {})
    return sweep_cases() + [routed]


READ_IDS = SWEEP_IDS + ["gbm-d2-ratio"]


@pytest.mark.parametrize("case", range(4), ids=READ_IDS)
def test_slabs_do_not_move_the_surface(monkeypatch, case):
    # explicit and read work one slab of the first x axis at a time; the
    # slab sizes below split it into one-row slabs, unevenly with a
    # remainder slab, and into one slab, for both passes.  With no x axis
    # (eta-only) the explicit pass is one slab, and only read splits.
    # Every surface is the one of the default slab size, and of the
    # whole-level passes, bit for bit
    model, payoff, grid, kw = read_cases()[case]
    kw = {"refine": 2} if case == 0 else kw
    want = pde.solve_dual_pde(model, payoff, grid, **kw)
    passes = 1 if want.meta["route"] == "numeraire" else 2
    want = want.values.tobytes()
    splits = []
    slab_rows = pde._slab_rows

    def spy(shape):
        rows = slab_rows(shape)
        splits.append((shape[0], rows))
        return rows

    monkeypatch.setattr(pde, "_slab_rows", spy)
    for slab_bytes in (1, 1400, 6000, 1 << 30):
        monkeypatch.setattr(pde, "_SLAB_BYTES", slab_bytes)
        assert pde.solve_dual_pde(model, payoff, grid, **kw).values.tobytes() == want
    # one call for the explicit pass, then one for the read-back, per solve
    for calls in (splits[i::passes] for i in range(passes)):
        assert any(rows < n and n % rows for n, rows in calls)
        assert any(rows >= n for n, rows in calls)
    monkeypatch.setattr(pde._DualOperator, "explicit", ref.explicit)
    monkeypatch.setattr(pde._DualOperator, "read", ref.read)
    assert pde.solve_dual_pde(model, payoff, grid, **kw).values.tobytes() == want


@pytest.mark.parametrize("case", range(4), ids=READ_IDS)
def test_read_back_is_exact_on_the_slope_one_tail(monkeypatch, case):
    # the dual's tail w = q + c(x) is the state W = w - q = c(x), which
    # reads back as q + c exactly on every requested node, clamped at 0:
    # the stencil's differences are 0, and so are the cubic's and the
    # chords' terms.  The state also takes a term -beta eta, convex in q,
    # that the cubic reproduces and under which the clamp does not bind;
    # there the offsets u carry the rounding of log q, a few ulps.  On the
    # price-ratio route a target reads x2 (c - beta eta) + q at eta = log
    # (q / x2) - phi, on the numeraire route x (c - beta eta) + q at eta =
    # log (q / x)
    model, payoff, grid, kw = read_cases()[case]
    ops = []
    read = pde._DualOperator.read

    def record(op, W, out):
        ops.append(op)
        read(op, W, out)

    monkeypatch.setattr(pde._DualOperator, "read", record)
    pde.solve_dual_pde(model, payoff, grid, **kw)
    op = ops[0]
    # c and phi at the x node of each requested node, from its stencil's
    # flat index
    node = op.start // op.eta.size
    c = np.cos(3.0 * op.phi) - op.gx
    q = grid.z[op.first:]
    ulp = np.spacing(grid.z[-1])
    out = np.empty(grid.shape[1:])
    for beta, tol in ((0.0, 0.0), (0.5, 8 * ulp)):
        W = c[..., None] - beta * op.eta
        want = np.zeros(grid.shape[1:])
        eta = np.log(q / op.scale) - op.phi.ravel()[node]
        want[..., op.first:] = np.maximum(q + op.scale * (c.ravel()[node] - beta * eta), 0.0)
        op.read(W, out)
        assert np.abs(out - want).max() <= tol


def test_d2_solve_memory_is_bounded_by_its_buffers(monkeypatch):
    # the direct solve, on the custom twin of a gbm.  Beyond the surface it
    # returns, the d=2 solve holds, in state arrays W
    # (an interior array counted as W): the state, 1, and -q, 1; the
    # increment and its eta-first copy, 2, whose memory the read-back's
    # slabs share; the eta sweep's factors, 3; per requested node the
    # read-back's index, offset and two bounds, 4 x 0.7 (a level has 31 q
    # > 0 where W has 44 eta nodes), and a flag, 0.1.  That is 9.9 W.  It
    # peaks where a substep adds the eta-first increment into the state:
    # numpy's iterator buffers for that add, about 190 kB whatever the
    # size, are 0.9 W of this small grid, so 10.8 W; the x factors at their
    # bands' shape, the stencil's coefficients and the one-row product
    # slab add under 0.2 W, so 11 W.  Measured: 10.6 W, where 14.5 W with
    # lane-shaped x factors and 18.6 W with the whole-level read
    monkeypatch.setattr(pde, "_SLAB_BYTES", 1)
    model = gbm_twin([0.05, 0.03], [[0.3, 0.0], [0.0, 0.25]])
    grid = GridSpec.regular(0.0, 1.0, 6, [0.5, 0.5], [2.0, 2.0], [24, 24], 32, "q",
                            z_max=6.0, epsilon=0.2)
    states = []
    apply_bc = pde._DualOperator.apply_bc

    def record(op, W):
        states.append(W.nbytes)
        apply_bc(op, W)

    monkeypatch.setattr(pde._DualOperator, "apply_bc", record)
    surf, peak = traced_peak(pde.solve_dual_pde, model, linear_payoff(), grid)
    assert surf.meta["route"] == "direct"
    assert peak - surf.values.nbytes <= 11 * states[0]


def test_routed_d2_solve_memory_is_its_targets_read_data_and_rho_states(monkeypatch):
    # the price-ratio route, for the market portfolio g = x1 + x2 on the
    # grid above, holds no state on the d=2 mesh (the direct solve's is
    # 8.4 rho states W here).  Beyond the surface: per target (24^2 x
    # nodes times 31 q > 0) the read-back's index, offset and two bounds,
    # 8 B each, and a flag, 1 B; and in rho states W (69 rho x 87 eta): the
    # state and -q, 2; the increment and its eta-first copy, 2, which the
    # eight one-row read slabs (1.0 W) share; the rho and eta sweeps'
    # factors, 3 each (d = 1 keeps the rho factors' lanes); numpy's
    # iterator buffers for the eta-first add, about 190 kB, 4 W.  That is
    # 14 W; measured 14.07 W
    monkeypatch.setattr(pde, "_SLAB_BYTES", 1)
    model = builtin_model("gbm", b=[0.05, 0.03], s=[0.3, 0.25])
    grid = GridSpec.regular(0.0, 1.0, 6, [0.5, 0.5], [2.0, 2.0], [24, 24], 32, "q",
                            z_max=6.0, epsilon=0.2)
    states = []
    apply_bc = pde._DualOperator.apply_bc

    def record(op, W):
        states.append(W.nbytes)
        apply_bc(op, W)

    monkeypatch.setattr(pde._DualOperator, "apply_bc", record)
    surf, peak = traced_peak(pde.solve_dual_pde, model, linear_payoff([1.0, 1.0]), grid)
    assert surf.meta["route"] == "price-ratio"
    assert states[0] == 8 * 69 * 87
    targets = 24 * 24 * 31
    assert peak - surf.values.nbytes <= 33 * targets + 15 * states[0]


@pytest.mark.parametrize("weights", [[1.0, 0.0], [0.0, 2.0]])
def test_numeraire_d2_solve_memory_is_the_surface_and_one_axis_of_targets(monkeypatch, weights):
    # g = x1 (or 2 x2) on the grid above takes the numeraire route: one eta
    # line (99 nodes), and the targets of the stock's axis alone, 24 x
    # nodes times 31 q > 0, read into one line of a level that repeats
    # along the other axis.  Beyond the surface: per such target the
    # read-back's data, 33 B; the line, 8 B per (x, q) node; numpy's
    # iterator buffers for the terminal level, 130 kB whatever the size;
    # the eta line's states and g on the x mesh, under 20 kB.  Measured
    # 182 kB; the bound allows 170 kB for what does not grow with the
    # targets
    monkeypatch.setattr(pde, "_SLAB_BYTES", 1)
    model = builtin_model("gbm", b=[0.05, 0.03], s=[0.3, 0.25])
    grid = GridSpec.regular(0.0, 1.0, 6, [0.5, 0.5], [2.0, 2.0], [24, 24], 32, "q",
                            z_max=6.0, epsilon=0.2)
    surf, peak = traced_peak(pde.solve_dual_pde, model, linear_payoff(weights), grid)
    assert surf.meta["route"] == "numeraire"
    assert peak - surf.values.nbytes <= 33 * 24 * 31 + 8 * 24 * 32 + 170_000


def test_refinement_and_padding_controls():
    # the direct solve, on the custom twin of a gbm
    model = custom_twin(builtin_model("gbm", b=0.1, s=0.2))
    grid = radial_grid(n_t=6, n_x=14, n_z=14, eps=0.2)
    base = pde.solve_dual_pde(model, linear_payoff(), grid)
    fine = pde.solve_dual_pde(model, linear_payoff(), grid, refine=2)
    assert axes_equal(fine.grid, base.grid)
    assert np.array_equal(terminal(fine), terminal(base))
    assert fine.meta["refine"] == [2, 2, 2]
    assert fine.meta["route"] == "direct"
    # refinement changes interior values only modestly on a smooth problem
    delta = np.abs(fine.values[0] - base.values[0]).max()
    assert 0.0 < delta < 0.05
    bare = pde.solve_dual_pde(model, linear_payoff(), grid, pad=0)
    assert bare.meta["pad"] == [0, 0]
    mid = (slice(5, 9), slice(5, 9))
    assert np.allclose(bare.values[0][mid], base.values[0][mid], atol=2e-2)
    with pytest.raises(ValueError):
        pde.solve_dual_pde(model, linear_payoff(), grid, refine=0)
    with pytest.raises(ValueError):
        pde.solve_dual_pde(model, linear_payoff(), grid, pad=(2, -1))


def test_domain_and_dimension_guards():
    model = builtin_model("bessel3")
    pgrid = GridSpec.regular(0.0, 1.0, 4, 0.5, 2.0, 6, 6, "p", epsilon=0.1)
    with pytest.raises(DomainMismatch):
        pde.solve_dual_pde(model, linear_payoff(), pgrid)
    with pytest.raises(ValueError):
        grid2 = GridSpec.regular(0.0, 1.0, 4, [0.5, 0.5], [2.0, 2.0],
                                 [6, 6], 6, "q", z_max=2.0)
        pde.solve_dual_pde(model, linear_payoff(), grid2)


def test_dual_to_primal_terminal_and_shape():
    grid = radial_grid(n_t=6, n_x=16, n_z=32, eps=0.1, z_max=4.0)
    surf = pde.solve_dual_pde(builtin_model("bessel3"), linear_payoff(), grid)
    p_grid = np.linspace(0.0, 1.0, 41)
    primal = pde.dual_to_primal(surf, p_grid)
    assert primal.grid.domain == "p"
    assert primal.grid.z.size == 41
    x = grid.x_axes[0]
    # terminal slice is p g(x) through the conjugate of the exact ramp
    ref = p_grid[None, :] * x[:, None]
    assert np.max(np.abs(terminal(primal) - ref)) < 1e-12
    # monotone in p everywhere; convex in p up to the small conjugation
    # wrinkle the coarse q grid leaves near the flat region at low p
    d1 = np.diff(primal.values, axis=-1)
    assert d1.min() >= -1e-12
    d2 = np.diff(primal.values[:, 2:-2, :], n=2, axis=-1)
    assert d2.min() >= -5e-3
    # values stay nonnegative; the saturation row is q_max - w(q_max),
    # which lies below the superhedge cost x (w(q) >= q - x) and tends to
    # it as q_max grows; it matches the closed form's value
    assert primal.values.min() >= -1e-12
    sat = primal.values[..., -1]
    tau = grid.t[-1] - grid.t
    exact = np.array([[grid.z[-1] - oracles.bessel_dual_smeared(xx, grid.z[-1], 0.1, tt)
                       for xx in x] for tt in tau])
    assert np.abs(sat - exact).max() <= 5e-3
    with pytest.raises(DomainMismatch):
        pde.dual_to_primal(primal, p_grid)


def test_dual_to_primal_boundary_localization_guard():
    # a slice whose q range covers 4x the payoff but whose slopes still top
    # out below 1 signals a broken dual surface and must raise; slices with
    # undersized q ranges are tolerated as truncation artifacts
    grid = radial_grid(n_t=4, n_x=6, n_z=21, eps=0.1, x_min=0.4, x_max=0.6,
                       z_max=3.0)
    q = grid.z
    x = grid.x_axes[0]
    vals = np.empty(grid.shape)
    vals[-1] = np.maximum(q[None, :] - x[:, None], 0.0)
    vals[:-1] = 0.6 * q[None, None, :]  # top slope 0.6 although q_max = 3 >= 4 g
    broken = Surface(grid, vals, {})
    with pytest.raises(ArgmaxAtBoundary):
        pde.dual_to_primal(broken, np.linspace(0.0, 1.0, 21))
    # same interior slopes but a payoff too large for the window: tolerated
    grid2 = radial_grid(n_t=4, n_x=6, n_z=21, eps=0.1, x_min=1.0, x_max=2.0,
                        z_max=3.0)
    vals2 = np.empty(grid2.shape)
    vals2[-1] = np.maximum(q[None, :] - grid2.x_axes[0][:, None], 0.0)
    vals2[:-1] = 0.6 * q[None, None, :]
    primal = pde.dual_to_primal(Surface(grid2, vals2, {}),
                                np.linspace(0.0, 1.0, 21))
    assert primal.meta["saturated_slices"] > 0


def test_primal_matches_closed_form_center():
    grid = GridSpec.regular(0.0, 1.0, 24, 0.5, 3.0, 64, 64, "q",
                            z_max=4.0, epsilon=0.2)
    surf = pde.solve_dual_pde(builtin_model("bessel3"), linear_payoff(), grid)
    primal = pde.dual_to_primal(surf, np.linspace(0, 1, 101))
    got = surface_eval(primal, 0.0, 1.0, 0.5)
    ref = oracles.bessel_primal_smeared(1.0, 0.5, 0.2, 1.0)
    assert got == pytest.approx(ref, rel=0.05)


def test_hjb_residual_structure():
    grid = radial_grid(n_t=10, n_x=24, n_z=32, eps=0.2, z_max=4.0)
    surf = pde.solve_dual_pde(builtin_model("bessel3"), linear_payoff(), grid)
    primal = pde.dual_to_primal(surf, np.linspace(0, 1, 33))
    res = pde.hjb_residual(primal, builtin_model("bessel3"))
    # residual covers interior nodes only: one ring stripped per axis
    assert res.residual.shape == tuple(n - 2 for n in primal.values.shape)
    assert 0.0 < np.nanmax(np.abs(res.residual)) < np.inf
    # nodes flagged non-convex carry NaN
    assert res.n_nonconvex == int(np.isnan(res.residual).sum())
    # the p-domain requirement is enforced
    with pytest.raises(DomainMismatch):
        pde.hjb_residual(surf, builtin_model("bessel3"))


def test_verifier_pass_and_fail_modes():
    grid = radial_grid(n_t=6, n_x=16, n_z=32, eps=0.1, z_max=4.0)
    model = builtin_model("bessel3")
    surf = pde.solve_dual_pde(model, linear_payoff(), grid)
    primal = pde.dual_to_primal(surf, np.linspace(0, 1, 41))
    report = pde.verify_supersolution(primal, model, linear_payoff())
    assert report.passed
    d = asdict(report)
    assert d["passed"] is True and "terminal_max_err" in d
    assert d["n_nonconvex"] == pde.hjb_residual(primal, model).n_nonconvex
    # additive shift breaks the terminal identity
    shifted = Surface(primal.grid, primal.values + 0.1, dict(primal.meta))
    rep2 = pde.verify_supersolution(shifted, model, linear_payoff())
    assert not rep2.passed
    # scaling down must lose either terminal match or domination
    scaled = Surface(primal.grid, primal.values * 0.9, dict(primal.meta))
    rep3 = pde.verify_supersolution(scaled, model, linear_payoff())
    assert (not rep3.passed) or (scaled.values - primal.values).min() < -1e-9


def test_verifier_auto_passes_zero_curvature():
    # U = p x has no curvature in p anywhere: every node the window keeps
    # auto-passes by the envelope convention, and none is checked
    grid = GridSpec.regular(0.0, 1.0, 11, 0.5, 2.0, 12, 33, "p", epsilon=0.2)
    U = np.broadcast_to(grid.x_axes[0][:, None] * grid.z, grid.shape).copy()
    surf = Surface(grid, U, {})
    model = builtin_model("bessel3")
    report = pde.verify_supersolution(surf, model, linear_payoff())
    t_int, p_int = grid.t[1:-1], grid.z[1:-1]
    window = (np.count_nonzero(grid.t[-1] - t_int >= 0.1) * (grid.x_axes[0].size - 2)
              * np.count_nonzero((p_int >= 0.02) & (p_int <= 0.98)))
    assert report.passed and report.n_checked == 0
    assert report.n_auto_pass == window > 0
    assert report.n_nonconvex == pde.hjb_residual(surf, model).n_nonconvex


def test_default_residual_tol_scales_with_grid():
    g1 = radial_grid(n_t=8, n_x=16, n_z=16)
    g2 = radial_grid(n_t=16, n_x=32, n_z=32)
    assert pde.default_residual_tol(g2) < pde.default_residual_tol(g1)


def test_d2_lift_matches_d1():
    # a second stock with no drift, independent of the first and absent
    # from the payoff, leaves the d=1 problem unchanged at every x2.  Both
    # solves are direct, on the custom twins of the gbms: the builtins
    # take the numeraire route
    g1 = GridSpec.regular(0.0, 1.0, 10, 0.5, 2.0, 16, 32, "q", z_max=4.0, epsilon=0.2)
    x2 = np.exp(np.linspace(np.log(0.6), np.log(1.8), 12))
    g2 = GridSpec(g1.t, (g1.x_axes[0], x2), g1.z, "q", g1.epsilon)
    m1 = custom_twin(builtin_model("gbm", b=0.05, s=0.3))
    m2 = gbm_twin([0.05, 0.0], [[0.3, 0.0], [0.0, 0.25]])
    payoff = linear_payoff()
    dual1 = pde.solve_dual_pde(m1, payoff, g1, pad=0)
    dual2 = pde.solve_dual_pde(m2, payoff, g2, pad=0)
    assert dual1.meta["route"] == dual2.meta["route"] == "direct"
    assert np.abs(dual2.values - dual1.values[:, :, None, :]).max() < 1e-12
    assert dual2.meta["substeps"] == dual1.meta["substeps"]

    p_grid = np.linspace(0.0, 1.0, 33)
    primal1 = pde.dual_to_primal(dual1, p_grid)
    primal2 = pde.dual_to_primal(dual2, p_grid)
    assert np.abs(primal2.values - primal1.values[:, :, None, :]).max() < 1e-12

    res1 = pde.hjb_residual(primal1, m1)
    res2 = pde.hjb_residual(primal2, m2)
    lifted = np.broadcast_to(res1.residual[:, :, None, :], res2.residual.shape)
    assert np.array_equal(np.isnan(res2.residual), np.isnan(lifted))
    ok = ~np.isnan(lifted)
    scale = np.abs(lifted[ok]).max()
    assert np.abs(res2.residual[ok] - lifted[ok]).max() <= 1e-8 * scale

    assert pde.verify_supersolution(primal2, m2, payoff).passed


def test_d2_default_surface_is_nonnegative_and_a_supersolution():
    # the d=2 gbm grid of the pde-adi benchmark at the default pad.  For g
    # = x1 the gbm takes the numeraire route and the market portfolio the
    # price ratio, whose read-backs are clamped at 0; the custom twin takes
    # the direct solve, whose projection clips the x edges, apply_bc
    # restores them and the read-back is clamped at 0.  On each no w < 0 is
    # read and the primal passes the verifier
    b, s = [0.05, 0.03], [[0.3, 0.0], [0.0, 0.25]]
    grid = GridSpec.regular(0.0, 1.0, 32, [0.5, 0.5], [2.0, 2.0], [48, 48], 64, "q",
                            z_max=6.0, epsilon=0.2)
    gbm = builtin_model("gbm", b=b, s=s)
    for route, model, payoff in (("numeraire", gbm, linear_payoff([1.0, 0.0])),
                                 ("price-ratio", gbm, linear_payoff([1.0, 1.0])),
                                 ("direct", gbm_twin(b, s), linear_payoff([1.0, 0.0]))):
        surf = pde.solve_dual_pde(model, payoff, grid)
        assert surf.meta["route"] == route
        assert surf.values.min() >= 0.0
        primal = pde.dual_to_primal(surf, np.linspace(0.0, 1.0, 41))
        assert pde.verify_supersolution(primal, model, payoff).passed


def test_d2_full_matrix_matches_closed_form():
    # the x1-x2 mixed term: with a full volatility matrix Z X1 is
    # lognormal with log-volatility |s[0] - theta|, whatever x2 is.  The
    # gbm takes the numeraire route (measured 1.97e-4), its custom twin
    # the direct solve with its mixed term (measured 9.58e-4)
    s = np.array([[0.3, 0.1], [0.0, 0.25]])
    b = np.array([0.05, 0.03])
    grid = GridSpec.regular(0.0, 1.0, 16, [0.5, 0.5], [2.0, 2.0], [24, 24], 32, "q",
                            z_max=6.0, epsilon=0.2)
    vol = float(np.linalg.norm(s[0] - np.linalg.solve(s, b)))
    x1, x2 = grid.x_axes
    i1, i2 = np.argmin(np.abs(x1 - 1.0)), np.argmin(np.abs(x2 - 1.0))
    ref = np.array([oracles.gbm_dual_smeared(x1[i1], q, 0.0, vol, 1.0, 0.2) for q in grid.z])
    for route, model, tol in (("numeraire", builtin_model("gbm", b=b, s=s), 4e-4),
                              ("direct", gbm_twin(b, s), 1e-2)):
        surf = pde.solve_dual_pde(model, linear_payoff(), grid)
        assert surf.meta["route"] == route
        assert np.abs(surf.values[0, i1, i2] - ref).max() < tol


def test_d2_residual_vanishes_on_the_closed_form():
    # the closed-form primal of Z X1 under a full volatility matrix solves
    # the d=2 operator: the residual falls at second order with the mesh
    s = np.array([[0.3, 0.1], [0.0, 0.25]])
    b = np.array([0.05, 0.03])
    model = builtin_model("gbm", b=b, s=s)
    vol = float(np.linalg.norm(s[0] - np.linalg.solve(s, b)))
    errs = []
    for n in (16, 32):
        grid = GridSpec.regular(0.0, 1.0, 2 * n, [0.5, 0.5], [2.0, 2.0], [n, 6], 2 * n + 1, "p",
                                epsilon=0.2)
        U = np.array([[[oracles.gbm_primal_smeared(x, p, 0.0, vol, 1.0 - t, 0.2) for p in grid.z]
                       for x in grid.x_axes[0]] for t in grid.t])
        U = np.repeat(U[:, :, None, :], 6, axis=2)
        res = pde.hjb_residual(Surface(grid, U, {}), model).residual
        inner = (grid.t[1:-1] <= 0.6)[:, None, None, None] & ((grid.z[1:-1] > 0.2) & (grid.z[1:-1] < 0.8))
        errs.append(np.nanmax(np.abs(np.where(inner, res, np.nan))))
    assert errs[0] < 1e-3
    assert errs[1] < errs[0] / 3.0


D2_B = [0.05, 0.03]
D2_S = {"diagonal": [[0.3, 0.0], [0.0, 0.25]], "full": [[0.3, 0.1], [0.0, 0.25]]}


def log_vol_of_z_x(s, k=0):
    """|s_k - theta|, s_k the k-th row of s: Z X_k is lognormal with this
    log-volatility."""
    s = np.asarray(s)
    return float(np.linalg.norm(s[k] - np.linalg.solve(s, D2_B)))


def price_ratio(model, payoff, grid):
    """pde._price_ratio with g evaluated on the grid's mesh."""
    gx = payoff(pde._mesh(grid.x_axes)).reshape(tuple(ax.size for ax in grid.x_axes))
    return pde._price_ratio(model, payoff, grid, gx)


@pytest.mark.parametrize("kind", D2_S)
def test_price_ratio_problem_is_the_d2_closed_form(kind):
    # for g = x1 the d=1 gbm in rho = x1 / x2 at eps_eff, scaled by x2 and
    # read at q / x2, is the closed form of Z X1 at every (x1, x2, q):
    # (s~ - b~ / s~)^2 + nu^2 = |s1 - theta|^2
    model = builtin_model("gbm", b=D2_B, s=D2_S[kind])
    grid = GridSpec.regular(0.0, 1.0, 4, [0.5, 0.6], [2.0, 2.4], [5, 5], 5, "q",
                            z_max=6.0, epsilon=0.2)
    ratio = price_ratio(model, linear_payoff(), grid)
    b_rho, s_rho = float(ratio.model.params["b"][0]), float(ratio.model.params["s"][0, 0])
    vol = log_vol_of_z_x(D2_S[kind])
    assert (s_rho - b_rho / s_rho) ** 2 + ratio.nu ** 2 == pytest.approx(vol ** 2, rel=1e-14)
    assert ratio.eps == pytest.approx(np.hypot(0.2, ratio.nu), rel=1e-15)
    if kind == "diagonal":
        assert (b_rho, s_rho) == pytest.approx((0.0825, np.hypot(0.3, 0.25)), rel=1e-14)
        assert ratio.nu == pytest.approx(0.006828633596, rel=1e-9)
    x1, x2 = grid.x_axes
    for i, j in ((0, 4), (2, 2), (4, 0), (3, 1)):
        assert ratio.axis[i - j + 4] == pytest.approx(x1[i] / x2[j], rel=1e-14)
        for q in (0.3, 1.1, 2.5):
            for tau in (0.25, 1.0):
                got = x2[j] * oracles.gbm_dual_smeared(x1[i] / x2[j], q / x2[j], b_rho, s_rho,
                                                       tau, ratio.eps)
                want = oracles.gbm_dual_smeared(x1[i], q, 0.0, vol, tau, 0.2)
                assert got == pytest.approx(want, rel=1e-12, abs=1e-15)
    assert ratio.payoff(np.array([[0.5], [2.0]])).tolist() == [0.5, 2.0]


@pytest.mark.parametrize("kind", D2_S)
@pytest.mark.parametrize("k", [0, 1])
def test_numeraire_d2_is_the_d1_dual_of_its_stock_repeated_bit_for_bit(kind, k):
    # for g = c x_k, w(t, x1, x2, q) = x_k f(t, q / x_k) with f the eta-only
    # dual at nu = |s_k - theta|.  The d=1 builtin gbm(b = 0, s = nu), whose
    # nu = |s - b / s| is that same value, solved with g = c x on the x_k
    # axis and repeated along the other axis, is the same surface bit for
    # bit, on equal axes and on axes with different log steps alike.  On
    # a narrow x_k axis, 4 nodes over [0.98, 1.02], the x_k axis's log
    # step asks for 264 eta nodes, more than the d=1 direct solve's state
    # (6 x times 16 eta nodes), which caps the line at 96 there as in d=1
    model = builtin_model("gbm", b=D2_B, s=D2_S[kind])
    c = (1.0, 2.0)[k]
    weights = [0.0, 0.0]
    weights[k] = c
    uneven = GridSpec.regular(0.0, 1.0, 6, [0.5, 0.6], [2.0, 1.8], [12, 10], 12, "q",
                              z_max=4.0, epsilon=0.2)
    lo, hi, n = [0.5, 0.5], [2.0, 2.0], [10, 10]
    lo[k], hi[k], n[k] = 0.98, 1.02, 4
    narrow = GridSpec.regular(0.0, 1.0, 6, lo, hi, n, 12, "q", z_max=4.0, epsilon=0.2)
    for grid in (ratio_grid(12), uneven, narrow):
        surf = pde.solve_dual_pde(model, linear_payoff(weights), grid)
        assert surf.meta["route"] == "numeraire"
        assert surf.meta["nu"] == log_vol_of_z_x(D2_S[kind], k)
        line = GridSpec(grid.t, (grid.x_axes[k],), grid.z, "q", grid.epsilon)
        d1 = pde.solve_dual_pde(builtin_model("gbm", b=0.0, s=surf.meta["nu"]),
                                linear_payoff([c]), line)
        keys = ("route", "nu", "epsilon_eff", "pad", "refine", "substeps", "rannacher_steps")
        assert [d1.meta[key] for key in keys] == [surf.meta[key] for key in keys]
        repeated = np.broadcast_to(np.expand_dims(d1.values, 2 - k), surf.values.shape)
        assert np.array_equal(surf.values, repeated)


def ratio_window(grid, values):
    """values at t0 on x1, x2 in [0.7, 1.4] and q in [0.5, 3]."""
    x, q = grid.x_axes[0], grid.z
    xi = (x >= 0.7) & (x <= 1.4)
    return values[0][np.ix_(xi, xi, (q >= 0.5) & (q <= 3.0))]


def closed_form_window(grid, vol):
    x, q = grid.x_axes[0], grid.z
    xi = (x >= 0.7) & (x <= 1.4)
    qs = q[(q >= 0.5) & (q <= 3.0)]
    ref = np.array([[oracles.gbm_dual_smeared(xx, qq, 0.0, vol, 1.0, 0.2) for qq in qs]
                    for xx in x[xi]])
    return ref[:, None, :]


def ratio_grid(n):
    return GridSpec.regular(0.0, 1.0, n // 2 + 1, [0.5, 0.5], [2.0, 2.0], [n + 1, n + 1],
                            n + 1, "q", z_max=6.0, epsilon=0.2)


@pytest.mark.parametrize("kind", D2_S)
def test_routed_d2_converges_to_the_closed_form(kind):
    # g = x1 takes the numeraire route: n + 1 nodes on each x axis and on
    # q, n / 2 time steps, n = 12, 24, 48; the error at t0 over the window.
    # Measured: diagonal 9.61e-4, 2.69e-4, 7.07e-5 (observed orders 1.84,
    # 1.93); full 9.58e-4, 2.72e-4, 7.12e-5 (1.82, 1.93)
    model = builtin_model("gbm", b=D2_B, s=D2_S[kind])
    vol = log_vol_of_z_x(D2_S[kind])
    errs = []
    for n in (12, 24, 48):
        grid = ratio_grid(n)
        surf = pde.solve_dual_pde(model, linear_payoff([1.0, 0.0]), grid)
        assert surf.meta["route"] == "numeraire"
        errs.append(np.abs(ratio_window(grid, surf.values) - closed_form_window(grid, vol)).max())
    orders = np.log2(np.array(errs[:-1]) / errs[1:])
    assert errs[-1] <= 1e-4
    assert orders.min() >= 1.7


@pytest.mark.parametrize("kind", D2_S)
def test_price_ratio_route_converges_to_the_closed_form_on_one_stock(kind, monkeypatch):
    # the ladder above with the stock hidden from the numeraire route, so
    # that g = x1 takes the price-ratio route, the one d=2 input of that
    # route with a closed form.  Measured: diagonal 1.38e-3, 4.27e-4,
    # 1.38e-4 (observed orders 1.69, 1.63); full 1.42e-3, 4.25e-4,
    # 1.56e-4 (1.74, 1.45)
    monkeypatch.setattr(pde, "_stock_numeraire", lambda *args: None)
    model = builtin_model("gbm", b=D2_B, s=D2_S[kind])
    vol = log_vol_of_z_x(D2_S[kind])
    errs = []
    for n in (12, 24, 48):
        grid = ratio_grid(n)
        surf = pde.solve_dual_pde(model, linear_payoff([1.0, 0.0]), grid)
        assert surf.meta["route"] == "price-ratio"
        errs.append(np.abs(ratio_window(grid, surf.values) - closed_form_window(grid, vol)).max())
    orders = np.log2(np.array(errs[:-1]) / errs[1:])
    assert errs[-1] <= 2e-4
    assert orders.min() >= 1.3


@pytest.mark.parametrize("kind", D2_S)
def test_price_ratio_route_self_converges_on_the_market_portfolio(kind):
    # g = x1 + x2 has no closed form; the price-ratio ladder of the test
    # above, compared on the nodes of n = 12 over its window, where each
    # grid's nodes are every other node of the next.  Measured: steps
    # 2.93e-3, 7.31e-4 (observed order 2.00) diagonal; 2.54e-3, 7.56e-4
    # (1.75) full
    model = builtin_model("gbm", b=D2_B, s=D2_S[kind])
    levels = []
    for n in (12, 24, 48):
        surf = pde.solve_dual_pde(model, linear_payoff([1.0, 1.0]), ratio_grid(n))
        assert surf.meta["route"] == "price-ratio"
        every = n // 12
        levels.append(surf.values[:1, ::every, ::every, ::every])
    coarse = ratio_grid(12)
    steps = [np.abs(ratio_window(coarse, b) - ratio_window(coarse, a)).max()
             for a, b in zip(levels, levels[1:])]
    assert steps[-1] <= 1e-3
    assert np.log2(steps[0] / steps[1]) >= 1.6


def test_routed_and_direct_d2_agree_within_the_direct_grid_error():
    # the same full-matrix problem, routed and on its custom twin, which
    # takes the direct solve (with a quarter of the x range as pad), on the
    # window of the 24-cell grid.  For g = x1, on the numeraire route, the
    # direct solve's own error accounts for the gap (measured: gap 1.55e-3,
    # direct error 1.60e-3, routed 2.72e-4); for the market portfolio and
    # the geometric mean, on the price-ratio route and with no closed
    # form, the gap falls with the mesh (measured 1.47e-2 to 4.28e-3 and
    # 5.28e-3 to 1.94e-3 from 12 to 24 cells)
    gbm = builtin_model("gbm", b=D2_B, s=D2_S["full"])
    twin = gbm_twin(D2_B, D2_S["full"])
    vol = log_vol_of_z_x(D2_S["full"])
    grid = ratio_grid(24)
    pad = (6, 9)
    routed = pde.solve_dual_pde(gbm, linear_payoff([1.0, 0.0]), grid)
    direct = pde.solve_dual_pde(twin, linear_payoff([1.0, 0.0]), grid, pad=pad)
    assert (routed.meta["route"], direct.meta["route"]) == ("numeraire", "direct")
    exact = closed_form_window(grid, vol)
    r, d = ratio_window(grid, routed.values), ratio_window(grid, direct.values)
    direct_err = np.abs(d - exact).max()
    assert np.abs(r - exact).max() <= 0.25 * direct_err
    assert np.abs(r - d).max() <= 1.25 * direct_err
    for payoff in (linear_payoff([1.0, 1.0]), payoff_from_expression("sqrt(x1 * x2)", 2)):
        gaps = []
        for n in (12, 24):
            grid = ratio_grid(n)
            routed = pde.solve_dual_pde(gbm, payoff, grid)
            assert routed.meta["route"] == "price-ratio"
            direct = pde.solve_dual_pde(twin, payoff, grid, pad=(n // 4, (3 * (n + 1)) // 8))
            gaps.append(np.abs(ratio_window(grid, routed.values)
                               - ratio_window(grid, direct.values)).max())
        assert gaps[1] <= gaps[0] / 2.0


def test_d2_inputs_the_route_does_not_take_are_solved_directly():
    # a custom model, the market portfolio on x axes with different log
    # steps, and payoffs that are not 1-homogeneous (of degree 2, affine)
    # each take the direct solve, and the meta says so.  The route depends
    # on what g is, not on how it is written: c x_k takes the numeraire
    # route (x1 as an expression is solved as linear_payoff() is), and any
    # other 1-homogeneous payoff, linear or not, the price ratio
    grid = GridSpec.regular(0.0, 1.0, 4, [0.5, 0.5], [2.0, 2.0], [8, 8], 8, "q",
                            z_max=6.0, epsilon=0.2)
    uneven = GridSpec.regular(0.0, 1.0, 4, [0.5, 0.5], [2.0, 2.0], [8, 9], 8, "q",
                              z_max=6.0, epsilon=0.2)
    gbm = builtin_model("gbm", b=D2_B, s=D2_S["full"])
    square = Payoff(lambda x: x[:, 0] ** 2, "square")
    cases = [
        (gbm_twin(D2_B, D2_S["full"]), linear_payoff(), grid),
        (gbm, linear_payoff([1.0, 1.0]), uneven),
        (gbm, square, grid),
        (gbm, payoff_from_expression("x1 + 0.5", 2), grid),
    ]
    for model, payoff, g in cases:
        assert price_ratio(model, payoff, g) is None
        surf = pde.solve_dual_pde(model, payoff, g)
        assert surf.meta["route"] == "direct"
        assert "nu" not in surf.meta and "epsilon_eff" not in surf.meta
    for route, payoff in (("numeraire", linear_payoff([0.0, 2.0])),
                          ("price-ratio", linear_payoff([1.0, 1.0])),
                          ("price-ratio", payoff_from_expression("sqrt(x1 * x2)", 2))):
        routed = pde.solve_dual_pde(gbm, payoff, grid)
        assert routed.meta["route"] == route
        assert routed.meta["epsilon_eff"] == pytest.approx(np.hypot(0.2, routed.meta["nu"]))
    expr = pde.solve_dual_pde(gbm, payoff_from_expression("x1", 2), grid)
    assert expr.meta["route"] == "numeraire"
    assert np.array_equal(expr.values, pde.solve_dual_pde(gbm, linear_payoff(), grid).values)
    assert pde.solve_dual_pde(builtin_model("gbm", b=0.05, s=0.3), linear_payoff(),
                              radial_grid()).meta["route"] == "numeraire"
