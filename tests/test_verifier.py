"""The slab verifier against the one-pass reference, and its memory."""
import math
from dataclasses import asdict

import numpy as np
import pytest

import verifier_reference as ref
from memory_helpers import traced_peak
from qhedge import pde
from qhedge.market import builtin_model, linear_payoff
from qhedge.surfaces import GridSpec, Surface
from surface_helpers import large_surface


def gbm_primal_d1(n_x=32, n_p=41):
    model = builtin_model("gbm", b=0.05, s=0.3)
    grid = GridSpec.regular(0.0, 1.0, 24, 0.5, 2.0, n_x, 32, "q", z_max=4.0, epsilon=0.2)
    dual = pde.solve_dual_pde(model, linear_payoff(), grid)
    return pde.dual_to_primal(dual, np.linspace(0.0, 1.0, n_p)), model, linear_payoff()


def gbm_primal_d2():
    # a custom model with the constant coefficients of a gbm: the direct
    # d=2 solve, which the price-ratio route would skip for the gbm itself
    model = builtin_model("custom", dim=2, b_exprs=["0.05", "0.03"],
                          s_exprs=[["0.3", "0"], ["0", "0.25"]])
    payoff = linear_payoff([1.0, 0.0])
    grid = GridSpec.regular(0.0, 1.0, 12, [0.5, 0.5], [2.0, 2.0], [12, 12], 24, "q",
                            z_max=6.0, epsilon=0.2)
    dual = pde.solve_dual_pde(model, payoff, grid)
    return pde.dual_to_primal(dual, np.linspace(0.0, 1.0, 21)), model, payoff


def failing_primal():
    # the scaled primal of test_verifier_pass_and_fail_modes
    model = builtin_model("bessel3")
    grid = GridSpec.regular(0.0, 1.0, 6, 0.5, 3.0, 16, 32, "q", z_max=4.0, epsilon=0.1)
    primal = pde.dual_to_primal(pde.solve_dual_pde(model, linear_payoff(), grid),
                                np.linspace(0.0, 1.0, 41))
    return Surface(primal.grid, primal.values * 0.9, dict(primal.meta)), model, linear_payoff()


def time_independent_surface():
    # U = x p^2 at every time level: the residual is the same, bit for bit,
    # on every level, so the largest one ties across every slab
    grid = GridSpec.regular(0.0, 1.0, 14, 0.5, 2.0, 10, 17, "p", epsilon=0.2)
    U = np.broadcast_to(grid.x_axes[0][:, None] * grid.z ** 2, grid.shape).copy()
    return Surface(grid, U, {}), builtin_model("gbm", b=0.05, s=0.3), linear_payoff()


def level_bytes(surface):
    """Bytes of one interior time level of the residual."""
    return 8 * math.prod(n - 2 for n in surface.grid.shape[1:])


def slab_reports(monkeypatch, surface, model, payoff, lengths, tol=None):
    """asdict of the slab verifier's report at each slab length (None: the
    default byte budget)."""
    out = []
    for length in lengths:
        budget = pde._SLAB_BYTES if length is None else length * level_bytes(surface)
        with monkeypatch.context() as m:
            m.setattr(pde, "_SLAB_BYTES", budget)
            out.append(asdict(pde.verify_supersolution(surface, model, payoff, tol)))
    return out


CASES = {"gbm d=1": gbm_primal_d1, "gbm d=2": gbm_primal_d2, "failing": failing_primal,
         "time-independent": time_independent_surface}


@pytest.mark.parametrize("case", CASES)
def test_slab_verifier_matches_the_one_pass_reference(monkeypatch, case):
    surface, model, payoff = CASES[case]()
    want = asdict(ref.verify_supersolution(surface, model, payoff))
    assert want["n_checked"] > 0
    for got in slab_reports(monkeypatch, surface, model, payoff, (1, 3, 7, None)):
        assert got == want
    # a tolerance below the largest residual, to fold violation counts
    # across slabs
    tol = want["max_residual"] - abs(want["max_residual"])
    want = asdict(ref.verify_supersolution(surface, model, payoff, tol))
    assert want["n_violations"] > 0
    for got in slab_reports(monkeypatch, surface, model, payoff, (1, 3, 7, None), tol):
        assert got == want


def test_the_failing_surface_fails():
    # 0.9 times the primal misses the terminal data p g(x)
    surface, model, payoff = failing_primal()
    report = pde.verify_supersolution(surface, model, payoff)
    assert not report.passed and not report.terminal_ok


def test_tolerances_must_be_finite_and_nonnegative():
    # checked > nan is false at every node, so a NaN tol passed a surface
    # that tol = 0 fails, and a NaN floor marked every interior node
    # non-convex, so that none was checked
    primal, model, payoff = gbm_primal_d1(n_x=16, n_p=21)
    assert not pde.verify_supersolution(primal, model, payoff, tol=0.0).passed
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="tol"):
            pde.verify_supersolution(primal, model, payoff, tol=bad)
    for bad in (math.nan, math.inf, -1e-3):
        with pytest.raises(ValueError, match="floor"):
            pde.hjb_residual(primal, model, floor=bad)


def test_slab_length_that_does_not_divide_the_interior_levels(monkeypatch):
    surface, model, payoff = gbm_primal_d1(n_x=64, n_p=101)
    interior = surface.grid.t.size - 2
    default = max(1, pde._SLAB_BYTES // level_bytes(surface))
    lengths = (4, default)
    assert all(1 < k < interior and interior % k for k in lengths)
    want = asdict(ref.verify_supersolution(surface, model, payoff))
    assert slab_reports(monkeypatch, surface, model, payoff, lengths) == [want, want]


def test_a_tie_across_slabs_keeps_the_first_node_in_c_order(monkeypatch):
    surface, model, payoff = time_independent_surface()
    g = surface.grid
    want = asdict(ref.verify_supersolution(surface, model, payoff))
    # one level per slab: every slab holds the largest residual once
    (got,) = slab_reports(monkeypatch, surface, model, payoff, (1,))
    assert got == want
    # the first interior level is inside the time window, so it wins
    assert got["worst_node"][0] == g.t[1]
    res = pde.hjb_residual(surface, model).residual
    assert np.array_equal(res[0], res[-1])


def test_whole_surface_residual_matches_the_reference_and_the_slabs():
    surface, model, _ = gbm_primal_d1()
    want, curvature, n_nonconvex = ref.hjb_residual(surface, model)
    whole = pde.hjb_residual(surface, model)
    assert np.array_equal(whole.residual, want, equal_nan=True)
    assert np.array_equal(whole.curvature, curvature)
    assert whole.n_nonconvex == n_nonconvex
    # slabs of 5 levels with the whole surface's floor rebuild it exactly
    n_t = surface.grid.t.size
    floor = pde._curvature_floor(surface.values)
    parts = [pde.hjb_residual(surface, model, k, min(k + 5, n_t - 1), floor)
             for k in range(1, n_t - 1, 5)]
    assert np.array_equal(np.concatenate([p.residual for p in parts]), want, equal_nan=True)
    assert sum(p.n_nonconvex for p in parts) == n_nonconvex
    with pytest.raises(ValueError, match="interior levels"):
        pde.hjb_residual(surface, model, 0, 3)


def test_verifier_memory_is_a_fraction_of_the_surface():
    # measured on the 6.6 MB surface: 0.45 of values.nbytes with slabs
    # (2.98 MB), 7.3 with the one-pass verifier
    surface = large_surface()
    report, peak = traced_peak(pde.verify_supersolution, surface,
                               builtin_model("gbm", b=0.05, s=0.3), linear_payoff())
    assert report.n_checked > 0
    assert peak < 0.6 * surface.values.nbytes


@pytest.mark.xfail(strict=True, reason="the spline transform's first-order curvature fails "
                   "the verifier on bessel3 (ROADMAP item 2)")
def test_bessel3_pipeline_on_the_adi_benchmark_grid_passes_the_verifier():
    # the pde-adi bessel3 grid through the pipeline, on the numeraire
    # route.  Measured: 32 296 of 162 368 checked nodes violate, max 10.53
    # against tol 0.366, at (t 0.87, x 0.276, p 0.84) (the direct solve:
    # 32 501, max 10.58); the exact dual fails there as well
    model = builtin_model("bessel3")
    grid = GridSpec.regular(0.0, 1.0, 32, 0.25, 2.0, 64, 64, "q", z_max=8.0, epsilon=0.2)
    dual = pde.solve_dual_pde(model, linear_payoff(), grid, refine=2)
    primal = pde.dual_to_primal(dual, np.linspace(0.0, 1.0, 101))
    assert pde.verify_supersolution(primal, model, linear_payoff()).passed
