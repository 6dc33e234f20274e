"""Convex envelopes, and the Legendre transform of dual slices to the p
domain (`pde._conjugate_level`, the one conjugate of the package)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhedge import pde
from qhedge.duality import convex_envelope
from qhedge.errors import ArgmaxAtBoundary, DomainMismatch
from qhedge.market import builtin_model, linear_payoff
from qhedge.surfaces import GridSpec, Surface


def conjugate(q, w, p):
    """U(p) = max over q of (p q - w(q)) for one dual slice w on the q grid."""
    U, _, _ = pde._conjugate_level(q, np.asarray(w, float)[None, :], np.asarray(p, float))
    return U[0]


def test_convex_envelope_basic():
    x = np.linspace(0, 1, 11)
    y = x ** 2
    env = convex_envelope(x, y)
    assert np.allclose(env, y)  # already convex: identity
    # a bump is shaved off down to the chord
    y2 = y.copy()
    y2[5] += 0.5
    env2 = convex_envelope(x, y2)
    assert env2[5] == pytest.approx((y[4] + y[6]) / 2, abs=1e-12)
    assert np.all(env2 <= y2 + 1e-15)
    # idempotent
    env3 = convex_envelope(x, env2)
    assert np.allclose(env3, env2)
    # output second differences are nonnegative
    d2 = np.diff(env2, 2)
    assert d2.min() >= -1e-12


def test_legendre_pair_on_parabola():
    # w(q) = q^2 / 4 for q in [0, 2] and q - 1 beyond is the conjugate of
    # U(p) = p^2 on [0, 1]; the spline reproduces the quadratic piece
    # exactly, so the transform returns the parabola
    q = np.linspace(0, 2.2, 441)
    w = np.where(q <= 2.0, q ** 2 / 4, q - 1.0)
    p = np.linspace(0, 1, 401)
    assert np.allclose(conjugate(q, w, p), p ** 2, atol=1e-12)


def test_legendre_domain_checks():
    # the transform takes a q-domain surface and a p grid inside [0, 1]
    grid = GridSpec.regular(0.0, 1.0, 4, 0.5, 2.0, 6, 11, "p", epsilon=0.1)
    with pytest.raises(DomainMismatch):
        pde.dual_to_primal(Surface(grid, np.zeros(grid.shape), {}), np.linspace(0.0, 1.0, 11))
    qgrid = GridSpec.regular(0.0, 1.0, 4, 0.5, 2.0, 6, 11, "q", z_max=8.0, epsilon=0.1)
    ramp = np.maximum(qgrid.z - qgrid.x_axes[0][:, None], 0.0)
    dual = Surface(qgrid, np.broadcast_to(ramp, qgrid.shape), {})
    with pytest.raises(ValueError):
        pde.dual_to_primal(dual, [0.0, 0.5, 1.2])


def test_argmax_at_boundary_detection():
    # a q grid cut short: slopes only reach 0.5, so every p above it puts
    # the maximizer at the top of the grid.  The payoff is covered
    # (q_max >= 4 g(x)), so the transform raises
    grid = GridSpec.regular(0.0, 1.0, 3, 0.1, 0.25, 4, 51, "q", z_max=1.0, epsilon=0.1)
    q = grid.z
    vals = np.empty(grid.shape)
    vals[-1] = np.maximum(q - grid.x_axes[0][:, None], 0.0)
    vals[:-1] = q ** 2 / 4
    with pytest.raises(ArgmaxAtBoundary):
        pde.dual_to_primal(Surface(grid, vals, {}), np.linspace(0.0, 1.0, 101))
    # within the reliable p range the slice conjugate is right
    p = np.linspace(0, 0.4, 9)
    U, top, _ = pde._conjugate_level(q, vals[0], p)
    assert np.allclose(U, p ** 2, atol=1e-3)
    assert np.allclose(top, 0.5)


def test_spline_start_slopes_are_finite_and_nondecreasing():
    # piecewise-linear rows with every kink on a node leave zero-length
    # pieces; a solved gbm slice adds its slope-1 tail, where rounding puts
    # secants an ulp out of order.  The start slopes keep one order anyway
    q = np.linspace(0.0, 3.0, 13)
    kinked = []
    for knots, top in (((2, 5, 9), 1.2), ((0, 4, 6), 1.0), ((3, 7, 11), 1.5)):
        slopes = np.zeros(q.size - 1)
        for j, knot in enumerate(knots):
            slopes[knot:] = 0.5 * j if j < len(knots) - 1 else top
        kinked.append(np.concatenate([[0.0], np.cumsum(slopes * np.diff(q))]))
    grid = GridSpec.regular(0.0, 1.0, 6, 0.5, 2.0, 16, 48, "q", z_max=8.0, epsilon=0.2)
    gbm = pde.solve_dual_pde(builtin_model("gbm", b=0.05, s=0.3), linear_payoff(), grid)
    for axis, rows in ((q, np.array(kinked)), (grid.z, gbm.values[0])):
        _, lens, _, slopes, _ = pde._schumaker_pieces(axis, rows)
        assert (lens == 0.0).any()
        assert np.all(np.isfinite(slopes))
        assert np.all(np.diff(slopes, axis=1) >= 0.0)


def test_fenchel_young_gap_sign():
    # the spline interpolates the slice, so p q - U(p) - w(q) <= 0 on every
    # pair of grid nodes, with equality at p = q = 0
    q = np.linspace(0, 4, 201)
    w = np.maximum(q - 1.0, 0.0) + 0.05 * q * q / (1.0 + q)
    p = np.linspace(0, 1, 101)
    U = conjugate(q, w, p)

    def gap(wq):
        return float((np.outer(p, q) - U[:, None] - wq[None, :]).max())

    assert abs(gap(w)) <= 1e-12
    # shifting w down violates the inequality by the shift
    assert gap(w - 0.05) == pytest.approx(0.05, abs=1e-12)


@given(st.lists(st.floats(-5.0, 5.0), min_size=3, max_size=30))
@settings(max_examples=80, deadline=None)
def test_envelope_properties(ys):
    x = np.linspace(0, 1, len(ys))
    env = convex_envelope(x, ys)
    assert np.all(env <= np.asarray(ys) + 1e-9)
    assert np.diff(env, 2).min() >= -1e-9
    assert env[0] == pytest.approx(ys[0])
    assert env[-1] == pytest.approx(ys[-1])


@given(st.integers(3, 40), st.integers(0, 2 ** 31 - 1))
@settings(max_examples=60, deadline=None)
def test_biconjugation_recovers_convex_functions(n, seed):
    # a random convex U with U(0) = 0 from sorted slopes; its discrete
    # conjugate w(q) = max_j (q p_j - U_j), transformed back, restores it
    rng = np.random.default_rng(seed)
    p = np.linspace(0, 1, n)
    slopes = np.sort(rng.uniform(0.0, 4.0, size=n - 1))
    vals = np.concatenate([[0.0], np.cumsum(slopes * np.diff(p))])
    q = np.linspace(0.0, 4.5, 400)
    w = (np.outer(q, p) - vals).max(axis=1)
    # sup-norm error bounded by a couple of q grid cells
    assert np.max(np.abs(conjugate(q, w, p) - vals)) <= 2 * (q[1] - q[0]) + 1e-9
