"""The level-at-a-time dual-to-primal transform against the slice-at-a-time
reference in transform_reference.py."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import transform_reference as ref
from qhedge import pde
from qhedge.duality import convex_envelope_rows
from qhedge.errors import ArgmaxAtBoundary
from qhedge.market import builtin_model, linear_payoff
from qhedge.surfaces import GridSpec, Surface

KINDS = ("convex", "bumped", "flat", "kinked", "saturating")


def _convex(q, rng, top):
    # nondecreasing secants from 0 up to `top`, w(0) = 0
    slopes = np.sort(rng.uniform(0.0, top, q.size - 1))
    slopes[-1] = top
    return np.concatenate([[0.0], np.cumsum(slopes * np.diff(q))])


def _slice(kind, q, rng):
    if kind == "convex":
        return _convex(q, rng, rng.uniform(1.0, 1.5))
    if kind == "bumped":
        w = _convex(q, rng, rng.uniform(1.0, 1.5))
        if q.size > 2:
            w[rng.integers(1, q.size - 1)] += rng.uniform(1e-6, 0.3)
        return w
    if kind == "flat":
        # zero up to a random level, then a convex rise
        c = rng.uniform(0.0, 0.5 * q[-1])
        return np.maximum(q - c, 0.0) * rng.uniform(1.0, 1.3)
    if kind == "kinked":
        # piecewise linear with every kink on a node: flat runs and cells
        # whose clamped end slopes leave zero-length pieces
        knots = np.sort(rng.choice(q.size - 1, size=min(q.size - 1, 3), replace=False))
        slopes = np.zeros(q.size - 1)
        for j, knot in enumerate(knots):
            slopes[knot:] = 0.5 * j if j < len(knots) - 1 else 1.2
        return np.concatenate([[0.0], np.cumsum(slopes * np.diff(q))])
    # saturating: the top slope stays well below 1
    return _convex(q, rng, rng.uniform(0.2, 0.9))


@st.composite
def dual_surfaces(draw):
    n_t = draw(st.integers(3, 4))
    n_x = draw(st.integers(3, 5))
    n_q = draw(st.integers(3, 12))
    q_max = draw(st.sampled_from([2.0, 3.0, 4.0]))
    x = np.sort(draw(st.lists(st.floats(0.2, 1.5), min_size=n_x, max_size=n_x,
                              unique=True)))
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=(n_t - 1) * n_x,
                          max_size=(n_t - 1) * n_x))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    q = np.linspace(0.0, q_max, n_q)
    vals = np.empty((n_t, n_x, n_q))
    # terminal ramp (q - x)^+: slices with 4 x <= q_max are covered
    vals[-1] = np.maximum(q[None, :] - x[:, None], 0.0)
    for j, kind in enumerate(kinds):
        vals[j // n_x, j % n_x] = _slice(kind, q, rng)
    if draw(st.booleans()):
        p = np.linspace(0.0, 1.0, draw(st.integers(3, 21)))
    else:
        p = np.sort(draw(st.lists(st.floats(0.0, 1.0), min_size=3, max_size=15,
                                  unique=True)))
    grid = GridSpec(np.linspace(0.0, 1.0, n_t), (x,), q, "q", 0.1)
    return Surface(grid, vals, {}), p


@given(dual_surfaces())
@settings(max_examples=300, deadline=None)
def test_level_transform_matches_slice_reference(case):
    surf, p = case
    try:
        want, n_env, n_sat = ref.dual_to_primal(surf, p)
    except ArgmaxAtBoundary as exc:
        with pytest.raises(ArgmaxAtBoundary) as got:
            pde.dual_to_primal(surf, p)
        assert str(got.value) == str(exc)
        return
    primal = pde.dual_to_primal(surf, p)
    assert np.max(np.abs(primal.values - want)) <= 1e-12
    assert primal.meta["enveloped_slices"] == n_env
    assert primal.meta["saturated_slices"] == n_sat


def test_strategy_reaches_every_branch():
    # a fixed surface with one slice of each kind: some are enveloped,
    # some saturate, and the covered saturating slice raises
    rng = np.random.default_rng(5)
    q = np.linspace(0.0, 3.0, 9)
    x = np.array([0.5, 0.6, 0.7, 0.8, 2.0])
    vals = np.empty((3, x.size, q.size))
    vals[-1] = np.maximum(q[None, :] - x[:, None], 0.0)
    for level in range(2):
        for i, kind in enumerate(KINDS):
            vals[level, i] = _slice(kind, q, rng)
    p = np.linspace(0.0, 1.0, 11)
    grid = GridSpec(np.linspace(0.0, 1.0, 3), (x,), q, "q", 0.1)
    # the saturating slice sits at x = 2.0, which q_max = 3 does not cover
    primal = pde.dual_to_primal(Surface(grid, vals, {}), p)
    want, n_env, n_sat = ref.dual_to_primal(Surface(grid, vals, {}), p)
    assert n_env > 0 and n_sat > 0
    assert primal.meta["enveloped_slices"] == n_env
    assert primal.meta["saturated_slices"] == n_sat
    assert np.max(np.abs(primal.values - want)) <= 1e-12
    # swap it to x = 0.5, which is covered: both raise the same error
    vals = vals.copy()
    vals[:-1, [0, 4]] = vals[:-1, [4, 0]]
    with pytest.raises(ArgmaxAtBoundary) as want_exc:
        ref.dual_to_primal(Surface(grid, vals, {}), p)
    with pytest.raises(ArgmaxAtBoundary) as got_exc:
        pde.dual_to_primal(Surface(grid, vals, {}), p)
    assert str(got_exc.value) == str(want_exc.value)


def test_solved_dual_surface_matches_reference():
    # a gbm dual surface as the pipeline makes it; rounding leaves spline
    # slopes in the slope-1 tail of its slices an ulp out of order
    grid = GridSpec.regular(0.0, 1.0, 12, 0.5, 2.0, 48, 48, "q", z_max=8.0, epsilon=0.2)
    surf = pde.solve_dual_pde(builtin_model("gbm", b=0.05, s=0.3), linear_payoff(), grid)
    p = np.linspace(0.0, 1.0, 41)
    primal = pde.dual_to_primal(surf, p)
    want, n_env, n_sat = ref.dual_to_primal(surf, p)
    assert np.max(np.abs(primal.values - want)) <= 1e-12
    assert primal.meta["enveloped_slices"] == n_env > 0
    assert primal.meta["saturated_slices"] == n_sat


@given(st.integers(2, 40), st.integers(0, 2 ** 32 - 1), st.booleans())
@settings(max_examples=200, deadline=None)
def test_envelope_rows_match_monotone_chain(n, seed, coarse):
    rng = np.random.default_rng(seed)
    x = np.sort(rng.choice(np.linspace(0.0, 3.0, 301), size=n, replace=False))
    rows = rng.normal(size=(4, n))
    if coarse:
        # ties and collinear runs
        rows = np.round(rows, 1)
    rows[1] = x ** 2
    got = convex_envelope_rows(x, rows)
    want = np.array([ref.convex_envelope(x, r) for r in rows])
    assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("p", [[0.0, 0.5, 0.2, 1.0], [0.0, 0.5, 1.2], [-0.1, 0.5, 1.0],
                               [0.0, np.nan, 1.0], [0.0, 1.0], [[0.0, 0.5, 1.0]]])
def test_bad_p_grid_raises_before_any_level(monkeypatch, p):
    q = np.linspace(0.0, 3.0, 7)
    x = np.array([0.5, 0.6, 0.7])
    grid = GridSpec(np.linspace(0.0, 1.0, 3), (x,), q, "q", 0.1)
    vals = np.broadcast_to(np.maximum(q - 0.5, 0.0), grid.shape)
    surf = Surface(grid, vals, {})

    def level_step(*args):
        raise AssertionError("a level was conjugated")

    monkeypatch.setattr(pde, "_conjugate_level", level_step)
    with pytest.raises(ValueError):
        pde.dual_to_primal(surf, np.asarray(p))
    # the same surface with a good grid does reach the level step
    with pytest.raises(AssertionError):
        pde.dual_to_primal(surf, np.linspace(0.0, 1.0, 5))
