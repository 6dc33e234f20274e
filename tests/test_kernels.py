"""The tridiagonal line kernels against a pivoting banded solver."""
import numpy as np
import pytest
from scipy.linalg import solve_banded

from qhedge import _kernels
from qhedge.errors import Nonfinite


def random_bands(rng, shape):
    # diagonally dominant, like the implicit diffusion sweeps; lo[0] and
    # up[-1] are not zero, and must be ignored
    lo = rng.uniform(-1, 1, shape)
    up = rng.uniform(-1, 1, shape)
    di = 2.5 + np.abs(lo) + np.abs(up) + rng.uniform(0, 1, shape)
    return lo, di, up


def per_line(lo, di, up, rhs):
    """solve_banded (LAPACK gbsv, partial pivoting) on each line alone;
    every array swept axis first, bands broadcast to rhs."""
    lo, di, up = np.broadcast_arrays(lo, di, up, rhs)[:3]
    out = np.empty_like(rhs)
    for lane in np.ndindex(rhs.shape[1:]):
        line = (slice(None),) + lane
        ab = np.zeros((3, rhs.shape[0]))
        ab[0, 1:] = up[line][:-1]
        ab[1] = di[line]
        ab[2, :-1] = lo[line][1:]
        out[line] = solve_banded((1, 1), ab, rhs[line])
    return out


def test_lines_match_solve_banded_per_line():
    rng = np.random.default_rng(0)
    n, lanes = 12, (50, 60)
    # (bands' shape, swept axis first; the lanes; where rhs holds the swept
    # axis): one lane, 3000 lanes with the swept axis first, in the middle
    # and last, and bands that broadcast along the last lane axis
    cases = [((n, 1), (1,), 0)]
    cases += [((n,) + lanes, lanes, axis) for axis in range(3)]
    cases += [((n, lanes[0], 1), lanes, 0)]
    for band_shape, lane_shape, axis in cases:
        lo, di, up = random_bands(rng, band_shape)
        stored = rng.uniform(-5, 5, lane_shape[:axis] + (n,) + lane_shape[axis:])
        rhs = np.moveaxis(stored, axis, 0)
        want = per_line(lo, di, up, rhs)
        factors = _kernels.factor_lines(lo, di, up, "test sweep")
        before = rhs.copy()
        got = _kernels.thomas_batch(factors, rhs)
        # solved in place, in the caller's layout
        assert got is rhs
        assert np.allclose(np.moveaxis(stored, axis, 0), want, rtol=1e-12, atol=1e-12)

        if rhs[0].size == 1:
            continue
        # the lines are exactly decoupled: a new right-hand side on one line
        # leaves every other line bit-identical
        line = (slice(None),) + (0,) * (rhs.ndim - 2) + (3,)
        changed = before.copy()
        changed[line] = rng.uniform(-5, 5, n)
        again = _kernels.thomas_batch(factors, changed.copy())
        others = np.ones(rhs.shape[1:], bool)
        others[line[1:]] = False
        assert np.array_equal(again[:, others], got[:, others])
        assert np.allclose(again[line], per_line(lo, di, up, changed)[line],
                           rtol=1e-12, atol=1e-12)


def test_line_without_diagonal_dominance_matches_or_raises():
    # the kernel does not pivot: on a line far from diagonal dominance, where
    # partial pivoting would swap rows, it must give the pivoting solution
    # or raise, never a silently different one
    rng = np.random.default_rng(2)
    n = 12
    lo, di, up = random_bands(rng, (n, 5))
    di[:, 2] = rng.uniform(-0.2, 0.2, n)
    rhs = rng.uniform(-5, 5, (n, 5))
    want = per_line(lo, di, up, rhs)
    try:
        got = _kernels.thomas_batch(_kernels.factor_lines(lo, di, up, "eta sweep at th=0.5"),
                                    rhs.copy())
    except Nonfinite as err:
        assert "eta sweep at th=0.5" in str(err)
    else:
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


def test_zero_or_nonfinite_pivot_names_the_sweep():
    rng = np.random.default_rng(1)
    lo, di, up = random_bands(rng, (6, 3))
    # line 1 is [[1, 1], [1, 1]] in its first two rows and columns: the
    # second pivot is exactly zero
    di[:2, 1] = 1.0
    up[0, 1] = 1.0
    lo[1, 1] = 1.0
    di[2:, 1] = 5.0
    lo[2, 1] = up[1, 1] = 0.0
    with pytest.raises(Nonfinite, match="eta sweep at th=0.5: zero pivot in row 1"):
        _kernels.factor_lines(lo, di, up, "eta sweep at th=0.5")
    lo, di, up = random_bands(rng, (6, 3))
    di[4, 2] = np.inf
    with pytest.raises(Nonfinite, match="x axis 0 sweep at th=0.5: .* not finite"):
        _kernels.factor_lines(lo, di, up, "x axis 0 sweep at th=0.5")
    lo, di, up = random_bands(rng, (6, 3))
    lo[3, 0] = np.nan
    with pytest.raises(Nonfinite, match="x axis 1 sweep"):
        _kernels.factor_lines(lo, di, up, "x axis 1 sweep at th=0.25")


def test_backend_reports_environment():
    assert _kernels.backend() == "numpy"
