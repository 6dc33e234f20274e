"""Numpy kernels against references and hand-checked recursions."""
import numpy as np
import pytest
from scipy.linalg import solve_banded

from qhedge import _kernels


def random_tridiag(rng, m, n):
    # diagonally dominant so both solvers are stable
    dl = rng.uniform(-1, 1, (m, n))
    du = rng.uniform(-1, 1, (m, n))
    dl[:, 0] = 0.0
    du[:, -1] = 0.0
    dd = 2.5 + np.abs(dl) + np.abs(du) + rng.uniform(0, 1, (m, n))
    rhs = rng.uniform(-5, 5, (m, n))
    return dl, dd, du, rhs


def test_thomas_numpy_matches_scipy():
    rng = np.random.default_rng(0)
    dl, dd, du, rhs = random_tridiag(rng, 4, 12)
    x = _kernels.thomas_batch(dl, dd, du, rhs)
    for i in range(4):
        ab = np.zeros((3, 12))
        ab[0, 1:] = du[i, :-1]
        ab[1] = dd[i]
        ab[2, :-1] = dl[i, 1:]
        ref = solve_banded((1, 1), ab, rhs[i])
        assert np.allclose(x[i], ref, atol=1e-12)


def test_radial_paths_bridge_splits_steps_near_floor():
    # a large negative increment within one coarse step dives through the
    # floor; the step is redone as two bridge half-steps and clamped there
    y0 = np.array([0.1])
    K = 2
    dt = 0.25
    dw = np.array([[-1.0, 0.2]])
    xi = np.zeros((1, K))
    y, lz, n_clamped = _kernels.bessel3_log_paths(y0, dw, xi, dt, 0.0)
    assert np.all(np.isfinite(y)) and np.all(np.isfinite(lz))
    assert y.min() >= -1e-12
    assert n_clamped >= 1
    # the same inputs with the floor far below take the unguarded step
    y2, _, n2 = _kernels.bessel3_log_paths(y0, dw, xi, dt, -1e6)
    assert n2 == 0
    assert y2[0, 1] < 0.0


def test_radial_paths_reduce_to_plain_euler_away_from_floor():
    # with the floor far below, no bridge step fires and the recursion is
    # the plain log-Euler map, checked by hand for one step
    y0 = np.array([0.0])
    dt = 0.5
    dw = np.array([[0.3]])
    xi = np.zeros((1, 1))
    y, lz, n = _kernels.bessel3_log_paths(y0, dw, xi, dt, -1e6)
    drift = 0.5 * np.exp(0.0) * np.exp(0.0) * dt
    assert y[0, 1] == pytest.approx(0.0 + drift + 0.3, abs=1e-15)
    assert lz[0, 1] == pytest.approx(-drift - 0.3, abs=1e-15)
    assert n == 0


def test_backend_reports_environment():
    assert _kernels.backend() == "numpy"
