"""Numpy kernels against references."""
import numpy as np
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


def test_backend_reports_environment():
    assert _kernels.backend() == "numpy"
