"""Numpy and LAPACK kernels against references."""
import numpy as np
import pytest
from scipy.linalg import solve_banded

from qhedge import _kernels
from qhedge.errors import Nonfinite


def random_tridiag(rng, m, n):
    # diagonally dominant, like the implicit diffusion sweeps; dl[:, 0] and
    # du[:, -1] are not zero, and must be ignored
    dl = rng.uniform(-1, 1, (m, n))
    du = rng.uniform(-1, 1, (m, n))
    dd = 2.5 + np.abs(dl) + np.abs(du) + rng.uniform(0, 1, (m, n))
    return dl, dd, du


def per_block(dl, dd, du, rhs):
    """solve_banded on each block alone; rhs (m, n, nrhs)."""
    out = np.empty_like(rhs)
    for i in range(dd.shape[0]):
        ab = np.zeros((3, dd.shape[1]))
        ab[0, 1:] = du[i, :-1]
        ab[1] = dd[i]
        ab[2, :-1] = dl[i, 1:]
        out[i] = solve_banded((1, 1), ab, rhs[i])
    return out


def test_block_factor_matches_solve_banded_per_block():
    rng = np.random.default_rng(0)
    m, n, nrhs = 5, 12, 3
    dl, dd, du = random_tridiag(rng, m, n)
    # one block far from diagonal dominance, so LAPACK pivots inside it
    dd[2] = rng.uniform(-0.2, 0.2, n)
    factors = _kernels.factor_blocks(dl, dd, du, "test sweep")
    rhs = rng.uniform(-5, 5, (m, n, nrhs))
    ref = per_block(dl, dd, du, rhs)

    def solve(b):
        # unknowns of a block contiguous, one Fortran-ordered column per rhs
        return _kernels.thomas_batch(factors, np.asfortranarray(b.reshape(m * n, nrhs)))

    x = solve(rhs)
    assert np.allclose(x.reshape(m, n, nrhs), ref, rtol=1e-12, atol=1e-12)
    # one column as a 1-d right-hand side
    one = _kernels.thomas_batch(factors, rhs[..., 0].ravel().copy())
    assert np.allclose(one.reshape(m, n), ref[..., 0], rtol=1e-12, atol=1e-12)

    # the blocks are exactly decoupled: a new right-hand side for block 3
    # leaves every other block's solution bit-identical
    changed = rhs.copy()
    changed[3] = rng.uniform(-5, 5, (n, nrhs))
    y = solve(changed).reshape(m, n, nrhs)
    others = np.arange(m) != 3
    assert np.array_equal(y[others], x.reshape(m, n, nrhs)[others])
    assert np.allclose(y[3], per_block(dl, dd, du, changed)[3], rtol=1e-12, atol=1e-12)


def test_singular_or_nonfinite_block_raises():
    rng = np.random.default_rng(1)
    dl, dd, du = random_tridiag(rng, 3, 6)
    # block 1 is [[1, 1], [1, 1]] in its first two rows and columns: the
    # second pivot is exactly zero
    dd[1, :2] = 1.0
    du[1, 0] = 1.0
    dl[1, 1] = 1.0
    dd[1, 2:] = 5.0
    dl[1, 2] = du[1, 1] = 0.0
    with pytest.raises(Nonfinite, match="q sweep at th=0.5"):
        _kernels.factor_blocks(dl, dd, du, "q sweep at th=0.5")
    dl, dd, du = random_tridiag(rng, 3, 6)
    dd[2, 4] = np.inf
    with pytest.raises(Nonfinite, match="x axis 0 sweep"):
        _kernels.factor_blocks(dl, dd, du, "x axis 0 sweep at th=0.5")


def test_backend_reports_environment():
    assert _kernels.backend() == "numpy"
