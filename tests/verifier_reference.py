"""One-pass reference for the supersolution verifier.

This is the verifier as it was before it worked in slabs of time levels:
the residual of every interior node in one call, with about eight
temporaries the size of the surface, and the counts and the worst node
taken over the whole residual at once.  The tests compare the slab
verifier in `qhedge.pde` with it, report field by report field.
"""
import numpy as np

from qhedge.pde import (_MID, _P_WINDOW, _TERMINAL_TOL, _TIME_MARGIN, _TOL_CONVEX,
                        SupersolutionReport, _coefficients, _cross_diff, _d2_weights,
                        _along, _mesh, _resolved_mask, _second_diff, _view,
                        default_residual_tol)


def hjb_residual(U_surface, model):
    """(residual, curvature, n_nonconvex) on every interior node."""
    g = U_surface.grid
    d = g.dim
    U = U_surface.values
    dp = g.dz
    A = _coefficients(model, g.x_axes, g.epsilon)[2]
    inner = (_MID,) * d

    def sym_sum(M, entry):
        total = None
        n = M.shape[-1]
        for i in range(n):
            for j in range(i, n):
                term = entry(i, j)
                term *= M[..., i, j][inner][None, ..., None] * (1.0 if i == j else 2.0)
                total = term if total is None else np.add(total, term, out=total)
        return total

    Ui = U[1:-1]
    Ux = Ui[(slice(None),) + inner]
    Up = (Ux[..., 2:] - Ux[..., :-2]) / (2.0 * dp)
    Upp = (Ux[..., 2:] - 2.0 * Ux[..., 1:-1] + Ux[..., :-2]) / (dp * dp)
    spans = [_along(x[2:] - x[:-2], 1 + i, d + 2) for i, x in enumerate(g.x_axes)]
    Uxp = [_cross_diff(Ui, 1 + i, 1 + d, lead=1) / (spans[i] * (2.0 * dp)) for i in range(d)]

    def U_xx(i, j):
        if i == j:
            return _second_diff(Ui, 1 + i, _d2_weights(g.x_axes[i]), lead=1)
        return _cross_diff(Ui, 1 + i, 1 + j, lead=1) / (spans[i] * spans[j])

    v = Uxp + [-Up]
    res = sym_sum(A[..., :d, :d], U_xx)
    quad = sym_sum(A, lambda i, j: v[i] * v[j])
    floor = 64.0 * np.finfo(float).eps * max(1.0, float(np.abs(U).max()))
    nonconvex = ~_resolved_mask(Upp > floor / (dp * dp))
    with np.errstate(divide="ignore", invalid="ignore"):
        res *= 0.5
        res += (_view(U[2:], 1) - _view(U[:-2], 1)) / (2.0 * g.dt)
        res -= np.divide(quad, 2.0 * Upp, out=quad)
    res[nonconvex] = np.nan
    return res, Upp, int(nonconvex.sum())


def verify_supersolution(u_surface, model, payoff, tol=None):
    g = u_surface.grid
    if tol is None:
        tol = default_residual_tol(g)

    p = g.z
    gx = payoff(_mesh(g.x_axes)).reshape(tuple(ax.size for ax in g.x_axes))
    target = gx[..., None] * p
    terminal_err = float(np.abs(u_surface.values[-1] - target).max())
    terminal_ok = terminal_err <= _TERMINAL_TOL

    res, Upp, n_nonconvex = hjb_residual(u_surface, model)

    t_int = g.t[1:-1]
    tau = g.t[-1] - t_int
    keep_t = tau >= _TIME_MARGIN * (g.t[-1] - g.t[0])
    p_int = p[1:-1]
    keep_p = (p_int >= _P_WINDOW[0]) & (p_int <= _P_WINDOW[1])
    window = (keep_t.reshape((-1,) + (1,) * (res.ndim - 1))
              & keep_p.reshape((1,) * (res.ndim - 1) + (-1,)))

    checkable = window & (Upp > _TOL_CONVEX) & np.isfinite(res)
    auto = window & ~(Upp > _TOL_CONVEX)
    checked = res[checkable]
    n_checked = int(checkable.sum())
    if n_checked:
        max_residual = float(checked.max())
        flat = np.where(checkable, res, -np.inf)
        idx = np.unravel_index(int(np.argmax(flat)), res.shape)
        coords = [float(t_int[idx[0]])]
        for a, ax in enumerate(g.x_axes):
            coords.append(float(ax[1:-1][idx[1 + a]]))
        coords.append(float(p_int[idx[-1]]))
        worst_node = tuple(coords)
        n_violations = int((checked > tol).sum())
    else:
        max_residual = float("-inf")
        worst_node = None
        n_violations = 0

    notes = (
        f"residual checked on tau >= {_TIME_MARGIN:g}*(T-t0), p in [{_P_WINDOW[0]:g}, {_P_WINDOW[1]:g}]; "
        "pointwise FD surrogate, not a test-function verification"
    )
    return SupersolutionReport(
        passed=terminal_ok and n_violations == 0,
        terminal_ok=terminal_ok,
        terminal_max_err=terminal_err,
        terminal_tol=_TERMINAL_TOL,
        max_residual=max_residual,
        n_checked=n_checked,
        n_violations=n_violations,
        n_auto_pass=int(auto.sum()),
        n_nonconvex=n_nonconvex,
        tol=float(tol),
        tol_convex=_TOL_CONVEX,
        worst_node=worst_node,
        notes=notes,
    )
