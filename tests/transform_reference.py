"""Slice-at-a-time reference for the dual-to-primal transform.

This is the transform as it was before it worked on whole time levels:
a monotone-chain hull, the Schumaker pieces of one slice, the conjugate of
one slice, and the loop over every (t, x) slice.  The tests compare the
array code in `qhedge.duality` and `qhedge.pde` with it.
"""
import numpy as np

from qhedge.errors import ArgmaxAtBoundary


def lower_hull_indices(x, y):
    idx = []
    for i in range(x.size):
        while len(idx) >= 2:
            a, b = idx[-2], idx[-1]
            # drop b unless (a, b, i) turns strictly upward
            if (y[i] - y[a]) * (x[b] - x[a]) <= (y[b] - y[a]) * (x[i] - x[a]):
                idx.pop()
            else:
                break
        idx.append(i)
    return idx


def convex_envelope(x, y):
    hull = lower_hull_indices(x, y)
    out = np.interp(x, x[hull], y[hull])
    out[hull] = y[hull]
    return out


def schumaker_pieces(qv, w):
    h = np.diff(qv)
    s = np.diff(w) / h
    n = qv.size
    d = np.empty(n)
    if n == 2:
        d[:] = s
    else:
        d[1:-1] = (s[:-1] * h[1:] + s[1:] * h[:-1]) / (h[1:] + h[:-1])
        d[0] = max(0.0, 2.0 * s[0] - d[1])
        d[-1] = 2.0 * s[-1] - d[-2]
    np.maximum.accumulate(d, out=d)
    d1 = np.maximum(s - d[:-1], 0.0)
    d2 = np.maximum(d[1:] - s, 0.0)
    tot = d1 + d2
    safe = np.where(tot > 0.0, tot, 1.0)
    a = np.where(tot > 0.0, h * d2 / safe, h)
    b = h - a
    with np.errstate(divide="ignore", invalid="ignore"):
        rate_l = np.where(a > 0.0, d1 / np.where(a > 0.0, a, 1.0), 0.0)
        rate_r = np.where(b > 0.0, d2 / np.where(b > 0.0, b, 1.0), 0.0)
    w_knot = w[:-1] + 0.5 * (d[:-1] + s) * a
    starts = np.stack([qv[:-1], qv[:-1] + a]).T.ravel()
    lens = np.stack([a, b]).T.ravel()
    vals = np.stack([w[:-1], w_knot]).T.ravel()
    slopes = np.stack([d[:-1], s]).T.ravel()
    rates = np.stack([rate_l, rate_r]).T.ravel()
    keep = lens > 0.0
    if not keep.all():
        starts, lens = starts[keep], lens[keep]
        vals, slopes, rates = vals[keep], slopes[keep], rates[keep]
    return starts, lens, vals, slopes, rates


def conjugate_slice(qv, w, p):
    """Returns (U, top_slope, enveloped) for one slice."""
    d2 = w[:-2] - 2.0 * w[1:-1] + w[2:]
    enveloped = False
    if d2.size and d2.min() < -1e-8:
        w = convex_envelope(qv, w)
        enveloped = True
    q0, seg, w0, sl0, rate = schumaker_pieces(qv, w)
    k = np.clip(np.searchsorted(sl0, p, side="right") - 1, 0, sl0.size - 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        u = (p - sl0[k]) / rate[k]
    u = np.where(np.isnan(u), 0.0, u)
    u = np.clip(u, 0.0, seg[k])
    qstar = q0[k] + u
    wstar = w0[k] + (sl0[k] + 0.5 * rate[k] * u) * u
    U = p * qstar - wstar
    top = float(sl0[-1] + rate[-1] * seg[-1])
    sat = p >= top
    if sat.any():
        U[sat] = p[sat] * qv[-1] - w[-1]
    U[p == 0.0] = 0.0
    return U, top, enveloped


def dual_to_primal(w_surface, p, tolerance=0.02):
    """Returns (values, enveloped_slices, saturated_slices)."""
    g = w_surface.grid
    q = g.z
    nt = g.t.size
    xshape = tuple(ax.size for ax in g.x_axes)
    nslices = int(np.prod(xshape))
    wflat = w_surface.values.reshape(nt, nslices, q.size)
    gx = q[-1] - wflat[-1, :, -1]
    covered = 4.0 * gx <= q[-1] * (1.0 + 1e-12)
    out = np.empty((nt, nslices, p.size))
    out[-1] = p[None, :] * gx[:, None]
    n_env = 0
    n_sat = 0
    for k in range(nt - 1):
        for i in range(nslices):
            U, top, enveloped = conjugate_slice(q, wflat[k, i].copy(), p)
            n_env += int(enveloped)
            if top < 1.0 - tolerance:
                n_sat += 1
                if covered[i]:
                    raise ArgmaxAtBoundary(
                        f"slice t-index {k}, x-slice {i}: maximizer at q_max for "
                        f"p >= {top:.4f} although q_max >= 4 g(x); enlarge q_max"
                    )
            out[k, i] = U
    return out.reshape((nt,) + xshape + (p.size,)), n_env, n_sat
