"""Grid comparison, the terminal slice and surface interpolation for the
tests; the package itself reads surfaces only on their nodes."""
import numpy as np


def axes_equal(a, b) -> bool:
    """Whether two GridSpecs have the same domain and identical axes."""
    return (
        a.domain == b.domain
        and a.dim == b.dim
        and np.array_equal(a.t, b.t)
        and all(np.array_equal(x, y) for x, y in zip(a.x_axes, b.x_axes))
        and np.array_equal(a.z, b.z)
    )


def terminal(surface):
    """The values at the last time node."""
    return surface.values[-1]


def surface_eval(surface, t, *coords):
    """Multilinear interpolation of a Surface at (t, x..., z) points
    (scalars or arrays), clamped to the grid box."""
    axes = (surface.grid.t,) + surface.grid.x_axes + (surface.grid.z,)
    if len(coords) != len(axes) - 1:
        raise ValueError(f"expected {len(axes) - 1} coordinates after t")
    pts = np.broadcast_arrays(*(np.asarray(c, dtype=float) for c in (t,) + coords))
    out_shape = pts[0].shape
    flat = [p.ravel() for p in pts]
    idx = []
    wts = []
    for ax, p in zip(axes, flat):
        i = np.clip(np.searchsorted(ax, p, side="right") - 1, 0, ax.size - 2)
        w = (p - ax[i]) / (ax[i + 1] - ax[i])
        idx.append(i)
        wts.append(np.clip(w, 0.0, 1.0))
    acc = np.zeros(flat[0].size)
    k = len(axes)
    for corner in range(1 << k):
        sel = tuple(idx[a] + ((corner >> a) & 1) for a in range(k))
        weight = np.ones(flat[0].size)
        for a in range(k):
            wa = wts[a]
            weight = weight * (wa if (corner >> a) & 1 else 1.0 - wa)
        acc += weight * surface.values[sel]
    return acc.reshape(out_shape) if out_shape else float(acc[0])
