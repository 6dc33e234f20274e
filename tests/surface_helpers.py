"""Grid comparison, the terminal slice, surface interpolation and forged
surface containers for the tests; the package itself reads surfaces only
on their nodes."""
import json

import numpy as np

from qhedge.surfaces import GridSpec, Surface


def axes_equal(a, b) -> bool:
    """Whether two GridSpecs have the same domain and identical axes."""
    return (
        a.domain == b.domain
        and a.dim == b.dim
        and np.array_equal(a.t, b.t)
        and all(np.array_equal(x, y) for x, y in zip(a.x_axes, b.x_axes))
        and np.array_equal(a.z, b.z)
    )


def large_surface():
    """U = x p^2 on 257 t x 32 x x 101 p: a 6.6 MB payload, convex in p."""
    g = GridSpec.regular(0.0, 1.0, 257, 0.5, 2.0, 32, 101, "p", epsilon=0.2)
    return Surface(g, np.broadcast_to(g.x_axes[0][:, None] * g.z ** 2, g.shape).copy(), {})


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


def with_header(raw: bytes, header) -> bytes:
    """A surface container's bytes with its JSON header replaced by
    `header` (any JSON value) and the payload kept."""
    hlen = int.from_bytes(raw[8:16], "little")
    blob = json.dumps(header).encode("ascii")
    return raw[:8] + len(blob).to_bytes(8, "little") + blob + raw[16 + hlen:]


def wrongly_typed_headers(raw: bytes) -> dict:
    """Forged containers, by name, whose header has a field of the wrong
    JSON type: not an object, an n_x that is not a list, and epsilons that
    are not numbers."""
    hlen = int.from_bytes(raw[8:16], "little")
    header = json.loads(raw[16:16 + hlen])
    return {
        "array": with_header(raw, []),
        "n_x scalar": with_header(raw, dict(header, n_x=header["n_x"][0])),
        "epsilon string": with_header(raw, dict(header, epsilon="0.2")),
        "epsilon null": with_header(raw, dict(header, epsilon=None)),
        "meta list": with_header(raw, dict(header, meta=[["kind", "dual"]])),
    }
