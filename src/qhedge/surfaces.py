"""Value surfaces on rectilinear (t, x, q) or (t, x, p) grids, and their
serialization.

Binary container: magic b"QHSURF01", a little-endian uint64 header length,
a JSON header (axis lengths, domain, epsilon, metadata), then the raw
float64 payload: t axis, each x axis, the q-or-p axis, and the value array
in C order.  Axes and values round-trip bit-exactly.

CSV long format: header t,x1[,x2],<q|p>,value and one row per node,
printed with %.17g so parsing back reproduces the exact doubles.  The
writer formats each axis node once and, per time level, only the values;
the bytes are those of formatting every column of every row with %.17g.
"""
from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field

import numpy as np

_MAGIC = b"QHSURF01"


@dataclass(frozen=True)
class GridSpec:
    t: np.ndarray
    x_axes: tuple
    z: np.ndarray
    domain: str
    epsilon: float

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        z = np.asarray(self.z, dtype=float)
        xs = tuple(np.asarray(ax, dtype=float) for ax in self.x_axes)
        # every comparison below is written so that a NaN fails it
        if not all(np.isfinite(arr).all() for arr in (t, z) + xs):
            raise ValueError("grid nodes must be finite")
        if t.size < 3 or not np.all(np.diff(t) > 0):
            raise ValueError("need >= 3 strictly increasing time nodes")
        dt = np.diff(t)
        if not np.allclose(dt, dt[0], rtol=1e-9, atol=0.0):
            raise ValueError("time nodes must be uniform")
        if not 1 <= len(xs) <= 2:
            raise ValueError("one or two spatial axes supported")
        for ax in xs:
            if ax.size < 3 or not (np.all(np.diff(ax) > 0) and ax[0] > 0):
                raise ValueError("x axes must be strictly increasing with x_min > 0, >= 3 nodes")
        if z.size < 3 or not np.all(np.diff(z) > 0):
            raise ValueError("need >= 3 strictly increasing q-or-p nodes")
        if self.domain not in ("q", "p"):
            raise ValueError("domain must be 'q' or 'p'")
        if self.domain == "p" and (z[0] < -1e-15 or z[-1] > 1.0 + 1e-15):
            raise ValueError("p axis must lie in [0, 1]")
        if not self.epsilon >= 0:
            raise ValueError("epsilon must be >= 0")
        for arr in (t, z) + xs:
            arr.flags.writeable = False
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "x_axes", xs)
        object.__setattr__(self, "z", z)

    @classmethod
    def regular(cls, t0: float, T: float, n_t: int, x_min, x_max, n_x, n_z: int,
                domain: str, z_max: float | None = None, epsilon: float = 0.0) -> "GridSpec":
        """Uniform t axis, log-uniform x axes, uniform q-or-p axis.

        x_min/x_max/n_x may be scalars (d=1) or length-2 sequences (d=2);
        q-domain needs z_max, p-domain spans [0, 1].
        """
        x_min = np.atleast_1d(np.asarray(x_min, dtype=float))
        x_max = np.atleast_1d(np.asarray(x_max, dtype=float))
        n_x = np.atleast_1d(np.asarray(n_x, dtype=int))
        if not (x_min.size == x_max.size == n_x.size):
            raise ValueError("x_min, x_max, n_x must have matching lengths")
        if domain == "q" and z_max is None:
            raise ValueError("q-domain grid needs z_max")
        # a bound that is not finite, or an x bound <= 0, makes nodes that
        # are not finite or not positive, which __post_init__ rejects
        with np.errstate(divide="ignore", invalid="ignore"):
            xs = tuple(
                np.exp(np.linspace(np.log(lo), np.log(hi), int(m)))
                for lo, hi, m in zip(x_min, x_max, n_x)
            )
            z = np.linspace(0.0, float(z_max) if domain == "q" else 1.0, n_z)
            t = np.linspace(t0, T, n_t)
        return cls(t, xs, z, domain, float(epsilon))

    @property
    def dim(self) -> int:
        return len(self.x_axes)

    @property
    def shape(self) -> tuple:
        return (self.t.size,) + tuple(ax.size for ax in self.x_axes) + (self.z.size,)

    @property
    def dt(self) -> float:
        return float(self.t[1] - self.t[0])

    @property
    def dz(self) -> float:
        return float(self.z[1] - self.z[0])


@dataclass(frozen=True)
class Surface:
    grid: GridSpec
    values: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.grid.shape:
            raise ValueError(f"values shape {v.shape} != grid shape {self.grid.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("surface values must be finite")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)


def write_surface_csv(surface: Surface, path) -> None:
    g = surface.grid
    xcols = ",".join(f"x{i + 1}" for i in range(g.dim))
    header = f"t,{xcols},{g.domain},value"

    def fmt(axis):
        return list(map("%.17g".__mod__, axis.tolist()))

    # the lines of one time level as one template, "\0,x1[,x2],z,%.17g"
    # per node, with \0 standing for t: every axis node is formatted once,
    # and each level fills in its t and formats its values in one call
    heads = [""]
    for axis in g.x_axes + (g.z,):
        heads = [head + node + "," for head in heads for node in fmt(axis)]
    level = "".join("\0," + head + "%.17g\n" for head in heads)
    values = surface.values.reshape(g.t.size, -1)
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for t, slab in zip(fmt(g.t), values):
            fh.write(level.replace("\0", t) % tuple(slab.tolist()))


def write_surface_bin(surface: Surface, path) -> None:
    g = surface.grid
    header = {
        "format": 1,
        "domain": g.domain,
        "epsilon": g.epsilon,
        "n_t": int(g.t.size),
        "n_x": [int(ax.size) for ax in g.x_axes],
        "n_z": int(g.z.size),
        "meta": surface.meta,
    }
    blob = json.dumps(header, sort_keys=True).encode("ascii")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        fh.write(np.ascontiguousarray(g.t).tobytes())
        for ax in g.x_axes:
            fh.write(np.ascontiguousarray(ax).tobytes())
        fh.write(np.ascontiguousarray(g.z).tobytes())
        fh.write(np.ascontiguousarray(surface.values).tobytes())


def read_surface_bin(path) -> Surface:
    with open(path, "rb") as fh:
        magic = fh.read(len(_MAGIC))
        if magic != _MAGIC:
            raise ValueError(f"not a surface container: bad magic {magic!r}")
        (hlen,) = struct.unpack("<Q", fh.read(8))
        header = json.loads(fh.read(hlen).decode("ascii"))
        if header.get("format") != 1:
            raise ValueError(f"unsupported container format {header.get('format')}")

        def arr(count):
            buf = fh.read(8 * count)
            if len(buf) != 8 * count:
                raise ValueError("truncated surface container")
            return np.frombuffer(buf, dtype="<f8").copy()

        t = arr(header["n_t"])
        xs = tuple(arr(m) for m in header["n_x"])
        z = arr(header["n_z"])
        shape = (header["n_t"], *header["n_x"], header["n_z"])
        values = arr(int(np.prod(shape))).reshape(shape)
    grid = GridSpec(t, xs, z, header["domain"], float(header["epsilon"]))
    return Surface(grid, values, dict(header.get("meta", {})))
