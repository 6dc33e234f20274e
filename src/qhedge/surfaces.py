"""Value surfaces on rectilinear (t, x, q) or (t, x, p) grids, and their
serialization.

Binary container: magic b"QHSURF01", a little-endian uint64 header length,
a JSON header (axis lengths, domain, epsilon, metadata), then the raw
float64 payload: t axis, each x axis, the q-or-p axis, and the value array
in C order.  Axes and values round-trip bit-exactly; the reader rejects a
container that is cut short or has bytes after the payload.

Memory: the writer hands each array to the file through the buffer
protocol, with no copy of the payload.  The reader checks every length the
header claims against the file's size before it allocates, then reads the
payload once, into the one array the surface keeps, so it holds about one
payload.  A surface's finiteness check takes its min and max, with no
surface-sized temporary.

CSV long format: header t,x1[,x2],<q|p>,value and one row per node,
printed with %.17g so parsing back reproduces the exact doubles.  The
writer formats each axis node once and keeps the text of every x-and-q
node of a level in one list, which it holds for the whole surface.  It
then formats the value column as arrays and joins the rows one chunk of
_CSV_CHUNK (4096) nodes of a level at a time, so that its scratch beyond
that list does not grow with the surface.  The bytes are those of
formatting every column of every row with %.17g.  A normal value v with
|v| < 1e16 gets its 17 significant digits as arrays: |v| times 10**(16 -
k), k = floor(log10 |v|) checked against the product, is rounded
half-even, as the correctly rounded %.17g does.  Up to 10**22 the power
is a double and the product is exact (Dekker's TwoProduct); for |v|
below 1e-6 the power is a double-double 2**s (hi + lo), and the product
is TwoProduct's on hi plus the low part's, within a known error bound
(after Loitsch, PLDI 2010).  The text comes from tables of 4-digit
groups; below 1e-4 it takes the exponent form, "e-" and -k appended.
Exact zeros print as 0 or -0 on the same path.  Subnormals, |v| >= 1e16
and the values whose scaled remainder lies within the error bound of a
half take b"%.17g" % v one by one: the exact ties at the 17th digit
(dyadics with short mantissas), and in practice no others.
"""
from __future__ import annotations

import functools
import json
import math
import os
import struct
import sys
from dataclasses import dataclass, field
from fractions import Fraction

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
        for name, arr in (("t", t), ("q-or-p", z)) + tuple(
                (f"x{i}", ax) for i, ax in enumerate(xs, start=1)):
            if arr.ndim != 1:
                raise ValueError(f"the {name} axis must be 1-d, got shape {arr.shape}")
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
        # min and max propagate NaN, and take no surface-sized temporary
        if not (np.isfinite(v.min()) and np.isfinite(v.max())):
            raise ValueError("surface values must be finite")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)


_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter for binary64
# 10**j for j = 16 - k, k >= -308 the decimal exponent of a normal double
_POW10_SPAN = 16 + 309
_POW10_INT = 10 ** np.arange(17, dtype=np.int64)
# 17 digits are written as groups of 4, 4, 4, 4 and 1, one uint32 word
# each; the place values of the first four groups
_GROUP_UNITS = (10 ** 13, 10 ** 9, 10 ** 5, 10)
# what the scaled remainder may be off by where 10**j is not a double:
# below 2**-47 (lo's own rounding and that of its product, each at most
# 2**-49 on a product below 10**17, and the sum's, 2**-48), with room
_TIE_GUARD = 2.0 ** -40


def _digit_table() -> np.ndarray:
    """ASCII text of the numbers below 10 000 as little-endian uint32 words
    (NUL-padded), in four blocks of 10 000: the four digits; the four
    digits with trailing zeros cut; "." and the last three digits; and that
    with trailing zeros cut, empty when the three digits are all zero."""
    i = np.arange(10000)
    digits = (i // np.array([[1000], [100], [10], [1]]) % 10 + 48).astype(np.uint8)
    trailing = np.logical_and.accumulate(digits[::-1] == 48, axis=0)[::-1]
    dotted = np.concatenate([np.full((1, i.size), 46, np.uint8), digits[1:]])
    cut = np.concatenate([(i % 1000 == 0)[None], trailing[1:]])
    blocks = [digits, np.where(trailing, 0, digits), dotted, np.where(cut, 0, dotted)]
    return np.ascontiguousarray(np.concatenate(blocks, axis=1).T).view("<u4").ravel()


def _exponent_words(texts) -> np.ndarray:
    """(5, len(texts)) little-endian uint32 words of 20-byte NUL-padded texts."""
    raw = b"".join(text.ljust(20, b"\0") for text in texts)
    return np.frombuffer(raw, "<u4").reshape(len(texts), 5).T.copy()


_CUT, _DOT = 10000, 20000  # offsets of the digit table's blocks


@functools.cache
def _g17_tables() -> tuple:
    """The digit table; per decimal exponent k = -4..16 (row k + 4), the
    mask that keeps the integer part's first k + 1 digits and, below 1,
    the integer part "0." and -1 - k zeros; and per n = 0..308 the
    exponent text "e-n", n with at least two digits.  Built on first use,
    so that a run that writes no CSV does not pay for them."""
    tables = (_digit_table(),
              _exponent_words([b"\xff" * (k + 1) for k in range(-4, 17)]),
              _exponent_words([b"0." + b"0" * (-1 - k) for k in range(-4, 0)] + [b""] * 17))
    for table in tables:
        table.flags.writeable = False
    return tables + (tuple(b"e-%02d" % n for n in range(_POW10_SPAN - 16)),)


@functools.cache
def _pow10_table() -> tuple:
    """Per j < _POW10_SPAN: 2**s, hi and lo with 10**j = 2**s (hi + lo + r),
    hi the double nearest 10**j / 2**s, lo the double nearest the rest and
    |r| <= 2**-53 |lo|.  Up to j = 22, 10**j is a double: s = 0, hi = 10**j
    and lo = 0.  Above, hi lies in [2**73, 2**74), where 10**22 lies, so
    that hi's split and a 2**s stay in range.  Built on first use."""
    shift = [max(0, (10 ** j).bit_length() - 74) for j in range(_POW10_SPAN)]
    exact = [Fraction(10 ** j, 1 << s) for j, s in enumerate(shift)]
    hi = [float(f) for f in exact]
    tables = (np.ldexp(1.0, shift), np.array(hi),
              np.array([float(f - Fraction(h)) for f, h in zip(exact, hi)]))
    for table in tables:
        table.flags.writeable = False
    return tables


def _round_scaled(a: np.ndarray, k: np.ndarray):
    """floor(a * 10**(16 - k)), the product rounded half to even and the
    lanes left undecided, for normal a < 1e16 and 16 - k in [0,
    _POW10_SPAN), where the product is at least 10**16.

    a 2**s is exact, and TwoProduct gives (a 2**s) hi as p + e exactly.
    A product of at least 10**16 > 2**53 makes p an even integer, so p +
    rint(e + a 2**s lo) rounds half to even.  Where 10**j is a double, lo
    is 0 and both results are exact.  Elsewhere the remainder is off by
    less than _TIE_GUARD: the rounding is right on every lane whose
    remainder lies farther than that from a half, and the floor is off by
    at most one, only next to an integer, which moves k at 10**16 or
    10**17 by one where the carry moves it back.  The undecided lanes,
    those within _TIE_GUARD of a half, are the exact ties at the 17th
    digit, and in practice no others."""
    twos, hi, lo = _pow10_table()
    j = 16 - k
    b = hi.take(j)
    a = a * twos.take(j)
    p = a * b
    c = a * _SPLIT
    a_hi = c - (c - a)
    a_lo = a - a_hi
    c = b * _SPLIT
    b_hi = c - (c - b)
    b_lo = b - b_hi
    e = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    e += a * lo.take(j)
    r = np.rint(e)
    rounded = p.astype(np.int64) + r.astype(np.int64)
    return rounded - (r > e), rounded, np.abs(e - r) > 0.5 - _TIE_GUARD


def _format_g17(values: np.ndarray) -> tuple[list, list]:
    """b"%.17g" % v for each v of a 1-D float array, as two lists of bytes
    whose items concatenate to it: the sign and integer part ("0.0.." below
    1, the first digit in exponent form), and the fraction with its "."
    and any exponent."""
    n = values.size
    a = np.abs(values)
    fast = (a >= sys.float_info.min) & (a < 1e16)
    zero = a == 0
    # the other lanes are computed on 1.0, which prints as "1", and
    # replaced: a zero by "0", the rest by the per-value fallback
    a = np.where(fast, a, 1.0)
    k = np.floor(np.log10(a)).astype(np.int64)
    floor, D, undecided = _round_scaled(a, k)
    off = np.flatnonzero((floor < 10 ** 16) | (floor >= 10 ** 17))
    if off.size:  # log10 rounded across a power of ten: k is one off
        k[off] += np.where(floor[off] < 10 ** 16, -1, 1)
        _, D[off], undecided[off] = _round_scaled(a[off], k[off])
    # rounding up to the next power of ten
    carry = D == 10 ** 17
    D[carry] = 10 ** 16
    k += carry
    # D holds the 17 significant digits and k the decimal exponent, so the
    # value prints as D's first k + 1 digits, "." and the rest; below 1, as
    # "0.", -1 - k zeros and D; below 1e-4, in exponent form, as the first
    # digit, "." and the rest, then "e-" and -k.  Trailing zeros of the
    # fraction are cut.
    digits, int_mask, int_prefix, exponents = _g17_tables()
    expo = np.flatnonzero(k < -4)
    place = k.copy()
    place[expo] = 0  # the exponent form's digits are those of k = 0
    row = place + 4
    ints = np.zeros((n, 5), "<u4")
    words = (int(place.max()) + 4) // 4  # the groups the longest integer part fills
    rest = D
    for j, unit in enumerate(_GROUP_UNITS[:words]):
        group = rest // unit
        rest = rest - group * unit
        ints[:, j] = digits[group] & int_mask[j, row]
    if words == 5:
        ints[:, 4] = digits[rest * 1000] & int_mask[4, row]
    ints[:, 0] |= int_prefix[0, row]
    ints[:, 1] |= int_prefix[1, row]
    ints[zero, 0] = 48
    # the fraction digits, left-aligned: 16 after "." (grouped 3, 4, 4, 4,
    # 1) from 1 up, all 17 of D (grouped 4, 4, 4, 4, 1) below 1
    whole = np.maximum(place, 0)
    scale = _POW10_INT[16 - whole]
    rest = np.where(place < 0, D, (D - D // scale * scale) * _POW10_INT[whole])
    fracs = np.empty((n, 5), "<u4")
    block = np.where(place < 0, 0, _DOT)  # from 1 up, the first group follows "."
    for j, unit in enumerate(_GROUP_UNITS):
        group = rest // unit
        rest = rest - group * unit
        # a group with only zeros after it loses its trailing zeros
        fracs[:, j] = digits[group + block + _CUT * (rest == 0)]
        block = 0
    fracs[:, 4] = digits[rest * 1000 + _CUT]
    neg = np.signbit(values)
    if neg.any():  # shift the integer part one byte right, behind a "-"
        signed = ints << 8
        signed[:, 1:] |= ints[:, :-1] >> 24
        signed[:, 0] |= 45
        ints = np.where(neg[:, None], signed, ints)
    heads = ints.view("S20").ravel().tolist()
    tails = fracs.view("S20").ravel().tolist()
    for i, x in zip(expo.tolist(), (-k[expo]).tolist()):
        tails[i] += exponents[x]
    # the fallback, its whole text in the head
    slow = np.flatnonzero(~(fast | zero) | undecided)
    for i, v in zip(slow.tolist(), values[slow].tolist()):
        heads[i], tails[i] = b"%.17g" % v, b""
    return heads, tails


# surface nodes per chunk of write_surface_csv, so that its scratch stays
# within a few MB on any surface
_CSV_CHUNK = 4096


def write_surface_csv(surface: Surface, path) -> None:
    g = surface.grid
    xcols = ",".join(f"x{i + 1}" for i in range(g.dim))
    header = f"t,{xcols},{g.domain},value".encode("ascii")

    def fmt(axis):
        return list(map(b"%.17g".__mod__, axis.tolist()))

    # a row is four parts: "\n" t ",", the nodes "x1[,x2],z," and the
    # value's two parts.  It starts with the newline that ends the row
    # before it, so that the first part is the same for a whole level;
    # every axis node is formatted once.
    nodes = [b""]
    for axis in g.x_axes + (g.z,):
        nodes = [head + node + b"," for head in nodes for node in fmt(axis)]
    # a level is formatted and joined _CSV_CHUNK nodes at a time, in one
    # parts list; a shorter last chunk takes a slice of it
    chunk = min(_CSV_CHUNK, len(nodes))
    parts = [b""] * (4 * chunk)
    values = surface.values.reshape(g.t.size, -1)
    with open(path, "wb") as fh:
        fh.write(header)
        for t, level in zip(fmt(g.t), values):
            parts[0::4] = [b"\n" + t + b","] * chunk
            for lo in range(0, len(nodes), chunk):
                hi = min(lo + chunk, len(nodes))
                some = parts if hi - lo == chunk else parts[:4 * (hi - lo)]
                some[1::4] = nodes[lo:hi]
                some[2::4], some[3::4] = _format_g17(level[lo:hi])
                fh.write(b"".join(some))
        fh.write(b"\n")


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
        # through the buffer protocol: no copy of a C-ordered little-endian
        # array
        for arr in (g.t, *g.x_axes, g.z, surface.values):
            fh.write(np.ascontiguousarray(arr, dtype="<f8"))


def read_surface_bin(path) -> Surface:
    with open(path, "rb") as fh:
        magic = fh.read(len(_MAGIC))
        if magic != _MAGIC:
            raise ValueError(f"not a surface container: bad magic {magic!r}")
        # every length the file claims is checked against its size before
        # anything of that length is read or allocated
        size = os.fstat(fh.fileno()).st_size - len(_MAGIC)
        raw = fh.read(8)
        if len(raw) < 8:
            raise ValueError("truncated surface container")
        (hlen,) = struct.unpack("<Q", raw)
        if hlen > size - 8:
            raise ValueError(f"truncated surface container: a {hlen}-byte header "
                             f"in {size - 8} bytes")
        header = json.loads(fh.read(hlen).decode("ascii"))
        if not isinstance(header, dict):
            raise ValueError(f"surface header must be a JSON object, not {type(header).__name__}")
        if header.get("format") != 1:
            raise ValueError(f"unsupported container format {header.get('format')}")
        n_x, epsilon, meta = header.get("n_x"), header.get("epsilon"), header.get("meta", {})
        if not isinstance(n_x, list):
            raise ValueError(f"n_x must be a list of axis lengths, not {n_x!r}")
        # bool is an int to isinstance, and never a length or an epsilon
        counts = [header.get("n_t"), *n_x, header.get("n_z")]
        if not all(type(c) is int and c >= 0 for c in counts):
            raise ValueError(f"axis lengths must be nonnegative integers, not {counts}")
        if type(epsilon) not in (int, float):
            raise ValueError(f"epsilon must be a number, not {epsilon!r}")
        if not isinstance(meta, dict):
            raise ValueError(f"meta must be a JSON object, not {type(meta).__name__}")
        n = sum(counts) + math.prod(counts)
        end = 8 + hlen + 8 * n
        if size < end:
            raise ValueError("truncated surface container")
        if size > end:
            raise ValueError(f"{size - end} trailing bytes after the surface payload")
        # the payload once, straight into the array the surface keeps
        data = np.empty(n, dtype="<f8")
        if fh.readinto(data) != data.nbytes:
            raise ValueError("truncated surface container")
    t, *xs, z, values = np.split(data, np.cumsum(counts))
    grid = GridSpec(t, tuple(xs), z, header.get("domain"), float(epsilon))
    return Surface(grid, values.reshape(counts), meta)
