"""Grid containers, interpolation, and the CSV / binary persistence pair."""
import json
import math
import os
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhedge import mc, pde, surfaces
from qhedge.market import builtin_model, linear_payoff
from qhedge.surfaces import (GridSpec, Surface, _format_g17, read_surface_bin,
                             write_surface_bin, write_surface_csv)
from memory_helpers import traced_peak
from surface_helpers import (axes_equal, large_surface, surface_eval, terminal, with_header,
                             wrongly_typed_headers)


def small_grid(domain="q", epsilon=0.1):
    return GridSpec.regular(0.0, 1.0, 5, 0.5, 2.0, 6, 7, domain,
                            z_max=3.0 if domain == "q" else None,
                            epsilon=epsilon)


def small_surface():
    g = small_grid()
    tt, xx, zz = np.meshgrid(g.t, g.x_axes[0], g.z, indexing="ij")
    vals = tt + xx * 10 + zz * 100
    return Surface(g, vals, {"tag": "unit"})


def test_regular_grid_axes():
    g = small_grid()
    assert g.t.size == 5 and g.t[0] == 0.0 and g.t[-1] == 1.0
    assert g.dim == 1
    x = g.x_axes[0]
    assert x[0] == pytest.approx(0.5) and x[-1] == pytest.approx(2.0)
    # log-uniform: constant ratios
    r = x[1:] / x[:-1]
    assert np.allclose(r, r[0])
    assert g.z[0] == 0.0 and g.z[-1] == 3.0
    assert np.allclose(np.diff(g.z), g.dz)
    assert g.shape == (5, 6, 7)
    assert g.epsilon == 0.1
    p = small_grid(domain="p")
    assert p.z[-1] == 1.0
    with pytest.raises(ValueError):
        GridSpec.regular(0.0, 1.0, 5, 0.5, 2.0, 6, 7, "q")  # z_max missing


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_nodes_are_rejected(bad):
    g = small_grid()
    axes = {"t": g.t, "x": g.x_axes[0], "z": g.z}
    for name in axes:
        for k in (0, -1):
            nodes = {key: ax.copy() for key, ax in axes.items()}
            nodes[name][k] = bad
            with pytest.raises(ValueError):
                GridSpec(nodes["t"], (nodes["x"],), nodes["z"], "q", 0.1)
    for x_min, x_max, z_max in ((bad, 2.0, 3.0), (0.5, bad, 3.0), (0.5, 2.0, bad),
                                ([0.5, bad], [2.0, 2.0], 3.0)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                GridSpec.regular(0.0, 1.0, 5, x_min, x_max, np.broadcast_to(6, np.shape(x_min)),
                                 7, "q", z_max=z_max)
    with pytest.raises(ValueError):
        GridSpec(g.t, g.x_axes, g.z, "q", np.nan)


def test_two_dimensional_grid():
    g = GridSpec.regular(0.0, 1.0, 3, [0.5, 0.25], [2.0, 4.0], [4, 5], 6,
                         "q", z_max=2.0)
    assert g.dim == 2
    assert g.shape == (3, 4, 5, 6)
    assert g.x_axes[1][0] == pytest.approx(0.25)


def test_axes_that_are_not_1d_are_rejected():
    # each axis is named; an x axis passed bare, not in a tuple, makes 0-d
    # x axes
    g = small_grid(domain="p")
    t, x, p = g.t, g.x_axes[0], g.z
    for axes, name in (((t[None], (x,), p), "t"), ((t, (x[None],), p), "x1"),
                       ((t, (x, x[:, None]), p), "x2"), ((t, (x,), p[None]), "q-or-p"),
                       ((t, x, p), "x1")):
        with pytest.raises(ValueError, match=f"the {name} axis must be 1-d"):
            GridSpec(*axes, "p", 0.1)


def test_surface_eval_multilinear():
    s = small_surface()
    g = s.grid
    # exact at nodes
    assert surface_eval(s, g.t[2], g.x_axes[0][3], g.z[4]) == pytest.approx(
        g.t[2] + 10 * g.x_axes[0][3] + 100 * g.z[4], abs=1e-12)
    # linear in between: the stored function is multilinear already
    tm = 0.5 * (g.t[1] + g.t[2])
    xm = 0.5 * (g.x_axes[0][0] + g.x_axes[0][1])
    zm = 0.5 * (g.z[5] + g.z[6])
    assert surface_eval(s, tm, xm, zm) == pytest.approx(tm + 10 * xm + 100 * zm, abs=1e-12)
    # scalar in, float out; vector in, vector out
    assert isinstance(surface_eval(s, 0.5, 1.0, 1.5), float)
    out = surface_eval(s, 0.5, np.array([0.6, 1.0]), np.array([1.0, 2.0]))
    assert out.shape == (2,)


def test_surface_terminal_slice():
    s = small_surface()
    assert np.array_equal(terminal(s), s.values[-1])


def test_csv_roundtrip(tmp_path):
    s = small_surface()
    path = tmp_path / "surface.csv"
    write_surface_csv(s, path)
    with open(path) as fh:
        header = fh.readline().strip()
    assert header == "t,x1,q,value"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (5 * 6 * 7, 4)
    # last column reproduces the stored values bit-exactly through %.17g
    again = data[:, 3].reshape(s.values.shape)
    assert np.array_equal(again, s.values)


def write_rows_reference(surface, path):
    """The row-at-a-time writer: every column of every row through %.17g."""
    g = surface.grid
    xcols = ",".join(f"x{i + 1}" for i in range(g.dim))
    header = f"t,{xcols},{g.domain},value"
    mesh = np.meshgrid(g.t, *g.x_axes, g.z, indexing="ij")
    cols = [m.ravel() for m in mesh] + [surface.values.ravel()]
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fmt = ",".join(["%.17g"] * len(cols)) + "\n"
        for row in zip(*cols):
            fh.write(fmt % row)


def decimal_exponent(v: float) -> int:
    """floor(log10 |v|), exactly."""
    f = Fraction(abs(v))
    k = int(np.floor(np.log10(abs(v))))
    while Fraction(10) ** k > f:
        k -= 1
    while Fraction(10) ** (k + 1) <= f:
        k += 1
    return k


def is_17th_digit_tie(v: float) -> bool:
    """Whether v lies exactly halfway between two 17-digit decimals."""
    return (Fraction(abs(v)) * Fraction(10) ** (16 - decimal_exponent(v))).denominator == 2


def g17_edge_values() -> list:
    """Values at the edges of the %.17g kernel, both signs: powers of ten
    and their neighbours from 1e-307 to 1e18, the doubles just below a
    power of ten that round up to it, exact ties at the 17th digit, the
    ends of the fixed form [1e-4, 1e16), zeros, subnormals and the
    extremes."""
    values = []
    for j in range(-307, 19):
        p = float(f"1e{j}")
        values += [np.nextafter(p, 0.0), p, np.nextafter(p, np.inf)]
    carries = []
    for j in range(-307, 309):
        nearest = float(f"1e{j}")
        for v in (np.nextafter(nearest, 0.0), nearest):
            if Fraction(v) < Fraction(10) ** j and b"%.16e" % v == b"1.0000000000000000e%+03d" % j:
                carries.append(v)
    assert len(carries) > 10
    ties = [m * 2.0 ** -21 for m in (211, 1023, 2095)] + [m * 2.0 ** -20 for m in (1049, 4095)]
    assert all(map(is_17th_digit_tie, ties))
    values += carries + ties
    values += [np.nextafter(1e-4, 0.0), 1e-4, np.nextafter(1e-4, 1.0),
               np.nextafter(1e16, 0.0), 1e16, np.nextafter(1e16, np.inf)]
    values += [0.0, 5e-324, sys.float_info.min, np.nextafter(sys.float_info.min, 0.0),
               1e308, sys.float_info.max, 0.1 + 0.2]
    values = [float(v) for v in values]
    return values + [-v for v in values]


def g17(values) -> list:
    """The kernel's text of each value, with any numpy warning an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        heads, tails = _format_g17(np.asarray(values, dtype=float))
    return [head + tail for head, tail in zip(heads, tails)]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                          st.floats(1e-4, 1e16, exclude_max=True),
                          st.floats(-1e16, -1e-4, exclude_min=True)),
                min_size=1, max_size=40))
def test_g17_kernel_matches_percent_g(values):
    assert g17(values) == [b"%.17g" % v for v in values]


def test_g17_kernel_on_edge_values():
    values = g17_edge_values()
    assert g17(values) == [b"%.17g" % v for v in values]


def test_g17_kernel_on_short_mantissa_dyadics():
    # odd 12-bit mantissas over 105 binades; those in [1e-4, 1e-2) with
    # exponent k - 17 are exact ties at the 17th digit, and so are some
    # below 1e-4, in exponent form, such as 43 2**-22
    m = np.arange(1.0, 4096.0, 2.0)
    values = (m[:, None] * 2.0 ** np.arange(-80, 25)).ravel()
    values = np.concatenate([values, -values])
    assert g17(values) == [b"%.17g" % v for v in values.tolist()]
    near = [v for v in values.tolist() if 1e-4 <= v < 1e-2]
    assert sum(map(is_17th_digit_tie, near)) > 1000
    small = [v for v in values.tolist() if 0.0 < v < 1e-4]
    assert sum(map(is_17th_digit_tie, small)) > 100


def test_scaled_rounding_leaves_only_the_ties_undecided():
    # below 1e-6 the power of ten is a double-double and the product has
    # an error bound: every lane the bound decides rounds as Fraction
    # arithmetic does, and the lanes it leaves undecided are exactly the
    # ties at the 17th digit.  Short-mantissa dyadics from 1e-4 down,
    # random normal values over every binade below 1e-4 and the smallest
    # normal
    m = np.arange(1.0, 512.0, 2.0)
    values = np.concatenate([(m[:, None] * 2.0 ** np.arange(-60, -13)).ravel(),
                             2.0 ** np.random.default_rng(7).uniform(-1022, -14, 2000),
                             [sys.float_info.min]])
    values = values[values < 1e-4]
    k = np.array([decimal_exponent(v) for v in values])
    _, rounded, undecided = surfaces._round_scaled(values, k)
    exact = [Fraction(v) * Fraction(10) ** (16 - int(kk)) for v, kk in zip(values.tolist(), k)]
    ties = np.array([f.denominator == 2 for f in exact])
    assert ties.sum() > 50
    assert np.array_equal(undecided, ties)
    assert all(int(r) == round(f) for r, f, tie in zip(rounded, exact, ties) if not tie)


@pytest.mark.parametrize("dim", [1, 2])
def test_csv_bytes_match_the_row_writer(tmp_path, dim):
    # non-uniform x axes, a p axis with 0.1 + 0.2, and values that print
    # as -0, a subnormal, a huge number and a rounding-heavy sum; the time
    # levels after the first three carry the kernel's edge values
    edges = g17_edge_values()
    x_axes = (np.array([0.5, 0.7000000000000001, 1.9, 2.0]), np.array([0.1, 0.3, 5.0]))[:dim]
    p = np.array([0.0, 0.1 + 0.2, 0.5, 1.0])
    per_level = p.size * int(np.prod([ax.size for ax in x_axes]))
    n_t = 4 + len(edges) // per_level  # room for the edges and the last -0
    g = GridSpec(0.5 * np.arange(n_t), x_axes, p, "p", 0.25)
    vals = np.random.default_rng(dim).normal(size=g.shape) / 3.0
    vals.flat[:4] = [-0.0, 5e-324, 1e308, 0.1 + 0.2]
    vals[3:].flat[:len(edges)] = edges
    vals.flat[-1] = -0.0
    surf = Surface(g, vals, {})
    want, got = tmp_path / "rows.csv", tmp_path / "surface.csv"
    write_rows_reference(surf, want)
    write_surface_csv(surf, got)
    assert got.read_bytes() == want.read_bytes()
    assert got.read_bytes().count(b"\n") == 1 + vals.size


def test_binary_roundtrip_and_rejection(tmp_path):
    s = small_surface()
    path = tmp_path / "surface.bin"
    write_surface_bin(s, path)
    back = read_surface_bin(path)
    assert np.array_equal(back.values, s.values)
    assert axes_equal(back.grid, s.grid)
    assert back.grid.domain == "q"
    assert back.grid.epsilon == s.grid.epsilon
    assert back.meta["tag"] == "unit"
    # corrupted magic
    raw = path.read_bytes()
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"XX" + raw[2:])
    with pytest.raises(ValueError):
        read_surface_bin(bad)
    # truncated payload
    trunc = tmp_path / "trunc.bin"
    trunc.write_bytes(raw[:len(raw) // 2])
    with pytest.raises(ValueError):
        read_surface_bin(trunc)
    # cut inside the header length
    short = tmp_path / "short.bin"
    short.write_bytes(raw[:11])
    with pytest.raises(ValueError, match="truncated"):
        read_surface_bin(short)
    # a header that gives more nodes than the file holds, or a length that
    # is not an integer
    hlen = int.from_bytes(raw[8:16], "little")
    for n_t, match in ((b"1000000000000000", "truncated"), (b'"5"', "axis lengths")):
        blob = raw[16:16 + hlen].replace(b'"n_t": 5', b'"n_t": ' + n_t)
        forged = tmp_path / "forged.bin"
        forged.write_bytes(raw[:8] + len(blob).to_bytes(8, "little") + blob + raw[16 + hlen:])
        with pytest.raises(ValueError, match=match):
            read_surface_bin(forged)
    # bytes after the payload
    long = tmp_path / "long.bin"
    long.write_bytes(raw + b"garbage")
    with pytest.raises(ValueError, match="trailing bytes"):
        read_surface_bin(long)


def test_binary_header_of_the_wrong_type_is_rejected(tmp_path):
    # a header that is not an object raised AttributeError, an n_x that is
    # not a list TypeError; every field of the wrong type is a ValueError
    path = tmp_path / "surface.bin"
    write_surface_bin(small_surface(), path)
    for name, blob in wrongly_typed_headers(path.read_bytes()).items():
        forged = tmp_path / "forged.bin"
        forged.write_bytes(blob)
        with pytest.raises(ValueError, match="JSON object|list|number"):
            read_surface_bin(forged)


@pytest.mark.parametrize("eps", [math.inf, math.nan, -0.1])
def test_epsilon_must_be_finite_and_nonnegative(tmp_path, eps):
    # epsilon = inf made a grid, which the writer put into the header as
    # Infinity, a token that strict JSON does not admit, and the reader
    # took back
    with pytest.raises(ValueError, match="epsilon"):
        small_grid(epsilon=eps)
    path = tmp_path / "surface.bin"
    write_surface_bin(small_surface(), path)
    raw = path.read_bytes()
    hlen = int.from_bytes(raw[8:16], "little")
    forged = tmp_path / "forged.bin"
    forged.write_bytes(with_header(raw, dict(json.loads(raw[16:16 + hlen]), epsilon=eps)))
    with pytest.raises(ValueError, match="epsilon"):
        read_surface_bin(forged)


def test_binary_header_is_strict_json(tmp_path):
    # a value that is not finite in the metadata raises before the file is
    # opened, instead of writing NaN into the header
    g = small_grid()
    path = tmp_path / "nan.bin"
    with pytest.raises(ValueError, match="JSON compliant"):
        write_surface_bin(Surface(g, np.zeros(g.shape), {"gap": math.nan}), path)
    assert not path.exists()


def test_pipeline_surface_csvs_match_the_row_writer(tmp_path):
    # the smoke-size gbm pipeline: a dual with values below 1e-4, which
    # take the per-value fallback, and its primal
    grid = GridSpec.regular(0.0, 1.0, 8, 0.5, 2.0, 16, 16, "q", z_max=8.0, epsilon=0.2)
    dual = pde.solve_dual_pde(builtin_model("gbm", b=0.05, s=0.3), linear_payoff(), grid)
    primal = pde.dual_to_primal(dual, mc.default_p_grid(21))
    small = np.abs(dual.values)
    assert ((small > 0) & (small < 1e-4)).any()
    for name, surf in (("dual", dual), ("primal", primal)):
        want, got = tmp_path / f"{name}_rows.csv", tmp_path / f"{name}.csv"
        write_rows_reference(surf, want)
        write_surface_csv(surf, got)
        assert got.read_bytes() == want.read_bytes()


def test_value_shape_checked():
    g = small_grid()
    with pytest.raises(ValueError):
        Surface(g, np.zeros((2, 2, 2)), {})


def test_eval_out_of_range_clamped_or_raises():
    s = small_surface()
    g = s.grid
    # interpolation beyond the box must not silently extrapolate wildly:
    # the convention is clamping to the boundary value
    edge = surface_eval(s, g.t[0], g.x_axes[0][0], g.z[-1])
    beyond = surface_eval(s, g.t[0] - 0.5, g.x_axes[0][0] * 0.5, g.z[-1] + 1.0)
    assert beyond == pytest.approx(edge, abs=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_values_are_rejected(bad):
    s = small_surface()
    values = s.values.copy()
    values[2, 3, 4] = bad
    with pytest.raises(ValueError, match="finite"):
        Surface(s.grid, values, {})


def test_binary_writer_makes_no_copy_of_the_payload(tmp_path):
    # measured: 5.7 kB for the 6.6 MB payload; a bytes copy of it, 1.0 payload
    s = large_surface()
    path = tmp_path / "surface.bin"
    _, peak = traced_peak(write_surface_bin, s, path)
    assert peak < 0.01 * s.values.nbytes
    assert np.array_equal(read_surface_bin(path).values, s.values)


def test_binary_reader_holds_the_payload_once(tmp_path):
    # measured: 1.0014 times the file size; reading the file and copying
    # the payload out of it, 2.13
    s = large_surface()
    path = tmp_path / "surface.bin"
    write_surface_bin(s, path)
    back, peak = traced_peak(read_surface_bin, path)
    assert np.array_equal(back.values, s.values)
    assert peak < 1.05 * path.stat().st_size


def read_error(path) -> str:
    """The message of the ValueError that read_surface_bin raises on path."""
    with pytest.raises(ValueError) as info:
        read_surface_bin(path)
    return str(info.value)


def test_forged_lengths_are_rejected_before_any_payload_allocation(tmp_path):
    path = tmp_path / "surface.bin"
    write_surface_bin(small_surface(), path)
    raw = path.read_bytes()
    hlen = int.from_bytes(raw[8:16], "little")
    header = json.loads(raw[16:16 + hlen])
    forged = tmp_path / "forged.bin"
    # axis lengths that claim 2**40 nodes, 8 TiB, in a file of about 2 kB;
    # then a header length past the end of the file
    for blob in (with_header(raw, dict(header, n_t=2 ** 40)),
                 raw[:8] + (2 ** 40).to_bytes(8, "little") + raw[16:]):
        forged.write_bytes(blob)
        message, peak = traced_peak(read_error, forged)
        assert "truncated" in message
        assert peak < 1 << 20


@pytest.mark.parametrize("chunk", [1, 5, 7, 48, 4096])
def test_csv_chunks_do_not_change_the_bytes(tmp_path, monkeypatch, chunk):
    # 48 nodes a level, so that chunks of 5 and 7 end on a short one; every
    # third value prints by the per-value fallback
    monkeypatch.setattr(surfaces, "_CSV_CHUNK", chunk)
    g = GridSpec(np.arange(4.0), (np.array([0.5, 0.7, 1.9, 2.0]), np.array([0.1, 0.3, 5.0])),
                 np.array([0.0, 0.1 + 0.2, 0.5, 1.0]), "p", 0.25)
    vals = np.random.default_rng(chunk).normal(size=g.shape)
    vals.flat[::3] *= 1e-7
    surf = Surface(g, vals, {})
    want, got = tmp_path / "rows.csv", tmp_path / "surface.csv"
    write_rows_reference(surf, want)
    write_surface_csv(surf, got)
    assert got.read_bytes() == want.read_bytes()


def test_csv_writer_scratch_is_a_few_chunks():
    # a pipeline-shaped dual, 64 t x 128 x x 128 q (8.4 MB).  The writer
    # keeps the text of the 16 384 x-and-q nodes of a level, 80 bytes a
    # node (1.3 MB).  One chunk of 4 096 nodes peaks at about 510 bytes a
    # node (2.1 MB): the g17 kernel's arrays, its two lists of bytes
    # objects, the parts list and the joined text.  That is 0.41 of the
    # values (0.42 measured); formatting and joining a whole level at once
    # took 1.13.
    g = GridSpec.regular(0.0, 1.0, 64, 0.5, 2.0, 128, 128, "q", z_max=8.0, epsilon=0.2)
    x, q = np.meshgrid(g.x_axes[0], g.z, indexing="ij")
    level = np.maximum(q - x, 0.0) + 1e-3 * np.sin(x * q)
    surf = Surface(g, np.broadcast_to(level, g.shape).copy(), {})
    _, peak = traced_peak(write_surface_csv, surf, os.devnull)
    assert peak < 0.6 * surf.values.nbytes


def test_a_surface_that_repeats_along_x2_reaches_every_consumer_a_level_at_a_time(tmp_path):
    # the d=2 numeraire route's layout: one (t, x1, q) block, here the
    # route's own, repeated along x2 by a stride-0 view.  Every consumer
    # gives on it what it gives on its contiguous copy, and reads it one
    # level at a time: each call peaks at most two of its input's levels
    # above the same call on the copy, where a copy of the whole surface
    # would be 13 levels.  Measured: the bin and CSV writers 1.0 level
    # above (one level's copy), the transform 54 levels below (its primal
    # is a view too), the verifier level with it
    model = builtin_model("gbm", b=[0.05, 0.03], s=[0.3, 0.25])
    grid = GridSpec.regular(0.0, 1.0, 13, [0.5, 0.5], [2.0, 2.0], [12, 12], 24, "q",
                            z_max=6.0, epsilon=0.2)
    block = pde.solve_dual_pde(model, linear_payoff([1.0, 0.0]), grid).values[:, :, 0]
    dual = Surface(grid, np.broadcast_to(block[:, :, None], grid.shape), {"tag": "repeat"})
    assert dual.values.strides[2] == 0

    def contiguous(surf):
        return Surface(surf.grid, np.ascontiguousarray(surf.values), surf.meta)

    def both(fn, surf, *args):
        """fn's results on surf and on its contiguous copy, after checking
        that the first call peaks within two levels of the second.  A call
        on the copy first fills the tables the CSV writer builds on first
        use."""
        copy = contiguous(surf)
        fn(copy, *args)
        got, peak = traced_peak(fn, surf, *args)
        want, copy_peak = traced_peak(fn, copy, *args)
        assert peak <= copy_peak + 2 * surf.values[0].nbytes
        return got, want

    copy = contiguous(dual)
    for writer, ext in ((write_surface_bin, "bin"), (write_surface_csv, "csv")):
        both(writer, dual, os.devnull)
        writer(dual, tmp_path / f"view.{ext}")
        writer(copy, tmp_path / f"copy.{ext}")
        assert (tmp_path / f"view.{ext}").read_bytes() == (tmp_path / f"copy.{ext}").read_bytes()
    assert np.array_equal(read_surface_bin(tmp_path / "view.bin").values, copy.values)
    primal, want = both(pde.dual_to_primal, dual, np.linspace(0.0, 1.0, 41))
    assert primal.values.strides[2] == 0
    assert np.array_equal(primal.values, want.values)
    assert primal.meta == want.meta
    got, want = both(pde.verify_supersolution, primal, model, linear_payoff([1.0, 0.0]))
    assert got == want
