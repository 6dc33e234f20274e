"""End-to-end checks of the command line driver, run in process."""

import configparser
import datetime
import json
import warnings

import numpy as np
import pytest

from qhedge import cli, engine, mc, pde
from qhedge.cli import main
from qhedge.engine import SimConfig
from qhedge.market import builtin_model, linear_payoff
from qhedge.surfaces import GridSpec, Surface, read_surface_bin, write_surface_bin
from memory_helpers import traced_peak
from surface_helpers import with_header, wrongly_typed_headers


def mc_ini(eps_line="epsilons = 0.5 0.2"):
    return f"""
[model]
kind = bessel3

[run]
method = mc
seed = 11
x0 = 1.0
n_paths = 20000
scheme = exact-bessel3
{eps_line}
q_window = 0.2 2.0
n_probe = 7
p_points = 21
"""


def pde_ini(eps_line="epsilons = 0.2", method="pde"):
    return f"""
[model]
kind = gbm
b = 0.05
s = 0.3

[grid]
t0 = 0.0
T = 1.0
n_t = 8
x_min = 0.5
x_max = 2.0
n_x = 24
n_z = 24
domain = q
z_max = 3.0

[run]
method = {method}
seed = 3
x0 = 1.0
{eps_line}
p_points = 21
"""


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def load_summary(path):
    """A summary JSON, parsed strictly: NaN and +-Infinity, which RFC 8259
    JSON does not admit, raise."""
    def reject(name):
        raise ValueError(f"{path.name} holds {name}, which is not JSON")

    return json.loads(path.read_text(), parse_constant=reject)


def read_rows(path):
    lines = path.read_text().strip().split("\n")
    return lines[0], [line.split(",") for line in lines[1:]]


def test_price_mc_deterministic(tmp_path):
    cfg = write_config(tmp_path, mc_ini())
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["price", "--config", cfg, "--out", out1]) == 0
    assert main(["price", "--config", cfg, "--out", out2]) == 0
    header, rows = read_rows(tmp_path / "a" / "price.csv")
    assert header == "p,value,stderr"
    assert len(rows) == 21
    value = np.array([float(r[1]) for r in rows])
    assert np.all(np.diff(value) >= -1e-12)
    assert value[0] == 0.0
    # byte-identical reruns, and identical JSON up to the timestamp
    csv1 = (tmp_path / "a" / "price.csv").read_bytes()
    csv2 = (tmp_path / "b" / "price.csv").read_bytes()
    assert csv1 == csv2
    j1 = load_summary(tmp_path / "a" / "price.json")
    j2 = load_summary(tmp_path / "b" / "price.json")
    datetime.datetime.fromisoformat(j1.pop("timestamp"))
    j2.pop("timestamp")
    assert j1 == j2


def test_price_provenance_fields(tmp_path):
    cfg = write_config(tmp_path, mc_ini())
    out = str(tmp_path / "out")
    assert main(["price", "--config", cfg, "--out", out]) == 0
    prov = load_summary(tmp_path / "out" / "price.json")["provenance"]
    assert prov["schema"] == 1
    assert prov["command"] == "price"
    assert prov["method"] == "mc"
    assert prov["seed"] == 11
    assert len(prov["config_sha256"]) == 64
    assert int(prov["config_sha256"], 16) >= 0
    assert prov["model"] == "bessel3"
    assert prov["grid"] is None


def test_threads_never_change_output(tmp_path):
    cfg = write_config(tmp_path, mc_ini())
    out1, out2 = str(tmp_path / "t1"), str(tmp_path / "t4")
    assert main(["price", "--config", cfg, "--out", out1, "--threads", "1"]) == 0
    assert main(["price", "--config", cfg, "--out", out2, "--threads", "4"]) == 0
    assert (tmp_path / "t1" / "price.csv").read_bytes() == \
        (tmp_path / "t4" / "price.csv").read_bytes()


def test_price_pde_curve(tmp_path):
    cfg = write_config(tmp_path, pde_ini())
    out = str(tmp_path / "out")
    assert main(["price", "--config", cfg, "--out", out]) == 0
    _, rows = read_rows(tmp_path / "out" / "price.csv")
    value = np.array([float(r[1]) for r in rows])
    assert value[0] == 0.0
    assert np.all(np.diff(value) >= -1e-12)
    assert value[-1] <= 2.0
    assert all(float(r[2]) == 0.0 for r in rows)


def test_missing_config_is_config_error():
    assert main(["price"]) == 2


def test_unreadable_config_is_config_error(tmp_path):
    assert main(["price", "--config", str(tmp_path / "absent.ini")]) == 2


def test_unknown_model_kind_rejected(tmp_path):
    cfg = write_config(tmp_path, "[model]\nkind = frobnicate\n")
    assert main(["price", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_x0_dimension_mismatch_rejected(tmp_path):
    cfg = write_config(tmp_path, mc_ini().replace("x0 = 1.0", "x0 = 1.0 2.0"))
    assert main(["price", "--config", cfg, "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("eps", ["-0.1", "nan", "inf"])
def test_nonpositive_epsilons_rejected(tmp_path, eps):
    # a NaN or infinite epsilon passed config parsing and failed mid-run
    cfg = write_config(tmp_path, mc_ini(f"epsilons = 0.2 {eps}"))
    assert main(["dual", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_solve_and_study_need_epsilons(tmp_path):
    # no entry, and an empty one
    for eps_line in ("", "epsilons ="):
        cfg = write_config(tmp_path, pde_ini(eps_line=eps_line))
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "s")]) == 2
        cfg2 = write_config(tmp_path, mc_ini(eps_line=eps_line), "mc.ini")
        assert main(["study-epsilon", "--config", cfg2,
                     "--out", str(tmp_path / "e")]) == 2


def test_dual_mc_empty_epsilons_baseline_only(tmp_path):
    cfg = write_config(tmp_path, mc_ini("epsilons ="))
    out = str(tmp_path / "out")
    assert main(["dual", "--config", cfg, "--out", out]) == 0
    header, rows = read_rows(tmp_path / "out" / "dual.csv")
    assert header == "epsilon,q,value,stderr"
    assert len(rows) == 7
    assert all(float(r[0]) == 0.0 for r in rows)
    assert load_summary(tmp_path / "out" / "dual.json")["epsilons"] == []


def test_dual_mc_regularized_curves(tmp_path):
    cfg = write_config(tmp_path, mc_ini())
    out = str(tmp_path / "out")
    assert main(["dual", "--config", cfg, "--out", out]) == 0
    _, rows = read_rows(tmp_path / "out" / "dual.csv")
    # one baseline curve plus one per epsilon, n_probe points each
    assert len(rows) == 3 * 7
    eps_col = sorted({float(r[0]) for r in rows})
    assert eps_col == [0.0, 0.2, 0.5]


def test_solve_verify_roundtrip(tmp_path):
    cfg = write_config(tmp_path, pde_ini(method="pipeline"))
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    created = load_summary(out / "solve.json")["artifacts"]
    assert "surface_eps0p2.bin" in created
    assert "primal_eps0p2.bin" in created
    primal = str(out / "primal_eps0p2.bin")
    vout = tmp_path / "v"
    assert main(["verify", "--config", cfg, "--out", str(vout), primal]) == 0
    report = load_summary(vout / "verify.json")["report"]
    assert report["passed"] is True
    assert report["terminal_ok"] is True
    # the non-convex nodes the residual skips are counted, the same on a rerun
    assert report["n_nonconvex"] == pde.hjb_residual(read_surface_bin(primal),
                                                     builtin_model("gbm", b=0.05, s=0.3)
                                                     ).n_nonconvex
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v2"), primal]) == 0
    again = load_summary(tmp_path / "v2" / "verify.json")["report"]
    assert again == report

    # a uniform shift breaks the terminal condition and must be flagged
    surf = read_surface_bin(primal)
    bad = surf.__class__(surf.grid, surf.values + 0.1, dict(surf.meta))
    bad_path = str(tmp_path / "shifted.bin")
    write_surface_bin(bad, bad_path)
    assert main(["verify", "--config", cfg, "--out",
                 str(tmp_path / "vb"), bad_path]) == 1

    # garbage bytes are a config error, not a crash
    junk = tmp_path / "junk.bin"
    junk.write_bytes(b"not a surface")
    assert main(["verify", "--config", cfg, "--out",
                 str(tmp_path / "vj"), str(junk)]) == 2
    assert main(["verify", "--config", cfg, "--out",
                 str(tmp_path / "vm"), str(tmp_path / "gone.bin")]) == 2
    # so is a container cut inside its header length or with bytes after
    # its payload
    with open(primal, "rb") as fh:
        raw = fh.read()
    for name, blob in (("cut.bin", raw[:11]), ("long.bin", raw + b"garbage")):
        (tmp_path / name).write_bytes(blob)
        assert main(["verify", "--config", cfg, "--out",
                     str(tmp_path / ("v" + name)), str(tmp_path / name)]) == 2
    # and a header field of the wrong JSON type: an array for the header
    # or an n_x of 3 ended in a traceback with exit 1, "not a supersolution"
    for i, blob in enumerate(wrongly_typed_headers(raw).values()):
        (tmp_path / "typed.bin").write_bytes(blob)
        assert main(["verify", "--config", cfg, "--out",
                     str(tmp_path / f"vt{i}"), str(tmp_path / "typed.bin")]) == 2


def test_verify_with_no_node_checked_writes_strict_json(tmp_path):
    # U = p x has no curvature in p: every node in the verifier's window
    # auto-passes and none is checked, so the max residual is -inf, which
    # verify.json held as -Infinity, a token JSON parsers reject
    grid = GridSpec.regular(0.0, 1.0, 9, 0.5, 2.0, 9, 11, "p", epsilon=0.2)
    U = np.broadcast_to(grid.x_axes[0][:, None] * grid.z, grid.shape).copy()
    surface = str(tmp_path / "linear.bin")
    write_surface_bin(Surface(grid, U, {}), surface)
    cfg = write_config(tmp_path, mc_ini())
    vout = tmp_path / "v"
    assert main(["verify", "--config", cfg, "--out", str(vout), surface]) == 0
    report = load_summary(vout / "verify.json")["report"]
    assert report["n_checked"] == 0 and report["max_residual"] is None


def test_verify_of_a_surface_at_infinite_epsilon_is_a_config_error(tmp_path, capsys):
    # the writer put "epsilon": Infinity into the header and the reader took
    # it back: verify then checked no node at all, or ended in a traceback
    # with a truncated verify.json
    cfg = write_config(tmp_path, pde_ini(method="pipeline"))
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    raw = (out / "primal_eps0p2.bin").read_bytes()
    hlen = int.from_bytes(raw[8:16], "little")
    header = json.loads(raw[16:16 + hlen])
    forged = tmp_path / "inf.bin"
    forged.write_bytes(with_header(raw, dict(header, epsilon=float("inf"))))
    vout = tmp_path / "v"
    assert main(["verify", "--config", cfg, "--out", str(vout), str(forged)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "config error" in err and "epsilon" in err
    assert not (vout / "verify.json").exists()


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_nonfinite_or_negative_tolerance_is_a_config_error(tmp_path, tol):
    # tolerance = nan passed every surface and wrote a bare NaN into
    # verify.json; -1 failed nodes of a surface that passes
    cfg = write_config(tmp_path, pde_ini(method="pipeline"))
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    bad = write_config(tmp_path, pde_ini(method="pipeline") + f"tolerance = {tol}\n", "tol.ini")
    vout = tmp_path / "v"
    assert main(["verify", "--config", bad, "--out", str(vout),
                 str(out / "primal_eps0p2.bin")]) == 2
    assert not (vout / "verify.json").exists()


def test_too_few_p_points_is_a_config_error(tmp_path, capsys):
    # the transform needs three p nodes: two ended the pipeline solve in a
    # ValueError traceback, and none crashed price on an empty curve
    text = pde_ini(method="pipeline").replace("p_points = 21", "p_points = 2")
    cfg = write_config(tmp_path, text)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "s")]) == 2
    cfg = write_config(tmp_path, mc_ini().replace("p_points = 21", "p_points = 0"), "mc.ini")
    assert main(["price", "--config", cfg, "--out", str(tmp_path / "p")]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("p_points must be >= 3") == 2


def test_solve_summary_counts_numerical_events_deterministically(tmp_path):
    cfg = write_config(tmp_path, pde_ini(eps_line="epsilons = 0.2 0.4", method="pipeline"))
    summaries = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        summary = load_summary(out / "solve.json")
        datetime.datetime.fromisoformat(summary.pop("timestamp"))
        summaries.append(summary)
    assert summaries[0] == summaries[1]
    counters = summaries[0]["counters"]
    assert [c["epsilon"] for c in counters] == [0.2, 0.4]
    for c, eps in zip(counters, ("0p2", "0p4")):
        dual = read_surface_bin(str(tmp_path / "a" / f"surface_eps{eps}.bin"))
        primal = read_surface_bin(str(tmp_path / "a" / f"primal_eps{eps}.bin"))
        assert c == {"epsilon": dual.grid.epsilon,
                     "substeps": dual.meta["substeps"],
                     "enveloped_slices": primal.meta["enveloped_slices"],
                     "saturated_slices": primal.meta["saturated_slices"]}
    # the pde method solves the dual only, so only substeps are counted
    cfg = write_config(tmp_path, pde_ini(), name="pde.ini")
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "c")]) == 0
    counters = load_summary(tmp_path / "c" / "solve.json")["counters"]
    assert [sorted(c) for c in counters] == [["epsilon", "substeps"]]


@pytest.mark.parametrize("command, method", [("solve", "pipeline"), ("dual", "pde")])
def test_each_epsilon_releases_its_surfaces(tmp_path, monkeypatch, command, method):
    # the surfaces of one epsilon are dropped before the next is solved, so
    # a second epsilon adds almost nothing to the peak.  The CSV writer is
    # slow under tracemalloc and holds no surface, so it is left out.
    # Measured (64 t x 24 x x 24 q, dual 295 kB): the 2-epsilon peak is
    # 1 kB (solve) and 4 kB (dual) above the 1-epsilon peak; holding the
    # previous epsilon's surfaces, 210 kB and 172 kB
    monkeypatch.setattr(cli, "write_surface_csv", lambda surface, path: None)
    peaks = []
    for i, eps_line in enumerate(("epsilons = 0.2", "epsilons = 0.2", "epsilons = 0.2 0.1")):
        text = pde_ini(eps_line, method=method).replace("n_t = 8", "n_t = 64")
        cfg = write_config(tmp_path, text, f"run{i}.ini")
        argv = [command, "--config", cfg, "--out", str(tmp_path / str(i)), "--method", method]
        rc, peak = traced_peak(main, argv)
        assert rc == 0
        peaks.append(peak)
    dual_bytes = 64 * 24 * 24 * 8
    # the first run warms caches and is left out
    assert peaks[2] < peaks[1] + 0.2 * dual_bytes


def test_study_epsilon_gap_table(tmp_path):
    cfg = write_config(tmp_path, mc_ini())
    out = tmp_path / "out"
    assert main(["study-epsilon", "--config", cfg, "--out", str(out)]) == 0
    header, rows = read_rows(out / "study_epsilon.csv")
    assert header == "epsilon,sup_gap,bound,gap_stderr,within"
    assert [float(r[0]) for r in rows] == [0.5, 0.2]
    assert all(r[4] == "True" for r in rows)
    _, base = read_rows(out / "study_epsilon_baseline.csv")
    assert len(base) == 7
    payload = load_summary(out / "study_epsilon.json")
    assert payload["monotone"] is True
    # smaller smearing means a smaller gap and a smaller bound
    gaps = [r["sup_gap"] for r in payload["rows"]]
    assert gaps[0] >= gaps[1]


def test_study_epsilon_monotone_ignores_config_order(tmp_path):
    # the same sample gives the same gaps; monotone once compared them in
    # config order, so listing eps ascending reported false
    payloads = []
    for order in ("0.5 0.2 0.1", "0.1 0.2 0.5"):
        cfg = write_config(tmp_path, gbm_mc_ini().replace("epsilons = 0.5 0.2",
                                                          f"epsilons = {order}"))
        out = tmp_path / order.replace(" ", "_")
        assert main(["study-epsilon", "--config", cfg, "--out", str(out)]) == 0
        payloads.append(load_summary(out / "study_epsilon.json"))
    descending, ascending = payloads
    assert [r["epsilon"] for r in ascending["rows"]] == [0.1, 0.2, 0.5]
    assert descending["rows"] == ascending["rows"][::-1]
    assert descending["monotone"] is True
    assert ascending["monotone"] is True


def test_compare_oracle_bessel(tmp_path):
    cfg = write_config(tmp_path, mc_ini())
    out = tmp_path / "out"
    assert main(["compare-oracle", "--config", cfg, "--out", str(out)]) == 0
    header, rows = read_rows(out / "compare_oracle.csv")
    assert header == "quantity,coordinate,estimate,oracle,abs_gap,stderr"
    assert len(rows) == 10
    payload = load_summary(out / "compare_oracle.json")
    assert np.isfinite(payload["worst_gap_over_3se"])


def test_compare_oracle_needs_builtin(tmp_path):
    text = mc_ini().replace("kind = bessel3",
                            "kind = custom\nb_exprs = 0.0\ns_exprs = 1.0")
    cfg = write_config(tmp_path, text)
    cfg_fixed = write_config(tmp_path, text.replace(
        "scheme = exact-bessel3", "scheme = log-euler"), "custom.ini")
    assert main(["compare-oracle", "--config", cfg_fixed,
                 "--out", str(tmp_path)]) == 2


GBM_MC_MODEL = "[model]\nkind = gbm\nb = 0.05\ns = 0.3\n"
GBM_D2_MODEL = "[model]\nkind = gbm\nb = 0.05 0.03\ns = 0.3 0.25\n"


def gbm_mc_ini(model=GBM_MC_MODEL, x0="1.0"):
    return mc_ini().replace("[model]\nkind = bessel3\n", model).replace(
        "scheme = exact-bessel3", "scheme = exact-gbm").replace("x0 = 1.0", f"x0 = {x0}")


def gbm_d2_pde_ini(method):
    return pde_ini(method=method).replace(GBM_MC_MODEL, GBM_D2_MODEL).replace(
        "x0 = 1.0", "x0 = 1 1")


@pytest.mark.parametrize("command, method", [("solve", "pipeline"), ("price", "pde"),
                                             ("dual", "pde")])
def test_grid_of_another_dimension_is_a_config_error(tmp_path, capsys, command, method):
    # every [grid] is d = 1: a d = 2 model ended in a ValueError traceback
    cfg = write_config(tmp_path, gbm_d2_pde_ini(method))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "config error" in err and "dimension" in err


def test_verify_of_a_surface_of_another_dimension_is_a_config_error(tmp_path, capsys):
    # exit 1 means "not a supersolution"; a d = 1 surface under a d = 2
    # model is neither a pass nor a fail
    cfg = write_config(tmp_path, pde_ini(method="pipeline"))
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    d2 = write_config(tmp_path, gbm_d2_pde_ini("pipeline"), "d2.ini")
    vout = tmp_path / "v"
    assert main(["verify", "--config", d2, "--out", str(vout),
                 str(out / "primal_eps0p2.bin")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "dimension" in err
    assert not (vout / "verify.json").exists()


@pytest.mark.parametrize("command, method", [("solve", "pipeline"), ("solve", "pde"),
                                             ("price", "pde"), ("dual", "pde")])
def test_grid_of_the_p_domain_is_a_config_error(tmp_path, capsys, command, method):
    # the dual solver works on q; a p-domain [grid] exited 3, "numerical
    # failure", with DomainMismatch
    cfg = write_config(tmp_path, pde_ini(method=method).replace("domain = q", "domain = p"))
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "config error" in err and "domain" in err
    assert list(out.iterdir()) == []


def test_the_run_horizon_is_the_grid_horizon(tmp_path):
    # [run] T = 2 and a [grid] without T: Monte Carlo sampled to T = 2
    # while the PDE grid fell back to T = 1
    text = pde_ini().replace("T = 1.0\n", "").replace("[run]\n", "[run]\nT = 2\n")
    cfg = write_config(tmp_path, text)
    assert main(["price", "--config", cfg, "--out", str(tmp_path / "p")]) == 0
    prov = load_summary(tmp_path / "p" / "price.json")["provenance"]
    assert (prov["grid"]["t0"], prov["grid"]["T"]) == (0.0, 2.0)
    assert main(["dual", "--config", cfg, "--out", str(tmp_path / "d")]) == 0
    surf = read_surface_bin(str(tmp_path / "d" / "dual_eps0p2.bin"))
    assert surf.grid.t[-1] == 2.0


def test_a_command_parses_the_grid_once(tmp_path, monkeypatch):
    regular = GridSpec.regular
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return regular(*args, **kwargs)

    monkeypatch.setattr(GridSpec, "regular", counted)
    cfg = write_config(tmp_path, pde_ini("epsilons = 0.2 0.4"))
    assert main(["dual", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert len(calls) == 1
    dual = [read_surface_bin(str(tmp_path / "o" / f"dual_eps{tag}.bin")) for tag in ("0p2", "0p4")]
    assert [s.grid.epsilon for s in dual] == [0.2, 0.4]


def test_verify_of_a_dual_surface_is_a_config_error(tmp_path, capsys):
    # verify checks a primal surface; a dual one exited 3, "numerical
    # failure", with DomainMismatch
    cfg = write_config(tmp_path, pde_ini(method="pde"))
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    vout = tmp_path / "v"
    assert main(["verify", "--config", cfg, "--out", str(vout),
                 str(out / "surface_eps0p2.bin")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "domain" in err
    assert not (vout / "verify.json").exists()


def test_compare_oracle_rejects_a_payoff_other_than_x1(tmp_path):
    # the gbm closed forms price g(x) = x1; x1*x1 gave a worst gap of ~39 SE
    text = gbm_mc_ini() + "\n[payoff]\nkind = expression\nexpr = x1*x1\n"
    cfg = write_config(tmp_path, text)
    assert main(["compare-oracle", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    # weights [1] is g(x) = x1 too
    ok = write_config(tmp_path, gbm_mc_ini() + "\n[payoff]\nweights = 1\n", "w1.ini")
    assert main(["compare-oracle", "--config", ok, "--out", str(tmp_path / "w")]) == 0


def test_compare_oracle_rejects_two_dimensions(tmp_path):
    # a d = 2 gbm would be read as the d = 1 law of b[0], s[0]
    cfg = write_config(tmp_path, gbm_mc_ini(GBM_D2_MODEL, x0="1 1"))
    assert main(["compare-oracle", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_compare_oracle_floors_the_se_of_an_unreached_row(tmp_path):
    # no sample pays at q = 0.5 x0, so that row's SE is 0 while the
    # oracle's tail is ~1.7e-9; unfloored, the worst gap read ~1700 SE
    cfg = write_config(tmp_path, gbm_mc_ini())
    out = tmp_path / "o"
    assert main(["compare-oracle", "--config", cfg, "--out", str(out)]) == 0
    _, rows = read_rows(out / "compare_oracle.csv")
    half = [r for r in rows if r[0] == "dual_value" and float(r[1]) == 0.5]
    assert len(half) == 1 and float(half[0][5]) == 0.0 and float(half[0][4]) > 0.0
    payload = load_summary(out / "compare_oracle.json")
    assert payload["worst_gap_over_3se"] < 5.0


DIVE_INI = """
[model]
kind = custom
dim = 1
b_exprs = -32
s_exprs = 2

[run]
method = mc
seed = 3
x0 = 1.0
n_paths = 20000
n_steps = 16
scheme = log-euler
epsilons = 0.5
q_window = 0.2 2.0
n_probe = 7
p_points = 21
"""


def test_mc_summaries_are_byte_identical_across_reruns_and_threads(tmp_path):
    # a strong negative drift drives X towards 0 on most paths; every MC
    # summary is byte-identical apart from the timestamp, whatever the
    # thread count
    cfg = write_config(tmp_path, DIVE_INI)
    commands = {"price": "price.json", "dual": "dual.json", "study-epsilon": "study_epsilon.json"}
    texts = {}
    for run, threads in (("a", "1"), ("b", "2"), ("c", "1")):
        for command, name in commands.items():
            out = tmp_path / run
            assert main([command, "--config", cfg, "--out", str(out), "--threads", threads]) == 0
            load_summary(out / name)
            lines = (out / name).read_text().splitlines()
            texts[run, name] = [line for line in lines if '"timestamp"' not in line]
    for name in commands.values():
        assert texts["a", name] == texts["b", name] == texts["c", name]


def test_gbm_takes_a_full_volatility_matrix(tmp_path):
    model = GBM_D2_MODEL.replace("s = 0.3 0.25", "s = 0.3 0.1 0.0 0.25")
    text = gbm_mc_ini(model, x0="1 1")
    cfg = write_config(tmp_path, text)
    assert main(["price", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    cp = configparser.ConfigParser()
    cp.read_string(text)
    vol = cli._parse_model(cp).vol([[1.0, 1.0]])[0]
    assert np.array_equal(vol, [[0.3, 0.1], [0.0, 0.25]])
    # d values stay the diagonal
    cp.read_string(GBM_D2_MODEL)
    assert np.array_equal(cli._parse_model(cp).vol([[1.0, 1.0]])[0], np.diag([0.3, 0.25]))


def test_mc_commands_make_no_per_q_estimator_calls(tmp_path, monkeypatch):
    # dual, study-epsilon and compare-oracle evaluate whole curves; the
    # scalar estimators stay as the reference the next test checks against
    def refuse(*args, **kwargs):
        raise AssertionError("per-q estimator called")

    for name in ("dual_value", "dual_value_regularized", "quantile_value"):
        monkeypatch.setattr(mc, name, refuse)
    cfg = write_config(tmp_path, mc_ini())
    for command in (["dual", "--method", "mc"], ["study-epsilon"], ["compare-oracle"]):
        assert main(command + ["--config", cfg, "--out", str(tmp_path / command[0])]) == 0


@pytest.mark.parametrize("command, eps_line, drawn", [
    (["price", "--method", "mc"], "epsilons = 0.5 0.2", False),
    (["compare-oracle"], "epsilons = 0.5 0.2", False),
    (["dual", "--method", "mc"], "", False),
    (["dual", "--method", "mc"], "epsilons = 0.5 0.2", True),
    (["study-epsilon"], "epsilons = 0.5 0.2", True),
], ids=["price", "compare-oracle", "dual-eps0", "dual-eps", "study-epsilon"])
def test_auxiliary_increments_are_drawn_only_where_read(tmp_path, monkeypatch, command, eps_line,
                                                        drawn):
    # only the eps > 0 curves read B: the commands that never compute one
    # draw no B stream, the others one per block (20 000 paths, 3 blocks)
    b_blocks = []
    block_gen = engine._block_gen

    def recording_gen(seed, block_index, region):
        if region == engine._REGION_B:
            b_blocks.append(block_index)
        return block_gen(seed, block_index, region)

    monkeypatch.setattr(engine, "_block_gen", recording_gen)
    cfg = write_config(tmp_path, mc_ini(eps_line))
    assert main(command + ["--config", cfg, "--out", str(tmp_path / "o"), "--threads", "1"]) == 0
    assert b_blocks == ([0, 1, 2] if drawn else [])


@pytest.mark.parametrize("command", ["compare-oracle", "price"])
def test_mc_commands_without_eps_hold_no_aux_array(tmp_path, command):
    # at 200 000 paths the values are 1.6 MB; the command holds them, the
    # quantile curve's sorted copy and its three rows of 2^14 prefix sums
    # (0.25): 2.28 value arrays measured for either command; kept aux
    # draws would add 1.0.  The first run warms the imports and is left
    # out
    text = gbm_mc_ini().replace("n_paths = 20000", "n_paths = 200000")
    cfg = write_config(tmp_path, text)
    argv = [command, "--config", cfg, "--out", str(tmp_path / "o"), "--threads", "1"]
    assert main(argv) == 0
    rc, peak = traced_peak(main, argv)
    assert rc == 0
    assert peak < 2.5 * 8 * 200_000


@pytest.mark.parametrize("text, model, scheme", [
    (mc_ini(), builtin_model("bessel3"), "exact-bessel3"),
    (gbm_mc_ini(), builtin_model("gbm", b=0.05, s=0.3), "exact-gbm"),
], ids=["bessel3", "gbm"])
def test_mc_curves_match_the_scalar_estimators(tmp_path, text, model, scheme):
    cfg = write_config(tmp_path, text)
    out = tmp_path / "out"
    assert main(["dual", "--config", cfg, "--out", str(out)]) == 0
    assert main(["study-epsilon", "--config", cfg, "--out", str(out)]) == 0
    # the samples the config describes
    samples = mc.sample_terminal(model, linear_payoff(), [1.0],
                                 SimConfig(0.0, 1.0, 64, 20000, 11, scheme))

    def scalar(q, eps):
        return mc.dual_value_regularized(samples, q, eps)

    # Z X = x0 on every exact bessel3 path, so at eps = 0 both standard
    # errors are rounding noise near 1e-19: hence the 1e-15 floor
    def check(row_value, row_se, est):
        assert float(row_value) == pytest.approx(est.value, rel=0.0, abs=1e-12)
        assert float(row_se) == pytest.approx(est.std_error, rel=1e-8, abs=1e-15)

    _, rows = read_rows(out / "dual.csv")
    assert len(rows) == 21
    for eps, q, value, se in rows:
        check(value, se, scalar(float(q), float(eps)))
    _, rows = read_rows(out / "study_epsilon_baseline.csv")
    q_grid = [float(r[0]) for r in rows]
    base = [scalar(q, 0.0) for q in q_grid]
    for (_, value, se), est in zip(rows, base):
        check(value, se, est)
    _, rows = read_rows(out / "study_epsilon.csv")
    for eps, sup_gap, bound, gap_se, within in rows:
        reg = [scalar(q, float(eps)) for q in q_grid]
        gaps = [(abs(r.value - b.value), r.std_error + b.std_error) for r, b in zip(reg, base)]
        ref_gap, ref_se = max(gaps, key=lambda g: g[0])
        assert float(sup_gap) == pytest.approx(ref_gap, rel=0.0, abs=1e-12)
        assert float(gap_se) == pytest.approx(ref_se, rel=1e-8, abs=1e-15)
        assert within == str(ref_gap <= float(bound) + 3.0 * ref_se)


def test_numerical_failure_exit_code(tmp_path):
    # the radial model started near zero overflows the deflator in log-Euler
    text = mc_ini().replace("x0 = 1.0", "x0 = 0.02").replace(
        "scheme = exact-bessel3", "scheme = log-euler\nn_steps = 64")
    cfg = write_config(tmp_path, text)
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert main(["price", "--config", cfg, "--out", str(tmp_path / "o")]) == 3


SINGULAR_INI = """
[model]
kind = custom
dim = 1
b_exprs = 0.05
s_exprs = x1 - 1

[run]
method = mc
seed = 7
x0 = 1.0
n_paths = 4096
n_steps = 64
scheme = log-euler
"""


def test_singular_diffusion_exit_code(tmp_path, capsys):
    # s(x) = x - 1 vanishes at the starting point, so theta = b / s does not
    # exist on the first step
    cfg = write_config(tmp_path, SINGULAR_INI)
    assert main(["price", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "singular" in err


def test_log_overflow_exit_code(tmp_path, capsys):
    # with s(x) = 1/x some paths overflow log X; the range check after each
    # step stops them before s(exp(log X)) = 0 can be evaluated
    text = SINGULAR_INI.replace("b_exprs = 0.05", "b_exprs = 1/(x1*x1)").replace(
        "s_exprs = x1 - 1", "s_exprs = 1/x1")
    cfg = write_config(tmp_path, text)
    # b = 1/(x1*x1) overflows on the paths that leave the range
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert main(["price", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "numerical failure" in err


@pytest.mark.parametrize("model, payoff, factors", [
    # Z_T g(X_T) underflows to 0 although neither factor is 0
    pytest.param("[model]\nkind = gbm\nb = -350\ns = 12.5\n", "",
                 "(Z_T = 1.4571872830818424e-158, g(X_T) = 4.0410378353936405e-181)",
                 id="underflow"),
    pytest.param(GBM_MC_MODEL, "\n[payoff]\nkind = expression\nexpr = maximum(x1 - 1, 0)\n",
                 "(Z_T = 1.0274542027892832, g(X_T) = 0.0)", id="zero-payoff"),
])
def test_sample_that_is_not_finite_and_positive_exit_code(tmp_path, capsys, model, payoff, factors):
    # a sample value of 0 is a numerical failure that names its path and
    # both factors, whatever the thread count
    text = gbm_mc_ini(model).replace("seed = 11", "seed = 1").replace(
        "n_paths = 20000", "n_paths = 2000") + payoff
    cfg = write_config(tmp_path, text)
    errs = []
    for threads in ("1", "2"):
        assert main(["price", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--threads", threads]) == 3
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1]
    assert "Traceback" not in errs[0]
    assert "numerical failure" in errs[0] and factors in errs[0]


@pytest.mark.parametrize("line", ["n_paths = abc", "n_paths = 0", "n_steps = 0", "seed = x",
                                  "threads = x", "threads = -3", "n_probe = 0", "refine = 2 2",
                                  "refine = 0", "refine = 1 2 3 4", "refine = auto",
                                  "pad = 1 2 3", "pad = -3"])
def test_malformed_run_integers_are_config_errors(tmp_path, capsys, line):
    key = line.split()[0]
    text = "\n".join(ln for ln in mc_ini().splitlines() if not ln.startswith(key + " "))
    cfg = write_config(tmp_path, text.replace("[run]", "[run]\n" + line))
    assert main(["price", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "config error" in err


@pytest.mark.parametrize("command, line, flags", [
    ("dual", "q_window = 0.2 inf", []),
    ("study-epsilon", "q_window = 0.2 inf", []),
    ("study-epsilon", "q_window = 0.2 nan", []),
    ("price", "T = inf", []),
    ("price", "t0 = -inf", []),
    ("price", "T = nan", []),
    ("price", "", ["--threads", "-3"]),
    ("price", "scheme = exact-bessel3", []),
], ids=["dual-q-inf", "study-q-inf", "study-q-nan", "T-inf", "t0-minus-inf", "T-nan",
        "threads-flag-negative", "scheme-of-another-model"])
def test_out_of_range_run_values_are_config_errors(tmp_path, capsys, command, line, flags):
    # an infinite q window ended in a ValueError traceback, an infinite
    # horizon in a log-space overflow (exit 3), a negative thread count ran
    # one thread per CPU, and an exact scheme of another model failed in
    # the sampler (exit 3)
    key = line.split(" ")[0]
    text = "\n".join(ln for ln in gbm_mc_ini().splitlines() if not (key and ln.startswith(key + " ")))
    cfg = write_config(tmp_path, text.replace("[run]", "[run]\n" + line))
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--config", cfg, "--out", str(out)] + flags) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "config error" in err
    assert not out.exists()


@pytest.mark.parametrize("command, x0, line, summary", [
    # the quantile standard error overflows: (v - c)^2 = inf gives NaN
    ("price", "1e300", "", "price.json"),
    # the gap bound overflows to inf
    ("study-epsilon", "1.0", "epsilons = 1e300", "study_epsilon.json"),
    ("study-epsilon", "1.0", "q_window = 0 1e308", "study_epsilon.json"),
], ids=["price-x0-1e300", "study-eps-1e300", "study-q-1e308"])
def test_a_summary_value_that_is_not_finite_is_a_numerical_failure(tmp_path, capsys, command,
                                                                   x0, line, summary):
    # json.dump raised in the middle of the write: a traceback, exit 1 and
    # a truncated summary
    key = line.split(" ")[0]
    text = "\n".join(ln for ln in gbm_mc_ini(x0=x0).splitlines()
                     if not (key and ln.startswith(key + " ")))
    cfg = write_config(tmp_path, text.replace("[run]", "[run]\n" + line))
    out = tmp_path / "o"
    with np.errstate(all="ignore"):
        assert main([command, "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "numerical failure" in err and summary in err
    assert not (out / summary).exists()


GBM_MC_INI = """
[model]
kind = gbm
b = 0.05
s = 0.3

[run]
method = mc
seed = 5
x0 = 1.0
n_paths = 4096
scheme = exact-gbm
"""


@pytest.mark.parametrize("x0", ["-1.0", "0.0", "nan", "inf"])
def test_nonpositive_x0_is_a_config_error(tmp_path, capsys, x0):
    # every model lives on the positive orthant; log(x0) must not be taken
    cfg = write_config(tmp_path, GBM_MC_INI.replace("x0 = 1.0", f"x0 = {x0}"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["price", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "x0" in err


@pytest.mark.parametrize("command, artifact", [("price", "price.csv"), ("dual", "dual.csv")])
def test_pde_x0_outside_the_grid_is_a_config_error(tmp_path, capsys, command, artifact):
    # x in [0.5, 2]: the x = 2 row is not the value at x0 = 5
    for x0 in ("5.0", "0.4"):
        cfg = write_config(tmp_path, pde_ini().replace("x0 = 1.0", f"x0 = {x0}"))
        out = tmp_path / f"o{x0}"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "outside" in err
        assert not (out / artifact).exists()
    # the ends of the axis are on the grid
    cfg = write_config(tmp_path, pde_ini().replace("x0 = 1.0", "x0 = 2.0"))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "edge")]) == 0


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("key", ["z_max", "x_max", "x_min"])
def test_non_finite_grid_value_is_a_config_error(tmp_path, capsys, key, value):
    # caught by the grid's own checks before the solver sees the nodes
    text = "\n".join(f"{key} = {value}" if ln.startswith(key + " ") else ln
                     for ln in pde_ini(method="pipeline").splitlines())
    cfg = write_config(tmp_path, text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "bad [grid] section" in err
