"""The output checker notices what it is meant to notice: a non-convex
bump, a shifted primal, a shifted price curve."""
import os

import numpy as np

import check
import workloads
from qhedge import oracles
from qhedge.surfaces import GridSpec, Surface, write_surface_bin

B, S, EPS = workloads.GBM_B, workloads.GBM_S, 0.2
ORACLE = ("gbm", B, S)


def oracle_surface(domain: str) -> Surface:
    """A gbm surface filled with the closed form at every node."""
    grid = GridSpec.regular(0.0, 1.0, 4, 0.5, 2.0, 5, 21, domain,
                            z_max=4.0 if domain == "q" else None, epsilon=EPS)
    fn = oracles.gbm_dual_smeared if domain == "q" else oracles.gbm_primal_smeared
    vals = np.array([[[fn(x, z, B, S, 1.0 - t, EPS) for z in grid.z]
                      for x in grid.x_axes[0]] for t in grid.t])
    if domain == "p":
        vals[-1] = grid.x_axes[0][:, None] * grid.z[None, :]
    return Surface(grid, vals)


def tally_of(surf: Surface) -> check.Tally:
    tally = check.Tally()
    check.check_surface(surf, ORACLE, [1.0], tally)
    return tally


def test_oracle_surfaces_are_clean():
    for domain in ("q", "p"):
        tally = tally_of(oracle_surface(domain))
        assert tally.invariant_violations == 0
        assert tally.pde_err < 1e-12


def test_nonconvex_bump_raises_invariant_violations():
    surf = oracle_surface("q")
    vals = surf.values.copy()
    vals[1, 2, 10] += 0.01
    tally = tally_of(Surface(surf.grid, vals))
    assert tally.violations["dual_convexity"] >= 1
    assert tally.invariant_violations >= 1


def test_shifted_primal_raises_pde_err():
    surf = oracle_surface("p")
    vals = surf.values.copy()
    vals[:-1] += 0.01
    tally = tally_of(Surface(surf.grid, vals))
    assert tally.primal_err_x0 > 0.009
    assert tally.pde_err > 0.009


def write_price(out, shift_se: float) -> None:
    p = np.linspace(0.0, 1.0, 11)
    ref = np.array([oracles.gbm_quantile_value(1.0, pi, B, S, 1.0) for pi in p])
    se = np.where(p > 0, 1e-3, 0.0)
    with open(os.path.join(out, "price.csv"), "w") as fh:
        fh.write("p,value,stderr\n")
        for row in zip(p, ref + shift_se * se, se):
            fh.write("%.17g,%.17g,%.17g\n" % row)
    with open(os.path.join(out, "price.json"), "w") as fh:
        fh.write("{}")


def test_shifted_price_curve_raises_mc_gap_se(tmp_path):
    wl = workloads.build("mc-euler")
    write_price(str(tmp_path), 0.0)
    clean = check.check_pass(wl, str(tmp_path), [{"op": "price", "rc": 0, "error": None}])
    assert clean["mc_gap_se"] < 1e-6 and not clean["gate_failures"]
    write_price(str(tmp_path), 8.0)
    shifted = check.check_pass(wl, str(tmp_path), [{"op": "price", "rc": 0, "error": None}])
    assert shifted["mc_gap_se"] > 7.9
    assert shifted["gate_failures"]
    assert shifted["failed"] == 0


def test_missing_output_and_failed_verify_count_as_failed(tmp_path):
    wl = workloads.build("pde-pipeline")
    with open(tmp_path / "verify.json", "w") as fh:
        fh.write('{"report": {"passed": false, "n_violations": 3, "max_residual": 1.0}}')
    res = check.check_pass(wl, str(tmp_path), [
        {"op": "solve", "rc": 0, "error": None},
        {"op": "verify", "rc": 1, "error": None},
    ])
    assert res["failed"] == 2
    assert "solve.json" in res["ops"][0]["reason"]


def write_d2_surface(out, shift: float) -> None:
    """The pde-adi d=2 surface filled with its reduced closed form."""
    wl = workloads.build("pde-adi")
    d2 = wl.d2
    v = check.d2_log_vol(d2["b"], d2["s"])
    grid = GridSpec.regular(0.0, 1.0, 3, [0.5, 0.5], [2.0, 2.0], [5, 5], 11, "q",
                            z_max=4.0, epsilon=EPS)
    row = [[oracles.gbm_dual_smeared(x1, q, 0.0, v, 1.0 - t, EPS) for q in grid.z]
           for t in grid.t for x1 in grid.x_axes[0]]
    vals = np.array(row).reshape(grid.t.size, 5, 1, grid.z.size).repeat(5, axis=2)
    write_surface_bin(Surface(grid, vals + shift), os.path.join(out, check.D2_SURFACE))


def test_d2_surface_has_its_own_tolerance(tmp_path):
    wl = workloads.build("pde-adi")
    op = [{"op": "d2-solve", "rc": 0, "error": None}]
    write_d2_surface(str(tmp_path), 0.0)
    clean = check.check_pass(wl, str(tmp_path), op)
    assert clean["d2_err_x0"] < 1e-12 and not clean["gate_failures"]
    # well inside the loose d=1 tolerance, well outside the d=2 one
    shift = 2 * wl.d2["err_tol"]
    assert shift < wl.pde_err_tol
    write_d2_surface(str(tmp_path), shift)
    shifted = check.check_pass(wl, str(tmp_path), op)
    assert abs(shifted["d2_err_x0"] - shift) < 1e-9
    assert shifted["gate_failures"] and "d=2" in shifted["gate_failures"][0]
