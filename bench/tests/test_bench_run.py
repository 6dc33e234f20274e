"""Smoke-sized passes of every workload, the span wrappers, and the
runner's output contract."""
import json
import os
import shutil
import subprocess
import sys

import pytest

import check
import layers
import passrun
import run
import tracing
import workloads

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def smoke_pass(name: str, out: str, tracer=None) -> dict:
    wl = workloads.build(name, smoke=True)
    with open(os.path.join(out, "run.ini"), "w") as fh:
        fh.write(wl.ini(3))
    ops = passrun.run_ops(wl, out, tracer)
    return check.check_pass(wl, out, ops)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_smoke_pass_completes(name, tmp_path):
    res = smoke_pass(name, str(tmp_path))
    assert res["failed"] == 0, res["ops"]
    assert not res["gate_failures"]
    is_mc = name.startswith("mc-")
    assert (res["mc_gap_se"] is not None) == is_mc
    assert (res["pde_err"] is not None) == (not is_mc)


def test_wrappers_restore_every_attribute(tmp_path):
    before = tracing.patched_attributes()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(tracing.patched_attributes()[k] is not v for k, v in before.items())
        res = smoke_pass("pde-pipeline", str(tmp_path), tracer)
    finally:
        tracer.restore()
    after = tracing.patched_attributes()
    assert all(after[k] is v for k, v in before.items())
    assert res["failed"] == 0
    names = {s["name"] for s in tracer.spans}
    assert {"op.solve", "pde.solve_dual_pde", "pde.dual_to_primal",
            "surfaces.write_surface_csv", "pde.verify_supersolution"} <= names
    m = layers.layer_metrics(tracer.spans)
    assert set(m) == set(layers.UNITS)
    assert m["pde.transform_s"] > 0 and m["engine.busy_s"] == 0


def test_pool_thread_spans_have_a_parent(tmp_path):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        smoke_pass("mc-exact", str(tmp_path), tracer)
    finally:
        tracer.restore()
    by_id = {s["id"]: s for s in tracer.spans}
    blocks = [s for s in tracer.spans if s["name"] == "engine.terminal_block"]
    assert blocks
    assert all(by_id[s["parent"]]["name"] == "mc.sample_terminal" for s in blocks)


def _run(cwd, *args):
    env = dict(os.environ, PYTHONPATH="")
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=170)


def _synthetic_pass(traced: bool, wall: float) -> dict:
    check_summary = {"mc_gap_se": 1.5, "pde_err": None, "dual_err_x0": None,
                     "primal_err_x0": None, "d2_err_x0": None, "invariant_violations": 0}
    record = {"traced": traced, "wall_s": wall, "peak_rss_mb": 100.0,
              "check": check_summary}
    if traced:
        record["layers"] = layers.layer_metrics([])
    return record


def test_result_metrics_match_the_declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    passes = [_synthetic_pass(False, 2.0), _synthetic_pass(False, 4.0),
              _synthetic_pass(True, 3.5)]
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        e2e, per_layer = run.summarise(passes if trace else passes[:2], [0.2, 0.3, 0.4],
                                       0.5, trace, 0.0)
        assert e2e["wall_s"] == 3.0 and e2e["wall_rel"] == 10.0
        metrics = run.result_metrics(e2e, per_layer, trace)
        assert {m["name"]: m["unit"] for m in spec[key]} == \
            {k: v["unit"] for k, v in metrics.items()}
        assert all(isinstance(v["value"], (int, float)) for v in metrics.values())
    assert per_layer["trace.overhead_s"] == 0.5


def test_runner_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run(tmp_path, "--workload", "mc-exact", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
