"""Per-layer metrics from the spans of one traced pass.

Self time is a span's duration minus the part of it that its child spans
cover (the union of their intervals, since engine blocks overlap across
pool threads).  Busy time of a layer that runs in threads can exceed the
pass wall.
"""
from __future__ import annotations

import statistics

ESTIMATORS = ("mc.dual_value", "mc.dual_value_regularized", "mc.dual_curve",
              "mc.quantile_value", "mc.quantile_curve")

# name -> unit, in the order they are reported
UNITS = {
    "engine.busy_s": "s",
    "engine.wall_s": "s",
    "engine.block_s": "s",
    "engine.path_steps_per_s": "1/s",
    "engine.blocks": "count",
    "mc.estimator_s": "s",
    "mc.estimator_calls": "count",
    "mc.sample_self_s": "s",
    "pde.solve_s.d1": "s",
    "pde.solve_s.d2": "s",
    "pde.node_steps_per_s": "1/s",
    "pde.substeps": "count",
    "kernels.thomas_calls": "count",
    "kernels.thomas_s": "s",
    "pde.transform_s": "s",
    "pde.slices_per_s": "1/s",
    "pde.enveloped_slices": "count",
    "pde.saturated_slices": "count",
    "duality.envelope_calls": "count",
    "duality.envelope_s": "s",
    "pde.verify_s": "s",
    "pde.residual_s": "s",
    "pde.verify_checked": "count",
    "pde.verify_violations": "count",
    "pde.verify_max_residual": "1",
    "surfaces.csv_s": "s",
    "surfaces.csv_mb": "MB",
    "surfaces.csv_mb_per_s": "MB/s",
    "surfaces.bin_s": "s",
    "surfaces.read_s": "s",
    "cli.self_s": "s",
}


def _dur(span: dict) -> float:
    return span["end"] - span["start"]


def union_length(intervals) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_time(span: dict, children: list) -> float:
    inside = [(max(c["start"], span["start"]), min(c["end"], span["end"])) for c in children]
    return _dur(span) - union_length([iv for iv in inside if iv[1] > iv[0]])


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans: list) -> dict:
    """Every metric in UNITS, as plain numbers; layers a workload does not
    use read 0."""
    spans = [s for s in spans if s["end"] is not None]
    by_name: dict[str, list] = {}
    children: dict[int, list] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    names = {s["id"]: s["name"] for s in spans}

    def total(name: str) -> float:
        return sum(_dur(s) for s in by_name.get(name, []))

    def work(name: str, key: str) -> float:
        return sum(s.get("work", {}).get(key, 0) for s in by_name.get(name, []))

    m = {}
    blocks = by_name.get("engine.terminal_block", [])
    m["engine.busy_s"] = total("engine.terminal_block")
    m["engine.wall_s"] = union_length([(s["start"], s["end"]) for s in blocks])
    m["engine.block_s"] = statistics.median(_dur(s) for s in blocks) if blocks else 0.0
    m["engine.path_steps_per_s"] = _ratio(work("engine.terminal_block", "path_steps"),
                                          m["engine.busy_s"])
    m["engine.blocks"] = len(blocks)

    top_estimators = [s for s in spans if s["name"] in ESTIMATORS
                      and names.get(s["parent"]) not in ESTIMATORS]
    m["mc.estimator_s"] = sum(_dur(s) for s in top_estimators)
    m["mc.estimator_calls"] = len(top_estimators)
    m["mc.sample_self_s"] = sum(self_time(s, children.get(s["id"], []))
                                for s in by_name.get("mc.sample_terminal", []))

    solves = by_name.get("pde.solve_dual_pde", [])
    for dim in (1, 2):
        m[f"pde.solve_s.d{dim}"] = sum(_dur(s) for s in solves
                                       if s.get("work", {}).get("dim") == dim)
    m["pde.node_steps_per_s"] = _ratio(work("pde.solve_dual_pde", "node_steps"),
                                       total("pde.solve_dual_pde"))
    m["pde.substeps"] = max((s.get("work", {}).get("substeps", 0) for s in solves), default=0)
    m["kernels.thomas_calls"] = len(by_name.get("kernels.thomas_batch", []))
    m["kernels.thomas_s"] = total("kernels.thomas_batch")

    m["pde.transform_s"] = total("pde.dual_to_primal")
    m["pde.slices_per_s"] = _ratio(work("pde.dual_to_primal", "slices"), m["pde.transform_s"])
    m["pde.enveloped_slices"] = work("pde.dual_to_primal", "enveloped")
    m["pde.saturated_slices"] = work("pde.dual_to_primal", "saturated")
    m["duality.envelope_calls"] = len(by_name.get("duality.convex_envelope", []))
    m["duality.envelope_s"] = total("duality.convex_envelope")

    m["pde.verify_s"] = total("pde.verify_supersolution")
    m["pde.residual_s"] = total("pde.hjb_residual")
    m["pde.verify_checked"] = work("pde.verify_supersolution", "checked")
    m["pde.verify_violations"] = work("pde.verify_supersolution", "violations")
    m["pde.verify_max_residual"] = max(
        (s["work"]["max_residual"] for s in by_name.get("pde.verify_supersolution", [])
         if "work" in s), default=0.0)

    m["surfaces.csv_s"] = total("surfaces.write_surface_csv")
    m["surfaces.csv_mb"] = work("surfaces.write_surface_csv", "bytes") / 1e6
    m["surfaces.csv_mb_per_s"] = _ratio(m["surfaces.csv_mb"], m["surfaces.csv_s"])
    m["surfaces.bin_s"] = total("surfaces.write_surface_bin")
    m["surfaces.read_s"] = total("surfaces.read_surface_bin")

    ops = [s for s in spans if s["name"].startswith("op.")]
    m["cli.self_s"] = sum(self_time(s, children.get(s["id"], [])) for s in ops)
    return m


def shares(m: dict, wall: float) -> dict:
    """Share of the traced pass wall spent in each layer (blocking time)."""
    parts = {
        "engine": m["engine.wall_s"],
        "mc.sample_self": m["mc.sample_self_s"],
        "mc.estimators": m["mc.estimator_s"],
        "pde.solve": m["pde.solve_s.d1"] + m["pde.solve_s.d2"],
        "pde.transform": m["pde.transform_s"],
        "pde.verify": m["pde.verify_s"],
        "surfaces": m["surfaces.csv_s"] + m["surfaces.bin_s"] + m["surfaces.read_s"],
        "cli.self": m["cli.self_s"],
    }
    return {k: _ratio(v, wall) for k, v in parts.items()}
