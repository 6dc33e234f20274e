"""One pass of one workload, in a fresh interpreter.

    python3 bench/passrun.py --workload NAME --mc-seed N --dir DIR [--trace]

Writes DIR/run.ini, runs the workload's ops through qhedge.cli.main (the
d=2 op through the library), checks the artifacts and writes
DIR/result.json: per-op status, pass wall, peak RSS, the check summary and,
with --trace, the spans and the per-layer metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

import qhedge.cli
from qhedge import market, pde, surfaces

import check
import layers
import tracing
import workloads


def _d2_solve(wl, out: str) -> int:
    """The d=2 gbm dual solve, which the CLI grid parser cannot express."""
    d2 = wl.d2
    model = market.builtin_model("gbm", b=list(d2["b"]), s=list(d2["s"]))
    grid = surfaces.GridSpec.regular(
        0.0, workloads.HORIZON, d2["n_t"], [d2["x_min"]] * 2, [d2["x_max"]] * 2,
        [d2["n_x"]] * 2, d2["n_z"], "q", z_max=d2["z_max"], epsilon=d2["epsilon"])
    surf = pde.solve_dual_pde(model, market.linear_payoff(list(d2["weights"])), grid)
    surfaces.write_surface_bin(surf, os.path.join(out, check.D2_SURFACE))
    return 0


def peak_rss_mb() -> float:
    """Peak resident memory of this process.  ru_maxrss would also count
    the parent's peak, which exec carries over; VmHWM starts afresh."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_ops(wl, out: str, tracer=None) -> list:
    """Run every op of the workload in order; an op that raises is recorded
    and the pass goes on."""
    config = os.path.join(out, "run.ini")
    records = []
    for op in wl.ops:
        rec = {"op": op[0], "rc": None, "error": None}
        start = time.perf_counter()
        try:
            if tracer is None:
                rec["rc"] = _run_op(wl, op, config, out)
            else:
                with tracer.span("op." + op[0]):
                    rec["rc"] = _run_op(wl, op, config, out)
        except Exception as exc:  # a raising op is a failed op, not a failed pass
            rec["error"] = "".join(traceback.format_exception_only(type(exc), exc)).strip()
            rec["traceback"] = traceback.format_exc()
        rec["wall_s"] = time.perf_counter() - start
        records.append(rec)
    return records


def _run_op(wl, op: tuple, config: str, out: str) -> int:
    if op[0] == "d2-solve":
        return _d2_solve(wl, out)
    argv = [op[0], "--config", config, "--out", out, *op[1:]]
    if op[0] == "verify":
        argv[-1] = os.path.join(out, op[1])
    return qhedge.cli.main(argv)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--mc-seed", type=int, required=True)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    wl = workloads.build(args.workload)
    os.makedirs(args.dir, exist_ok=True)
    with open(os.path.join(args.dir, "run.ini"), "w") as fh:
        fh.write(wl.ini(args.mc_seed))

    tracer = tracing.Tracer() if args.trace else None
    start = time.perf_counter()
    if tracer is not None:
        tracer.install()
    try:
        ops = run_ops(wl, args.dir, tracer)
    finally:
        if tracer is not None:
            tracer.restore()
    wall = time.perf_counter() - start
    result = {"workload": wl.name, "mc_seed": args.mc_seed, "wall_s": wall,
              "peak_rss_mb": peak_rss_mb(), "check": check.check_pass(wl, args.dir, ops)}
    if tracer is not None:
        result["spans"] = tracer.spans
        result["layers"] = layers.layer_metrics(tracer.spans)
    with open(os.path.join(args.dir, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
