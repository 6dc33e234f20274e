"""qhedge benchmark: four workloads through qhedge.cli.main, one fresh
process per pass, checked against the closed forms in qhedge.oracles.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The seed is the Monte Carlo seed handed to
the program.  Set-up is timed first (fresh-interpreter imports of
qhedge.cli, which also warm the file cache); then passes run one at a
time while the next one is expected to end within S seconds, and at least
two run.  A fixed numpy and interpreter kernel is timed twice before every
pass and after the last: `wall_rel` is the mean pass wall divided by the mean
kernel time.  On a shared machine the speed drifts by tens of
percent over minutes; the kernel drifts with the passes, so the ratio
drifts much less than either.  With --trace 0 the passes are untraced and the result carries
the end-to-end metrics; with --trace 1 the first half of the time runs
untraced passes (at least one) and the second half traced ones (at least
two), and the result carries the per-layer metrics and the tracing
overhead.  The last line of stdout is one JSON object
{correct, attempted, failed, metrics}; a copy with the environment and
every pass goes to .bench_out/.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import layers
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_out")

SETUP_REPS = 7
# the pde-pipeline pass takes about 12 s, so more would not fit a run
MIN_PASSES = 2
# reference kernel samples taken before every pass and after the last;
# one 0.3 s sample varies by about 15 %, as much as a whole pass does
REF_REPS = 2
RUN_LIMIT_S = 170.0

END_TO_END = {"setup_s": "s", "wall_rel": "1", "peak_rss_mb": "MB"}
CHECK_UNITS = {
    "check.mc_gap_se": "SE",
    "check.pde_err": "1",
    "pde.dual_err_x0": "1",
    "pde.primal_err_x0": "1",
    "pde.d2_err_x0": "1",
    "check.invariant_violations": "count",
    "check.failed_frac": "1",
    "trace.overhead_s": "s",
}

_SETUP_CODE = (
    "import time; t = time.perf_counter(); import qhedge.cli; t = time.perf_counter() - t\n"
    "import json, numpy, scipy; from qhedge import _kernels\n"
    "print(json.dumps({'import_s': t, 'numpy': numpy.__version__, "
    "'scipy': scipy.__version__, 'backend': _kernels.backend()}))"
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(workloads.THREADS)
    return env


def git_commit():
    """HEAD of the checkout, read without git; None outside a repository."""
    gitdir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(gitdir, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(gitdir, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(gitdir, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def measure_setup(env: dict) -> tuple[float, dict]:
    """Median import time of qhedge.cli over fresh interpreters.  Only the
    first import in a fresh checkout compiles the bytecode; the median
    leaves that one out."""
    runs = []
    for _ in range(SETUP_REPS):
        out = subprocess.run([sys.executable, "-c", _SETUP_CODE], env=env, cwd=ROOT,
                             capture_output=True, text=True, check=True, timeout=60)
        runs.append(json.loads(out.stdout.strip().splitlines()[-1]))
    return statistics.median(r["import_s"] for r in runs), runs[-1]


_REF_DATA = np.random.default_rng(0).standard_normal(1_000_000)


def reference_s() -> float:
    """Wall time of a fixed kernel, about 0.3 s on a 2-vCPU VM: numpy
    passes over an 8 MB array and a pure-Python loop, the two kinds of work
    qhedge does.  It never touches qhedge, so a change to the program
    cannot move it."""
    start = time.perf_counter()
    for _ in range(10):
        b = np.exp(_REF_DATA * 0.01)
        np.cumsum(b, out=b)
        b.sort()
        np.log1p(b, out=b)
    x = 0.0
    for i in range(800_000):
        x += i * 0.5
    return time.perf_counter() - start


def run_pass(name: str, seed: int, trace: bool, index: int, env: dict,
             timeout: float) -> dict:
    """One pass in a fresh process; its directory is removed afterwards."""
    pass_dir = os.path.join(WORK, f"{name}-{os.getpid()}-{index}")
    cmd = [sys.executable, os.path.join(HERE, "passrun.py"), "--workload", name,
           "--mc-seed", str(seed), "--dir", pass_dir]
    cmd += ["--trace"] * trace
    try:
        try:
            proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                                  text=True, timeout=timeout)
            tail = proc.stderr.strip().splitlines()[-3:]
        except subprocess.TimeoutExpired:
            tail = [f"pass timed out after {timeout:.0f} s"]
        try:
            with open(os.path.join(pass_dir, "result.json")) as fh:
                result = json.load(fh)
        except (OSError, ValueError):
            n_ops = len(workloads.build(name).ops)
            result = {"crashed": tail, "check": {"failed": n_ops, "gate_failures": [],
                                                 "ops": []}}
    finally:
        shutil.rmtree(pass_dir, ignore_errors=True)
    result["traced"] = trace
    return result


def summarise(passes: list, refs: list, setup_s: float, trace: bool,
              failed_frac: float) -> tuple[dict, dict]:
    """(end-to-end values, per-layer values) from the completed passes of
    one run and the reference kernel times taken around them; a traced run
    has at least one untraced and one traced pass.  The end-to-end values
    also carry the raw mean pass wall and kernel time, for the report.
    Means, not medians: a run has only a few passes, and over runs of the
    same code the ratio of means varied less than the ratio of medians."""
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    wall_s = statistics.fmean(p["wall_s"] for p in untraced)
    ref_s = statistics.fmean(refs)
    e2e = {
        "setup_s": setup_s,
        "wall_rel": wall_s / ref_s,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
        "wall_s": wall_s,
        "ref_s": ref_s,
    }
    per_layer = {}
    if trace:
        for key in layers.UNITS:
            per_layer[key] = statistics.median(p["layers"][key] for p in traced)
        for key, field in (("check.mc_gap_se", "mc_gap_se"), ("check.pde_err", "pde_err"),
                           ("pde.dual_err_x0", "dual_err_x0"),
                           ("pde.primal_err_x0", "primal_err_x0"),
                           ("pde.d2_err_x0", "d2_err_x0"),
                           ("check.invariant_violations", "invariant_violations")):
            values = [p["check"][field] for p in passes if p["check"][field] is not None]
            per_layer[key] = statistics.median(values) if values else 0.0
        per_layer["check.failed_frac"] = failed_frac
        per_layer["trace.overhead_s"] = (statistics.fmean(p["wall_s"] for p in traced)
                                         - wall_s)
    return e2e, per_layer


def result_metrics(e2e: dict, per_layer: dict, trace: bool) -> dict:
    """The result line's metrics: the end-to-end ones untraced, the
    per-layer ones traced, each as {"value", "unit"}."""
    if trace:
        units = dict(layers.UNITS, **CHECK_UNITS)
        return {k: {"value": v, "unit": units[k]} for k, v in per_layer.items()}
    return {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return f"{value:.6g}"


def report(name: str, seed: int, env_info: dict, passes: list, e2e: dict,
           per_layer: dict, attempted: int, failed: int) -> None:
    """Human-readable lines: environment, passes, the seven end-to-end
    metrics, and the per-layer metrics of a traced run."""
    print(f"# workload {name}  seed {seed}  " + "  ".join(f"{k}={v}" for k, v in env_info.items()))
    for i, p in enumerate(passes):
        chk = p["check"]
        if "crashed" in p:
            print(f"# pass {i}: crashed: {' | '.join(p['crashed'])}")
            continue
        print(f"# pass {i}{' traced' if p['traced'] else ''}: wall {p['wall_s']:.4f} s, "
              f"peak rss {p['peak_rss_mb']:.1f} MB, ops "
              + ", ".join(f"{o['op']} {o['wall_s']:.3f} s" + (" FAILED" if o["failed"] else "")
                          for o in chk["ops"]))
        for o in chk["ops"]:
            if o["failed"]:
                print(f"#   {o['op']} failed: {o['reason']}")
        for note in chk["gate_failures"]:
            print(f"#   incorrect: {note}")
        if chk["violations"]:
            print("#   invariant violations: "
                  + ", ".join(f"{k} {v}" for k, v in sorted(chk["violations"].items())))
    last = next((p["check"] for p in reversed(passes) if "wall_s" in p), {})
    walls = [p["wall_s"] for p in passes if "wall_s" in p and not p["traced"]]
    rows = [
        ("setup_s", e2e.get("setup_s"), "s", "median of fresh-interpreter imports"),
        ("wall_rel", e2e.get("wall_rel"), "1", "wall_s / ref_s"),
        ("wall_s", e2e.get("wall_s"), "s",
         f"mean of {len(walls)} untraced passes"
         + (f"; median {statistics.median(walls):.4f}, range {min(walls):.4f} to "
            f"{max(walls):.4f}" if walls else "")),
        ("ref_s", e2e.get("ref_s"), "s", "mean reference kernel time"),
        ("peak_rss_mb", e2e.get("peak_rss_mb"), "MB", "median over untraced passes"),
        ("failed_frac", failed / attempted if attempted else None, "1",
         f"{failed} of {attempted} ops"),
        ("mc_gap_se", last.get("mc_gap_se"), "SE", f"gate {last.get('mc_z_gate')} SE"),
        ("pde_err", last.get("pde_err"), "1", "max |w|,|U| - oracle on the x0 row"),
        ("invariant_violations", last.get("invariant_violations"), "count",
         f"at tol {last.get('inv_tol')}"),
    ]
    for key, value, unit, note in rows:
        print(f"{key:<22} {_fmt(value):>14} {unit:<6} {note}")
    if per_layer:
        units = dict(layers.UNITS, **CHECK_UNITS)
        for key, value in per_layer.items():
            print(f"{key:<26} {_fmt(value):>14} {units[key]}")
        traced = [p for p in passes if p["traced"] and "layers" in p]
        if traced:
            sh = layers.shares(traced[-1]["layers"], traced[-1]["wall_s"])
            print("# share of traced pass wall: "
                  + ", ".join(f"{k} {v:.1%}" for k, v in sh.items() if v >= 0.001))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "qhedge", "cli.py")):
        print(f"bench: no qhedge sources under {SRC}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    env = child_env()
    os.makedirs(WORK, exist_ok=True)
    setup_s, info = measure_setup(env)
    env_info = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": info["numpy"],
        "scipy": info["scipy"],
        "backend": info["backend"],
        "commit": git_commit(),
    }

    # the phase whose figures the run reports runs at least MIN_PASSES
    # passes, the untraced baseline of a traced run at least one; then one
    # more whenever a pass as long as the last one would end within the
    # phase's time, unless the run limit is near
    phases = [(False, args.seconds)]
    if args.trace:
        phases = [(False, args.seconds / 2), (True, args.seconds)]
    passes, refs = [], []
    t0 = time.perf_counter()
    for traced, until in phases:
        min_passes = MIN_PASSES if traced == bool(args.trace) else 1
        for n in itertools.count(1):
            begun = time.perf_counter()
            refs += [reference_s() for _ in range(REF_REPS)]
            timeout = max(RUN_LIMIT_S - (begun - started), 10.0)
            passes.append(run_pass(args.workload, args.seed, traced, len(passes), env,
                                   timeout))
            now = time.perf_counter()
            if RUN_LIMIT_S - (now - started) < 3 * (now - begun):
                break
            if n >= min_passes and (now - t0) + (now - begun) > until:
                break
    refs += [reference_s() for _ in range(REF_REPS)]

    attempted = len(workloads.build(args.workload).ops) * len(passes)
    failed = sum(p["check"]["failed"] for p in passes)
    correct = failed == 0 and not any(p["check"]["gate_failures"] for p in passes)
    done = [p for p in passes if "wall_s" in p]
    e2e, per_layer = {}, {}
    if {p["traced"] for p in done} == {False, bool(args.trace)}:
        e2e, per_layer = summarise(done, refs, setup_s, bool(args.trace),
                             failed / attempted)
    report(args.workload, args.seed, env_info, passes, e2e, per_layer, attempted, failed)
    if not e2e:
        print("bench: no pass completed", file=sys.stderr)
        return 1

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": result_metrics(e2e, per_layer, bool(args.trace))}

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env_info, "result": result,
              "reference_s": refs,
              "passes": [{k: v for k, v in p.items() if k != "spans"} for p in passes]}
    traced = [p for p in passes if p.get("spans")]
    if traced:
        record["spans_last_traced_pass"] = traced[-1]["spans"]
    with open(os.path.join(WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
