"""Command-line driver: config ingestion, runs, studies, persistence.

A run needs numpy only; scipy serves the tests as an independent reference.

Subcommands: price, dual, solve, verify, study-epsilon, compare-oracle
(which needs a d = 1 gbm or bessel3 model and the payoff g(x) = x1).
Configs are INI files; the keys read, with their defaults:

  [model]   kind = gbm | bessel3 | custom (required)
            gbm: b, s (required; one value, or d values separated by
              spaces or commas; s is then d values, the diagonal, or
              d*d values, the volatility matrix row by row)
            custom: dim = 1; b_exprs = d expressions separated by ";";
              s_exprs = d rows separated by ";", entries by ",";
              variables x1..xd
  [payoff]  optional; kind = linear | expression (linear)
            linear: weights (none: the first coordinate)
            expression: expr (required)
  [grid]    needed by solve, and by price and dual unless the method is mc
            t0, T (see [run]), n_t = 64, x_min, x_max (required),
            n_x = 128, n_z = 128, domain = q (only q), z_max (required)
  [run]     method = mc | pde | pipeline (mc); seed = 0; x0 = 1.0 (d values,
            each finite and > 0; price and dual with the pde or pipeline
            method read the surface at the grid node nearest x0 and need
            x0 inside [x_min, x_max]);
            n_paths = 100000, n_steps = 64 (each at least 1);
            scheme = log-euler | exact-gbm | exact-bessel3 (the exact
            sampler of a gbm or bessel3 model, log-euler otherwise; an
            exact scheme of another model is a configuration error);
            t0 = 0.0, T = 1.0 (finite, t0 < T; the run's one horizon, for
              the sampler and the grid alike: each of t0 and T comes from
              [grid] where given there, else from [run], else the default);
            epsilons (finite and positive; solve and study-epsilon
              need at least one);
            q_window = 0.2 2.0 (0 <= lo < hi, hi finite; study-epsilon
              probes [lo, hi]; dual with the mc method probes [0, hi]);
              n_probe = 41 (at least 1);
            p_points = 101 (at least 3);
            tolerance (verify, finite and >= 0; none: 10 (dt + dx^2 +
              dp^2), with the primal surface's p spacing);
            threads = 0 (at least 0; 0: one per CPU); refine (none, n or
            "r_x r_q r_t", each at least 1); pad (auto, n or
            "x_cells q_cells", each at least 0)

--seed, --threads and --method override the [run] values.  All artifacts
are data-only (CSV plus a JSON summary); identical config and seed produce
byte-identical outputs except for the isolated "timestamp" key in the JSON.
The solve summary also carries deterministic "counters" per epsilon: the
route the dual solve took ("numeraire" for a gbm or bessel3 model with
g = c x1, "direct" otherwise in d = 1), the dual solve's substeps per time
step (always 1: the solver steps the dual in characteristic coordinates,
without an x-q cross term to substep) and, with the pipeline method, the
transform's enveloped and saturated slices.
The verify report counts the non-convex nodes the residual skips
("n_nonconvex"); its "max_residual" is null where no node was checked.
The study-epsilon summary's "monotone" says whether the sup gap never
rises as eps falls, whatever order the config lists eps in.  The price and
compare-oracle summaries record the "epsilon" of their values: 0 under
Monte Carlo, the solved eps under the pde and pipeline methods.

Exit codes: 0 success (verify: pass), 1 verify failure, 2 configuration
error (a missing or unknown entry, or a value that does not parse or is out
of range, such as a refine or pad with another count of values than those
above; also a grid or surface of the wrong dimension or domain, such as a
dual surface given to verify), 3 numerical failure (also a summary value
that is not finite, which JSON cannot hold: price, study-epsilon and
compare-oracle serialize their summary before any artifact, so such a run
writes no file).
"""
from __future__ import annotations

import argparse
import configparser
import dataclasses
import datetime
import functools
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__, engine, market, mc, oracles, pde
from .errors import ConfigError, Nonfinite, QhedgeError
from .surfaces import GridSpec, read_surface_bin, write_surface_bin, write_surface_csv

_SCHEMA = 1


def _floats(text: str) -> list:
    return [float(tok) for tok in text.replace(",", " ").split()]


def _parse_model(cp: configparser.ConfigParser) -> market.MarketModel:
    if not cp.has_section("model"):
        raise ConfigError("missing [model] section")
    sec = cp["model"]
    kind = sec.get("kind", "").strip()
    if kind == "bessel3":
        return market.builtin_model("bessel3")
    if kind == "gbm":
        if "b" not in sec or "s" not in sec:
            raise ConfigError("gbm model needs b and s")
        b = _floats(sec["b"])
        s = _floats(sec["s"])
        if len(b) > 1 and len(s) == len(b) ** 2:
            s = np.reshape(s, (len(b), len(b)))
        return market.builtin_model("gbm", b=b[0] if len(b) == 1 else b,
                                    s=s[0] if len(s) == 1 else s)
    if kind == "custom":
        dim = sec.getint("dim", 1)
        b_exprs = [e.strip() for e in sec.get("b_exprs", "").split(";") if e.strip()]
        s_exprs = [[e.strip() for e in row.split(",")]
                   for row in sec.get("s_exprs", "").split(";") if row.strip()]
        return market.builtin_model("custom", dim=dim, b_exprs=b_exprs, s_exprs=s_exprs)
    raise ConfigError(f"unknown model kind {kind!r}")


def _parse_payoff(cp: configparser.ConfigParser, dim: int) -> market.Payoff:
    if not cp.has_section("payoff"):
        return market.linear_payoff()
    sec = cp["payoff"]
    kind = sec.get("kind", "linear").strip()
    if kind == "linear":
        w = sec.get("weights", "").strip()
        return market.linear_payoff(_floats(w) if w else None)
    if kind == "expression":
        expr = sec.get("expr", "").strip()
        if not expr:
            raise ConfigError("expression payoff needs expr")
        return market.payoff_from_expression(expr, dim)
    raise ConfigError(f"unknown payoff kind {kind!r}")


def _run_ints(run, key: str, count: int, least: int):
    """[run] `key`: None when absent or empty, else one integer or `count`
    of them, each at least `least`."""
    tokens = run.get(key, "").replace(",", " ").split()
    if not tokens:
        return None
    try:
        vals = [int(tok) for tok in tokens]
    except ValueError:
        vals = []
    if len(vals) not in (1, count) or min(vals) < least:
        raise ConfigError(f"{key} must be one integer or {count}, each >= {least}")
    return vals[0] if len(vals) == 1 else tuple(vals)


class _Run:
    """Everything a subcommand needs, pulled out of the config and flags."""

    def __init__(self, args):
        self.out = args.out
        path = args.config
        if path is None:
            raise ConfigError("--config is required")
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from None
        self.config_sha = hashlib.sha256(raw).hexdigest()
        cp = configparser.ConfigParser()
        try:
            cp.read_string(raw.decode("utf-8"))
        except (UnicodeDecodeError, configparser.Error) as exc:
            raise ConfigError(f"cannot parse config: {exc}") from None
        self.cp = cp
        self.model = _parse_model(cp)
        self.payoff = _parse_payoff(cp, self.model.dim)
        run = cp["run"] if cp.has_section("run") else {}
        self.method = args.method or run.get("method", "mc")
        if self.method not in ("mc", "pde", "pipeline"):
            raise ConfigError(f"unknown method {self.method!r}")
        self.seed = args.seed if args.seed is not None else int(run.get("seed", 0))
        self.x0 = np.asarray(_floats(run.get("x0", "1.0")))
        if self.x0.shape != (self.model.dim,):
            raise ConfigError(f"x0 must have {self.model.dim} components")
        # every model lives on the positive orthant
        if not np.all(np.isfinite(self.x0) & (self.x0 > 0)):
            raise ConfigError("x0 components must be finite and > 0")
        # the one horizon of the run: the sampler and the grid both read it
        self.t0 = cp.getfloat("grid", "t0", fallback=float(run.get("t0", 0.0)))
        self.T = cp.getfloat("grid", "T", fallback=float(run.get("T", 1.0)))
        scheme = run.get("scheme", "").strip() or engine.default_scheme(self.model)
        # raises ValueError on t0 or T not finite, n_paths or n_steps below 1,
        # or an unknown scheme, and SchemeMismatch on a scheme of another model
        self.sim = engine.SimConfig(self.t0, self.T, int(run.get("n_steps", 64)),
                                    int(run.get("n_paths", 100_000)), self.seed, scheme)
        engine.check_scheme(self.model, scheme)
        raw_eps = run.get("epsilons", None)
        if raw_eps is None:
            self.epsilons = None
        else:
            self.epsilons = _floats(raw_eps)
            # written so that a NaN fails
            if not all(0 < e < math.inf for e in self.epsilons):
                raise ConfigError("epsilons must be finite and positive")
        self.q_window = _floats(run.get("q_window", "0.2 2.0"))
        # written so that a NaN fails
        if len(self.q_window) != 2 or not 0 <= self.q_window[0] < self.q_window[1] < math.inf:
            raise ConfigError("q_window must be 'lo hi' with 0 <= lo < hi < inf")
        self.n_probe = int(run.get("n_probe", 41))
        if self.n_probe < 1:
            raise ConfigError("n_probe must be >= 1")
        self.p_points = int(run.get("p_points", 101))
        if self.p_points < 3:
            raise ConfigError("p_points must be >= 3")
        self.tolerance = float(run["tolerance"]) if "tolerance" in run else None
        if self.tolerance is not None and not 0 <= self.tolerance < math.inf:
            raise ConfigError("tolerance must be finite and >= 0")
        threads = args.threads if args.threads is not None else int(run.get("threads", 0))
        if threads < 0:
            raise ConfigError("threads must be >= 0")
        self.threads = threads if threads > 0 else (os.cpu_count() or 1)
        self.refine = _run_ints(run, "refine", 3, 1)
        self.pad = None if run.get("pad", "").strip() == "auto" else _run_ints(run, "pad", 2, 0)

    @functools.cached_property
    def grid(self) -> GridSpec:
        """[grid] on the run's horizon, at epsilon 0; each solve takes it at
        its own epsilon."""
        if not self.cp.has_section("grid"):
            raise ConfigError("this command needs a [grid] section")
        sec = self.cp["grid"]
        try:
            grid = GridSpec.regular(
                self.t0, self.T, sec.getint("n_t", 64),
                sec.getfloat("x_min"), sec.getfloat("x_max"), sec.getint("n_x", 128),
                sec.getint("n_z", 128), sec.get("domain", "q").strip(),
                z_max=sec.getfloat("z_max", fallback=None),
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad [grid] section: {exc}") from None
        if grid.domain != "q":
            raise ConfigError(f"[grid] has domain {grid.domain}, the dual solver needs q")
        if grid.dim != self.model.dim:
            raise ConfigError(f"[grid] has dimension {grid.dim}, the model {self.model.dim}")
        return grid

    def samples(self, aux: bool = False) -> mc.SampleSet:
        """The run's terminal samples; the auxiliary increments only with
        aux, which the regularized (eps > 0) estimators need."""
        return mc.sample_terminal(self.model, self.payoff, self.x0, self.sim,
                                  threads=self.threads, aux=aux)

    def solve(self, epsilon: float):
        return pde.solve_dual_pde(self.model, self.payoff,
                                  dataclasses.replace(self.grid, epsilon=epsilon),
                                  pad=self.pad, refine=self.refine)

    def provenance(self, command: str, grid: GridSpec = None) -> dict:
        gdict = None
        if grid is not None:
            gdict = {
                "t0": grid.t[0], "T": grid.t[-1], "n_t": int(grid.t.size),
                "x_min": grid.x_axes[0][0], "x_max": grid.x_axes[0][-1],
                "n_x": [int(ax.size) for ax in grid.x_axes],
                "n_z": int(grid.z.size), "domain": grid.domain,
                "epsilon": grid.epsilon,
            }
        return {
            "schema": _SCHEMA,
            "version": __version__,
            "command": command,
            "method": self.method,
            "seed": self.seed,
            "config_sha256": self.config_sha,
            "model": self.model.name,
            "payoff": self.payoff.name,
            "grid": gdict,
        }

    def summary(self, name: str, payload: dict) -> str:
        """The text of summary `name`: payload with a timestamp, strict
        JSON.  A value that is not finite raises Nonfinite; a command
        serializes its summary this way before it writes any artifact, so
        that such a run leaves no file behind."""
        payload = dict(payload)
        payload["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
        try:
            return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
        except ValueError as exc:
            raise Nonfinite(f"a value in {name} is not finite ({exc})") from None

    def write_text(self, name: str, text: str) -> None:
        with open(os.path.join(self.out, name), "w") as fh:
            fh.write(text)

    def write_json(self, name: str, payload: dict) -> None:
        """Write the summary of payload to `name`."""
        self.write_text(name, self.summary(name, payload))

    def write_csv(self, name: str, header: str, rows) -> None:
        with open(os.path.join(self.out, name), "w") as fh:
            fh.write(header + "\n")
            for row in rows:
                fh.write(",".join("%.17g" % v if isinstance(v, float) else str(v)
                                  for v in row) + "\n")


def _x0_index(grid: GridSpec, x0: np.ndarray) -> tuple:
    """The grid node nearest x0 on each x axis.  An x0 outside an axis
    (beyond the rounding of its ends) is a configuration error: the edge
    row is not the value there."""
    idx = []
    for i, (ax, x) in enumerate(zip(grid.x_axes, x0), start=1):
        if not ax[0] * (1 - 1e-12) <= x <= ax[-1] * (1 + 1e-12):
            raise ConfigError(f"x0 component {i} = {x:g} lies outside the grid's "
                              f"x range [{ax[0]:g}, {ax[-1]:g}]")
        idx.append(int(np.argmin(np.abs(ax - x))))
    return tuple(idx)


def _write_surface(run: _Run, surf, stem: str) -> list:
    """Write surf to `stem`.bin and `stem`.csv in the output directory and
    return the two file names."""
    names = [f"{stem}.bin", f"{stem}.csv"]
    write_surface_bin(surf, os.path.join(run.out, names[0]))
    write_surface_csv(surf, os.path.join(run.out, names[1]))
    return names


def cmd_price(run: _Run) -> int:
    p_grid = mc.default_p_grid(run.p_points)
    grid = None
    if run.method == "mc":
        # the Monte Carlo curve is the unregularized value
        eps = 0.0
        samples = run.samples()
        p_arr, value, se = mc.quantile_curve(samples, p_grid)
        rows = [(float(p), float(v), float(s)) for p, v, s in zip(p_arr, value, se)]
    else:
        eps = run.epsilons[0] if run.epsilons else 0.0
        idx = _x0_index(run.grid, run.x0)
        surf = run.solve(eps)
        primal = pde.dual_to_primal(surf, p_grid)
        grid = surf.grid
        vals = primal.values[0, ...]
        rows = [(float(p), float(vals[idx + (j,)]), 0.0) for j, p in enumerate(p_grid)]
    summary = {k: {"value": v, "stderr": s}
               for k, v, s in (rows[len(rows) // 10], rows[len(rows) // 2], rows[-1])}
    text = run.summary("price.json", {
        "provenance": run.provenance("price", grid),
        "epsilon": eps,
        "rows": len(rows),
        "artifact": "price.csv",
        "summary": {"%.3f" % k: val for k, val in summary.items()},
    })
    run.write_csv("price.csv", "p,value,stderr", rows)
    run.write_text("price.json", text)
    return 0


def cmd_dual(run: _Run) -> int:
    eps_list = run.epsilons or []
    grid = None
    rows = []
    artifacts = ["dual.csv"]
    if run.method == "mc":
        samples = run.samples(aux=bool(eps_list))
        q_grid = np.linspace(0.0, run.q_window[1], run.n_probe)
        for eps in [0.0] + eps_list:
            _, value, se = mc.dual_curve(samples, q_grid, eps)
            rows += zip([eps] * q_grid.size, q_grid.tolist(), value.tolist(), se.tolist())
    else:
        ix = _x0_index(run.grid, run.x0)
        for eps in eps_list or [0.0]:
            surf = run.solve(eps)
            grid = surf.grid
            tag = ("%g" % eps).replace(".", "p")
            artifacts += _write_surface(run, surf, f"dual_eps{tag}")
            for j, q in enumerate(grid.z):
                rows.append((eps, float(q), float(surf.values[0][ix + (j,)]), 0.0))
            # release this epsilon's surface before the next one is solved
            surf = None
    run.write_csv("dual.csv", "epsilon,q,value,stderr", rows)
    run.write_json("dual.json", {
        "provenance": run.provenance("dual", grid),
        "rows": len(rows),
        "epsilons": eps_list,
        "artifacts": artifacts,
    })
    return 0


def cmd_solve(run: _Run) -> int:
    if not run.epsilons:
        raise ConfigError("solve needs a non-empty epsilons entry in [run]")
    artifacts = []
    counters = []
    grid = None
    for eps in run.epsilons:
        surf = run.solve(eps)
        grid = surf.grid
        tag = ("%g" % eps).replace(".", "p")
        artifacts += _write_surface(run, surf, f"surface_eps{tag}")
        counted = {"epsilon": eps, "route": surf.meta["route"],
                   "substeps": surf.meta["substeps"]}
        if run.method == "pipeline":
            primal = pde.dual_to_primal(surf, mc.default_p_grid(run.p_points))
            artifacts += _write_surface(run, primal, f"primal_eps{tag}")
            for key in ("enveloped_slices", "saturated_slices"):
                counted[key] = primal.meta[key]
        counters.append(counted)
        # release this epsilon's surfaces before the next one is solved
        surf = primal = None
    run.write_json("solve.json", {
        "provenance": run.provenance("solve", grid),
        "epsilons": run.epsilons,
        "artifacts": artifacts,
        # deterministic numerical events, one entry per epsilon
        "counters": counters,
    })
    return 0


def cmd_verify(run: _Run, surface_path: str) -> int:
    try:
        surf = read_surface_bin(surface_path)
    except (OSError, ValueError, KeyError) as exc:
        raise ConfigError(f"cannot read surface file: {exc}") from None
    if surf.grid.domain != "p":
        raise ConfigError(f"the surface has domain {surf.grid.domain}, verify needs "
                          "a primal (p-domain) surface")
    if surf.grid.dim != run.model.dim:
        raise ConfigError(f"the surface has dimension {surf.grid.dim}, "
                          f"the model {run.model.dim}")
    tol = run.tolerance
    report = pde.verify_supersolution(surf, run.model, run.payoff, tol)
    fields = dataclasses.asdict(report)
    # with no node checked the max residual is -inf, which JSON cannot hold
    if not math.isfinite(report.max_residual):
        fields["max_residual"] = None
    run.write_json("verify.json", {
        "provenance": run.provenance("verify", surf.grid),
        "surface": os.path.basename(surface_path),
        "report": fields,
    })
    return 0 if report.passed else 1


def cmd_study_epsilon(run: _Run) -> int:
    if not run.epsilons:
        raise ConfigError("study-epsilon needs a non-empty epsilons entry in [run]")
    samples = run.samples(aux=True)
    lo, hi = run.q_window
    q_grid = np.linspace(lo, hi, run.n_probe)
    _, base, base_se = mc.dual_curve(samples, q_grid)
    tau = run.T - run.t0
    rows = []
    for eps in run.epsilons:
        _, reg, reg_se = mc.dual_curve(samples, q_grid, eps)
        gaps = np.abs(reg - base)
        k = int(np.argmax(gaps))
        sup_gap, se = float(gaps[k]), float(reg_se[k] + base_se[k])
        bound = oracles.regularization_bound(hi, eps, tau)
        rows.append((eps, sup_gap, bound, se, sup_gap <= bound + 3.0 * se))
    # the gap must not rise as eps falls, whatever order the config lists eps in
    gaps_by_eps = [gap for _, gap, *_ in sorted(rows)]
    text = run.summary("study_epsilon.json", {
        "provenance": run.provenance("study-epsilon"),
        "q_window": [lo, hi],
        "rows": [{"epsilon": r[0], "sup_gap": r[1], "bound": r[2],
                  "gap_stderr": r[3], "within": bool(r[4])} for r in rows],
        "monotone": all(a <= b for a, b in zip(gaps_by_eps, gaps_by_eps[1:])),
        "artifacts": ["study_epsilon.csv", "study_epsilon_baseline.csv"],
    })
    run.write_csv("study_epsilon_baseline.csv", "q,value,stderr",
                  zip(q_grid.tolist(), base.tolist(), base_se.tolist()))
    run.write_csv("study_epsilon.csv", "epsilon,sup_gap,bound,gap_stderr,within", rows)
    run.write_text("study_epsilon.json", text)
    return 0


def _payoff_is_first_coordinate(cp: configparser.ConfigParser) -> bool:
    if not cp.has_section("payoff"):
        return True
    sec = cp["payoff"]
    weights = sec.get("weights", "").strip()
    return (sec.get("kind", "linear").strip() == "linear"
            and (not weights or _floats(weights) == [1.0]))


def cmd_compare_oracle(run: _Run) -> int:
    kind = run.model.kind
    if kind not in ("bessel3", "gbm"):
        raise ConfigError("compare-oracle needs a builtin model (bessel3 or gbm)")
    # the closed forms price g(x) = x1 in one dimension
    if run.model.dim != 1 or not _payoff_is_first_coordinate(run.cp):
        raise ConfigError("compare-oracle needs d = 1 and the payoff g(x) = x1")
    samples = run.samples()
    x0 = float(run.x0[0])
    tau = run.T - run.t0
    rows = []
    if kind == "gbm":
        b, s = float(run.model.params["b"][0]), float(run.model.params["s"][0, 0])

        def q_oracle(p):
            return oracles.gbm_quantile_value(x0, p, b, s, tau)

        def d_oracle(q):
            return oracles.gbm_dual(x0, q, b, s, tau)
    else:
        def q_oracle(p):
            return oracles.bessel_quantile_value(x0, p)

        def d_oracle(q):
            return oracles.bessel_dual(x0, q)

    p_points = (0.1, 0.3, 0.5, 0.7, 0.9)
    _, value, se = mc.quantile_curve(samples, p_points)
    for p, est, err in zip(p_points, value.tolist(), se.tolist()):
        ref = q_oracle(p)
        rows.append(("quantile_value", p, est, ref, abs(est - ref), err))
    q_points = [q * x0 for q in (0.0, 0.5, 1.0, 1.5, 2.0)]
    _, value, se = mc.dual_curve(samples, q_points)
    for q, est, err in zip(q_points, value.tolist(), se.tolist()):
        ref = d_oracle(q)
        rows.append(("dual_value", q, est, ref, abs(est - ref), err))

    def se_floor(row):
        """One sample's contribution, coordinate / n (x0 / n for a quantile
        row): a row that no sample reached reports SE 0 although its true
        value may lie that far off."""
        return (row[1] if row[0] == "dual_value" else x0) / samples.n

    worst = max(r[4] / max(3.0 * max(r[5], se_floor(r)), 1e-12) for r in rows)
    text = run.summary("compare_oracle.json", {
        "provenance": run.provenance("compare-oracle"),
        # the Monte Carlo estimates and the closed forms are unregularized
        "epsilon": 0.0,
        "rows": len(rows),
        "worst_gap_over_3se": worst,
        "artifact": "compare_oracle.csv",
    })
    run.write_csv("compare_oracle.csv",
                  "quantity,coordinate,estimate,oracle,abs_gap,stderr", rows)
    run.write_text("compare_oracle.json", text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="qhedge", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--version", action="version", version=f"qhedge {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=False, help="INI config path")
    common.add_argument("--out", default=".", help="output directory")
    common.add_argument("--seed", type=int, default=None, help="override [run] seed")
    common.add_argument("--threads", type=int, default=None,
                        help="worker threads (never affects results)")
    common.add_argument("--method", choices=("mc", "pde", "pipeline"), default=None)
    sub.add_parser("price", parents=[common], help="V(p) curve")
    sub.add_parser("dual", parents=[common], help="dual value curve / surfaces")
    sub.add_parser("solve", parents=[common], help="dual PDE surfaces per epsilon")
    vp = sub.add_parser("verify", parents=[common], help="supersolution check")
    vp.add_argument("surface", help="surface container (.bin) to verify")
    sub.add_parser("study-epsilon", parents=[common], help="smearing gap study")
    sub.add_parser("compare-oracle", parents=[common], help="MC vs closed forms")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        run = _Run(args)
        os.makedirs(run.out, exist_ok=True)
    # a ValueError here comes from a value in the config that does not parse
    # or is out of range
    except (ConfigError, QhedgeError, ValueError) as exc:
        print(f"qhedge: config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"qhedge: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "price":
            return cmd_price(run)
        if args.command == "dual":
            return cmd_dual(run)
        if args.command == "solve":
            return cmd_solve(run)
        if args.command == "verify":
            return cmd_verify(run, args.surface)
        if args.command == "study-epsilon":
            return cmd_study_epsilon(run)
        if args.command == "compare-oracle":
            return cmd_compare_oracle(run)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"qhedge: config error: {exc}", file=sys.stderr)
        return 2
    except Nonfinite as exc:
        print(f"qhedge: numerical failure: {exc}", file=sys.stderr)
        return 3
    except QhedgeError as exc:
        print(f"qhedge: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
