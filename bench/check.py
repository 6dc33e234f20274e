"""Output checker: reads the artifacts one pass left behind and scores them
against the closed forms in qhedge.oracles.

It yields, per pass:
  failed ops        an op fails if it exited non-zero, raised, left an
                    output missing or non-finite, or is a verify that did
                    not pass;
  mc_gap_se         worst |estimate - oracle| / SE over every MC point;
  pde_err           worst |w - oracle| and |U - oracle| along the x-row
                    nearest x0 at t0, over all q and p nodes; the d=1
                    surfaces and the d=2 one are gated each against their
                    own tolerance;
  violations        nodes that break an invariant, by kind, at INV_TOL.
"""
from __future__ import annotations

import json
import math
import os

import numpy as np

from qhedge import oracles
from qhedge.surfaces import read_surface_bin
from workloads import HORIZON

INV_TOL = 1e-6
# A correct MC estimate lies within this many standard errors of the
# closed form; over ~400 correlated points a false alarm is below 1e-3.
MC_Z_GATE = 5.0
# exact agreement for estimates whose standard error is zero (q = 0, p = 0)
EXACT_TOL = 1e-12


class CheckFailure(Exception):
    """An op's outputs are missing, malformed or non-finite."""


class Tally:
    """Accuracy and invariant counts gathered over one pass."""

    def __init__(self):
        self.mc_gap_se = None
        self.dual_err_x0 = None
        self.primal_err_x0 = None
        self.d2_err_x0 = None
        self.violations: dict[str, int] = {}
        self.gate_notes: list[str] = []

    def add_z(self, estimate, reference, stderr, floor, where: str) -> None:
        """Gap in standard errors.  `floor` is the SE one sample would add
        (coordinate / n): a point no sample reached reports SE 0 although
        its true value may be positive by that much."""
        estimate, reference, stderr, floor = (
            np.broadcast_to(np.asarray(a, dtype=float), np.shape(estimate))
            for a in (estimate, reference, stderr, floor))
        gap = np.abs(estimate - reference)
        se = np.maximum(stderr, floor)
        if np.any(gap[se <= 0] > EXACT_TOL):
            self.gate_notes.append(f"{where}: zero-SE estimate differs from its oracle")
        pos = se > 0
        if pos.any():
            worst = float((gap[pos] / se[pos]).max())
            self.mc_gap_se = worst if self.mc_gap_se is None else max(self.mc_gap_se, worst)

    def add_err(self, attr: str, err: float) -> None:
        old = getattr(self, attr)
        setattr(self, attr, err if old is None else max(old, err))

    def count(self, kind: str, n: int) -> None:
        self.violations[kind] = self.violations.get(kind, 0) + int(n)

    @property
    def d1_err(self):
        errs = [e for e in (self.dual_err_x0, self.primal_err_x0) if e is not None]
        return max(errs) if errs else None

    @property
    def pde_err(self):
        errs = [e for e in (self.d1_err, self.d2_err_x0) if e is not None]
        return max(errs) if errs else None

    @property
    def invariant_violations(self) -> int:
        return sum(self.violations.values())


# -- oracles -----------------------------------------------------------------

def dual_oracle(oracle: tuple, x: float, q: float, eps: float, tau: float) -> float:
    if oracle[0] == "gbm":
        _, b, s = oracle
        if eps == 0.0:
            return oracles.gbm_dual(x, q, b, s, tau)
        return oracles.gbm_dual_smeared(x, q, b, s, tau, eps)
    return oracles.bessel_dual_smeared(x, q, eps, tau)


def primal_oracle(oracle: tuple, x: float, p: float, eps: float, tau: float) -> float:
    if oracle[0] == "gbm":
        _, b, s = oracle
        if eps == 0.0:
            return oracles.gbm_quantile_value(x, p, b, s, tau)
        return oracles.gbm_primal_smeared(x, p, b, s, tau, eps)
    return oracles.bessel_primal_smeared(x, p, eps, tau)


def d2_log_vol(b, s) -> float:
    """Log-vol of Z*X1 for diagonal constant coefficients: |(s1 - th1, -th2)|."""
    th1, th2 = b[0] / s[0], b[1] / s[1]
    return math.hypot(s[0] - th1, th2)


# -- readers -----------------------------------------------------------------

def _read_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise CheckFailure(f"{os.path.basename(path)}: {exc}") from None


def _read_table(path: str, header: str) -> np.ndarray:
    try:
        with open(path) as fh:
            first = fh.readline().strip()
            rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise CheckFailure(f"{os.path.basename(path)}: {exc}") from None
    if first != header:
        raise CheckFailure(f"{os.path.basename(path)}: header {first!r} != {header!r}")
    if rows.size == 0 or not np.all(np.isfinite(rows)):
        raise CheckFailure(f"{os.path.basename(path)}: empty or non-finite")
    return rows


def _scan_surface_csv(path: str, header: str, n_rows: int) -> None:
    """Row count and a non-finite scan of a surface CSV, without parsing it."""
    lines = 0
    tail = b""
    try:
        with open(path, "rb") as fh:
            first = fh.readline()
            if first.decode("ascii", "replace").strip() != header:
                raise CheckFailure(f"{os.path.basename(path)}: bad header {first[:60]!r}")
            while chunk := fh.read(1 << 23):
                lines += chunk.count(b"\n")
                window = tail + chunk
                if b"nan" in window or b"inf" in window:
                    raise CheckFailure(f"{os.path.basename(path)}: non-finite value")
                tail = chunk[-2:]
    except OSError as exc:
        raise CheckFailure(f"{os.path.basename(path)}: {exc}") from None
    if lines != n_rows:
        raise CheckFailure(f"{os.path.basename(path)}: {lines} rows, expected {n_rows}")


def _read_surface(path: str):
    try:
        return read_surface_bin(path)
    except (OSError, ValueError, KeyError) as exc:
        raise CheckFailure(f"{os.path.basename(path)}: {exc}") from None


# -- invariants --------------------------------------------------------------

def dual_violations(values: np.ndarray, q: np.ndarray, tol: float = INV_TOL) -> dict:
    """0 <= w <= q, 0 <= w_q <= 1 and convexity in q, node counts."""
    slope = np.diff(values, axis=-1) / np.diff(q)
    return {
        "dual_range": int(((values < -tol) | (values > q + tol)).sum()),
        "dual_slope": int(((slope < -tol) | (slope > 1.0 + tol)).sum()),
        "dual_convexity": int((np.diff(slope, axis=-1) < -tol).sum()),
    }


def primal_violations(values: np.ndarray, p: np.ndarray, g_terminal: np.ndarray,
                      tol: float = INV_TOL) -> dict:
    """Convexity in p and U(T) = p g(x), node counts."""
    slope = np.diff(values, axis=-1) / np.diff(p)
    target = g_terminal[..., None] * p
    return {
        "primal_convexity": int((np.diff(slope, axis=-1) < -tol).sum()),
        "primal_terminal": int((np.abs(values[-1] - target) > tol).sum()),
    }


def _nondecreasing_breaks(values: np.ndarray, tol: float = INV_TOL) -> int:
    return int((np.diff(values) < -tol).sum())


# -- per-op checks -----------------------------------------------------------

def _check_dual_mc(wl, out: str, tally: Tally) -> None:
    rows = _read_table(os.path.join(out, "dual.csv"), "epsilon,q,value,stderr")
    _read_json(os.path.join(out, "dual.json"))
    x0 = float(wl.run["x0"])
    n = float(wl.run["n_paths"])
    for eps in np.unique(rows[:, 0]):
        sel = rows[rows[:, 0] == eps]
        ref = [dual_oracle(wl.oracle, x0, q, float(eps), HORIZON) for q in sel[:, 1]]
        tally.add_z(sel[:, 2], ref, sel[:, 3], sel[:, 1] / n, f"dual eps={eps:g}")
        tally.count("mc_curve_monotone", _nondecreasing_breaks(sel[:, 2]))


def _check_study_epsilon(wl, out: str, tally: Tally) -> None:
    base = _read_table(os.path.join(out, "study_epsilon_baseline.csv"), "q,value,stderr")
    x0 = float(wl.run["x0"])
    ref = [dual_oracle(wl.oracle, x0, q, 0.0, HORIZON) for q in base[:, 0]]
    tally.add_z(base[:, 1], ref, base[:, 2], base[:, 0] / float(wl.run["n_paths"]),
                "study-epsilon baseline")
    tally.count("mc_curve_monotone", _nondecreasing_breaks(base[:, 1]))
    summary = _read_json(os.path.join(out, "study_epsilon.json"))
    if not os.path.exists(os.path.join(out, "study_epsilon.csv")):
        raise CheckFailure("study_epsilon.csv missing")
    rows = summary.get("rows", [])
    if len(rows) != len(wl.run["epsilons"].split()):
        raise CheckFailure("study_epsilon.json: wrong number of rows")
    for row in rows:
        if not all(math.isfinite(row[k]) for k in ("sup_gap", "bound", "gap_stderr")):
            raise CheckFailure("study_epsilon.json: non-finite row")
    tally.count("study_not_within", sum(not row["within"] for row in rows))


def _check_compare_oracle(wl, out: str, tally: Tally) -> None:
    path = os.path.join(out, "compare_oracle.csv")
    try:
        with open(path) as fh:
            lines = fh.read().strip().split("\n")
    except OSError as exc:
        raise CheckFailure(f"compare_oracle.csv: {exc}") from None
    if lines[0] != "quantity,coordinate,estimate,oracle,abs_gap,stderr" or len(lines) < 2:
        raise CheckFailure("compare_oracle.csv: bad header or no rows")
    _read_json(os.path.join(out, "compare_oracle.json"))
    x0 = float(wl.run["x0"])
    est, ref, se, floor = [], [], [], []
    for line in lines[1:]:
        try:
            kind, coord, e, o, _, s = line.split(",")
            coord, e, o, s = float(coord), float(e), float(o), float(s)
        except ValueError:
            raise CheckFailure(f"compare_oracle.csv: bad row {line!r}") from None
        if not all(map(math.isfinite, (coord, e, o, s))):
            raise CheckFailure("compare_oracle.csv: non-finite row")
        if kind == "quantile_value":
            mine = primal_oracle(wl.oracle, x0, coord, 0.0, HORIZON)
        else:
            mine = dual_oracle(wl.oracle, x0, coord, 0.0, HORIZON)
        if abs(mine - o) > EXACT_TOL:
            tally.gate_notes.append(f"compare-oracle: oracle column {o} != {mine}")
        est.append(e)
        ref.append(mine)
        se.append(s)
        floor.append((coord if kind == "dual_value" else x0) / float(wl.run["n_paths"]))
    tally.add_z(est, ref, se, floor, "compare-oracle")


def _check_price_mc(wl, out: str, tally: Tally) -> None:
    rows = _read_table(os.path.join(out, "price.csv"), "p,value,stderr")
    _read_json(os.path.join(out, "price.json"))
    x0 = float(wl.run["x0"])
    ref = [primal_oracle(wl.oracle, x0, p, 0.0, HORIZON) for p in rows[:, 0]]
    tally.add_z(rows[:, 1], ref, rows[:, 2], x0 / float(wl.run["n_paths"]), "price")
    tally.count("mc_curve_monotone", _nondecreasing_breaks(rows[:, 1]))


def _x0_index(axes, x0) -> tuple:
    return tuple(int(np.argmin(np.abs(ax - x))) for ax, x in zip(axes, x0))


def check_surface(surf, oracle: tuple, x0, tally: Tally) -> None:
    """Invariants over the whole surface and the oracle error along the
    x-row nearest x0 at t0.  `oracle` is ("gbm", b, s), ("bessel3",), or
    ("d2-gbm", v) for a d=2 gbm dual with g(x) = x1."""
    g = surf.grid
    eps = g.epsilon
    tau = float(g.t[-1] - g.t[0])
    idx = _x0_index(g.x_axes, x0)
    x_row = float(g.x_axes[0][idx[0]])
    row = surf.values[(0,) + idx]
    if g.domain == "q":
        for kind, n in dual_violations(surf.values, g.z).items():
            tally.count(kind, n)
        if oracle[0] == "d2-gbm":
            ref = [oracles.gbm_dual_smeared(x_row, q, 0.0, oracle[1], tau, eps) for q in g.z]
            tally.add_err("d2_err_x0", float(np.abs(row - ref).max()))
        else:
            ref = [dual_oracle(oracle, x_row, q, eps, tau) for q in g.z]
            tally.add_err("dual_err_x0", float(np.abs(row - ref).max()))
    else:
        for kind, n in primal_violations(surf.values, g.z, g.x_axes[0]).items():
            tally.count(kind, n)
        ref = [primal_oracle(oracle, x_row, p, eps, tau) for p in g.z]
        tally.add_err("primal_err_x0", float(np.abs(row - ref).max()))


def _check_solve(wl, out: str, tally: Tally) -> None:
    summary = _read_json(os.path.join(out, "solve.json"))
    artifacts = summary.get("artifacts", [])
    want = 4 if wl.run["method"] == "pipeline" else 2
    if len(artifacts) != want:
        raise CheckFailure(f"solve.json lists {len(artifacts)} artifacts, expected {want}")
    x0 = [float(wl.run["x0"])]
    for name in artifacts:
        if not name.endswith(".bin"):
            continue
        surf = _read_surface(os.path.join(out, name))
        check_surface(surf, wl.oracle, x0, tally)
        g = surf.grid
        header = f"t,x1,{g.domain},value"
        _scan_surface_csv(os.path.join(out, name[:-4] + ".csv"), header, surf.values.size)


def _check_verify(wl, out: str, tally: Tally) -> None:
    report = _read_json(os.path.join(out, "verify.json")).get("report")
    if not report:
        raise CheckFailure("verify.json has no report")
    if not report.get("passed"):
        raise CheckFailure(f"verify did not pass: {report.get('n_violations')} violations, "
                           f"max residual {report.get('max_residual')}")


def _check_d2(wl, out: str, tally: Tally) -> None:
    surf = _read_surface(os.path.join(out, D2_SURFACE))
    d2 = wl.d2
    check_surface(surf, ("d2-gbm", d2_log_vol(d2["b"], d2["s"])), [1.0, 1.0], tally)


D2_SURFACE = "d2_dual_eps0p2.bin"

_CHECKS = {
    "dual": _check_dual_mc,
    "study-epsilon": _check_study_epsilon,
    "compare-oracle": _check_compare_oracle,
    "price": _check_price_mc,
    "solve": _check_solve,
    "verify": _check_verify,
    "d2-solve": _check_d2,
}


def check_pass(wl, out: str, ops: list) -> dict:
    """Score one pass.  `ops` holds {"op", "rc", "error"} per op, in order;
    each gets "failed" (bool) and, if so, "reason"."""
    tally = Tally()
    for rec in ops:
        reason = rec.get("error")
        if reason is None and rec["rc"] != 0:
            reason = f"exit code {rec['rc']}"
        if reason is None:
            try:
                _CHECKS[rec["op"]](wl, out, tally)
            except CheckFailure as exc:
                reason = str(exc)
        rec["failed"] = reason is not None
        if reason is not None:
            rec["reason"] = reason
    gates = list(tally.gate_notes)
    if tally.mc_gap_se is not None and tally.mc_gap_se > MC_Z_GATE:
        gates.append(f"mc_gap_se {tally.mc_gap_se:.3f} > {MC_Z_GATE}")
    if tally.d1_err is not None and tally.d1_err > wl.pde_err_tol:
        gates.append(f"pde_err d=1 {tally.d1_err:.3g} > {wl.pde_err_tol:g}")
    if tally.d2_err_x0 is not None and tally.d2_err_x0 > wl.d2["err_tol"]:
        gates.append(f"pde_err d=2 {tally.d2_err_x0:.3g} > {wl.d2['err_tol']:g}")
    return {
        "ops": ops,
        "failed": sum(r["failed"] for r in ops),
        "mc_gap_se": tally.mc_gap_se,
        "dual_err_x0": tally.dual_err_x0,
        "primal_err_x0": tally.primal_err_x0,
        "d2_err_x0": tally.d2_err_x0,
        "pde_err": tally.pde_err,
        "violations": dict(tally.violations),
        "invariant_violations": tally.invariant_violations,
        "gate_failures": gates,
        "mc_z_gate": MC_Z_GATE,
        "inv_tol": INV_TOL,
    }
