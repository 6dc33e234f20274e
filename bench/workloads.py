"""Workload definitions: INI configs, the ops of one pass, and the oracle
parameters the checker needs.

Each workload is sized so that one optimisable layer does most of the work
in it and little or none in another (see bench/README.md for the shares).
`smoke=True` shrinks every size so the self-tests can run a whole pass in
well under a second; the ops and checks stay the same.
"""
from __future__ import annotations

from dataclasses import dataclass

# One worker thread.  On a shared 2-vCPU machine a second thread made the
# stepped MC pass slower and its time less steady; results do not depend
# on the thread count.
THREADS = 1
HORIZON = 1.0
GBM_B, GBM_S = 0.05, 0.3
EPSILON = 0.2
MC_EPSILONS = (0.5, 0.2, 0.1)
N_PROBE = 41
P_POINTS = 101

# d=2 gbm solved through the library: Z*X1 is lognormal with log-vol
# sqrt((s1 - theta1)^2 + theta2^2), theta = s^-1 b.
D2_B = (0.05, 0.03)
D2_S = (0.3, 0.25)
D2_WEIGHTS = (1.0, 0.0)


@dataclass(frozen=True)
class Workload:
    name: str
    model: dict
    run: dict
    ops: tuple
    grid: dict | None = None
    d2: dict | None = None
    # the closed form behind every checked value: ("gbm", b, s) or ("bessel3",)
    oracle: tuple = ("gbm", GBM_B, GBM_S)
    # largest |PDE - oracle| along the x0 row of a d=1 surface that still
    # counts as correct; the d=2 surface has its own, d2["err_tol"]
    pde_err_tol: float = 0.0

    def ini(self, mc_seed: int) -> str:
        sections = [("model", self.model)]
        if self.grid is not None:
            sections.append(("grid", self.grid))
        sections.append(("run", dict(self.run, seed=mc_seed, threads=THREADS)))
        lines = []
        for title, entries in sections:
            lines.append(f"[{title}]")
            lines += [f"{k} = {v}" for k, v in entries.items()]
            lines.append("")
        return "\n".join(lines)


def _eps_line(values) -> str:
    return " ".join("%g" % v for v in values)


def build(name: str, smoke: bool = False) -> Workload:
    """The workload called `name`, at full or smoke size."""
    if name == "mc-exact":
        return Workload(
            name=name,
            model={"kind": "gbm", "b": GBM_B, "s": GBM_S},
            run={"method": "mc", "x0": 1.0, "n_paths": 20_000 if smoke else 1_000_000,
                 "scheme": "exact-gbm", "epsilons": _eps_line(MC_EPSILONS),
                 "q_window": "0.2 2.0", "n_probe": 9 if smoke else N_PROBE},
            ops=(("dual", "--method", "mc"), ("study-epsilon",), ("compare-oracle",)),
        )
    if name == "mc-euler":
        return Workload(
            name=name,
            model={"kind": "custom", "dim": 1, "b_exprs": GBM_B, "s_exprs": GBM_S},
            run={"method": "mc", "x0": 1.0, "n_paths": 8192 if smoke else 200_000,
                 "n_steps": 8 if smoke else 64, "scheme": "log-euler",
                 "p_points": 21 if smoke else P_POINTS},
            ops=(("price",),),
        )
    if name == "pde-pipeline":
        n = 16 if smoke else 128
        return Workload(
            name=name,
            model={"kind": "gbm", "b": GBM_B, "s": GBM_S},
            grid={"t0": 0.0, "T": HORIZON, "n_t": 8 if smoke else 64, "x_min": 0.5, "x_max": 2.0,
                  "n_x": n, "n_z": n, "domain": "q", "z_max": 8.0},
            run={"method": "pipeline", "x0": 1.0, "epsilons": EPSILON,
                 "p_points": 21 if smoke else P_POINTS},
            ops=(("solve", "--method", "pipeline"), ("verify", "primal_eps0p2.bin")),
            pde_err_tol=0.05 if smoke else 5e-3,
        )
    if name == "pde-adi":
        n = 16 if smoke else 64
        n2 = 8 if smoke else 48
        return Workload(
            name=name,
            model={"kind": "bessel3"},
            grid={"t0": 0.0, "T": HORIZON, "n_t": 8 if smoke else 32, "x_min": 0.25, "x_max": 2.0,
                  "n_x": n, "n_z": n, "domain": "q", "z_max": 8.0},
            run={"method": "pde", "x0": 1.0, "epsilons": EPSILON, "refine": 2},
            ops=(("solve", "--method", "pde"), ("d2-solve",)),
            d2={"b": D2_B, "s": D2_S, "weights": D2_WEIGHTS, "x_min": 0.5, "x_max": 2.0,
                "n_x": n2, "n_z": 16 if smoke else 64, "z_max": 6.0,
                "n_t": 8 if smoke else 32, "epsilon": EPSILON,
                # about ten times the error measured: 4.6e-4 (7.4e-3 smoke)
                "err_tol": 0.05 if smoke else 5e-3},
            oracle=("bessel3",),
            # the d=1 bessel3 solve is ~0.037 off at x0 on this grid, a
            # known defect of the explicit cross term
            pde_err_tol=0.5 if smoke else 0.1,
        )
    raise KeyError(f"unknown workload {name!r}")


NAMES = ("mc-exact", "mc-euler", "pde-pipeline", "pde-adi")
