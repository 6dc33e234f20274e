"""Span wrappers for the traced pass, installed from outside the program.

Each target is a module attribute that qhedge looks up at call time, so
replacing it routes every call through a wrapper that records a span:
name, start, end, parent span and thread.  Blocks that `sample_terminal`
runs in pool threads have no open span of their own thread, so their
parent is the innermost span open on the main thread.  Spans stay in
memory; the pass writes them out when it ends.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import math
import os
import threading
import time


def _engine_work(args, kwargs, result):
    cfg, bn = args[2], args[4]
    steps = cfg.n_steps if cfg.scheme == "log-euler" else 1
    return {"paths": bn, "path_steps": bn * steps}


def _solve_work(args, kwargs, result):
    grid = args[2]
    meta = result.meta
    rx, rq, rt = meta["refine"]
    px, pq = meta["pad"]
    nodes = 1
    for ax in grid.x_axes:
        nodes *= (ax.size - 1) * rx + 1 + 2 * px * rx
    nodes *= (grid.z.size - 1) * rq + 1 + pq * rq
    steps = (grid.t.size - 1) * rt
    # Rannacher start-up steps run twice the substeps of the others
    rann = min(meta["rannacher_steps"], steps)
    substeps = meta["substeps"] * (steps + rann)
    return {"dim": grid.dim, "substeps": meta["substeps"], "node_steps": nodes * substeps}


def _transform_work(args, kwargs, result):
    meta = result.meta
    g = result.grid
    slices = (g.t.size - 1)
    for ax in g.x_axes:
        slices *= ax.size
    return {"slices": slices, "enveloped": meta["enveloped_slices"],
            "saturated": meta["saturated_slices"]}


def _verify_work(args, kwargs, result):
    # max_residual is -inf when no node was checkable
    residual = result.max_residual if math.isfinite(result.max_residual) else 0.0
    return {"checked": result.n_checked, "violations": result.n_violations,
            "max_residual": residual}


def _csv_work(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


# (module, attribute, span name, work extractor run on the call's result)
TARGETS = (
    ("qhedge.engine", "terminal_block", "engine.terminal_block", _engine_work),
    ("qhedge.mc", "sample_terminal", "mc.sample_terminal", None),
    ("qhedge.mc", "dual_value", "mc.dual_value", None),
    ("qhedge.mc", "dual_value_regularized", "mc.dual_value_regularized", None),
    ("qhedge.mc", "dual_curve", "mc.dual_curve", None),
    ("qhedge.mc", "quantile_value", "mc.quantile_value", None),
    ("qhedge.mc", "quantile_curve", "mc.quantile_curve", None),
    ("qhedge.pde", "solve_dual_pde", "pde.solve_dual_pde", _solve_work),
    ("qhedge.pde", "dual_to_primal", "pde.dual_to_primal", _transform_work),
    ("qhedge.pde", "verify_supersolution", "pde.verify_supersolution", _verify_work),
    ("qhedge.pde", "hjb_residual", "pde.hjb_residual", None),
    ("qhedge._kernels", "thomas_batch", "kernels.thomas_batch", None),
    ("qhedge.duality", "convex_envelope", "duality.convex_envelope", None),
    ("qhedge.cli", "write_surface_csv", "surfaces.write_surface_csv", _csv_work),
    ("qhedge.cli", "write_surface_bin", "surfaces.write_surface_bin", None),
    ("qhedge.cli", "read_surface_bin", "surfaces.read_surface_bin", None),
    # the d=2 op calls the library directly, through qhedge.surfaces
    ("qhedge.surfaces", "write_surface_bin", "surfaces.write_surface_bin", None),
)


class Tracer:
    """Records spans around the TARGETS while installed."""

    def __init__(self):
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_ident = threading.main_thread().ident
        self._main_stack: list[int] = []
        self._saved: list[tuple] = []

    def _stack(self) -> list:
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> dict:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        with self._lock:
            span = {"id": len(self.spans), "name": name, "parent": parent,
                    "thread": threading.get_ident(), "start": time.perf_counter(),
                    "end": None}
            self.spans.append(span)
        stack.append(span["id"])
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span the pass itself opens, around one op."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, name: str, fn, work=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if work is not None:
                span["work"] = work(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name, work in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, work))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def patched_attributes() -> dict:
    """Current object behind every target, to check that restore() put the
    originals back."""
    out = {}
    for module_name, attr, _, _ in TARGETS:
        out[(module_name, attr)] = getattr(importlib.import_module(module_name), attr)
    return out
