"""Per-layer tracing of rmplab from outside the package.

A Tracer replaces public functions at the name each calling module binds
(``runner`` imports ``sample_block`` by name, ``engine`` calls
``noise_mod.sample_block``), records one span per call and puts every
original back when tracing ends, so untraced runs measure unwrapped code.
Spans stay in memory until the run ends and are then written out.
"""
from __future__ import annotations

import csv
import importlib
import itertools
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

import numpy as np


class Span(NamedTuple):
    id: int
    parent: "int | None"
    name: str
    op: int
    start: float
    end: float
    counts: "dict[str, int] | None"


Counter = Callable[[tuple, dict, object], "dict[str, int]"]


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> object:
    return args[index] if len(args) > index else kwargs[name]


def _normals(args: tuple, kwargs: dict, result: object) -> dict[str, int]:
    return {"rng.normals": int(np.asarray(result).size)}


def _paths(args: tuple, kwargs: dict, result: object) -> dict[str, int]:
    return {"noise.paths": len(_arg(args, kwargs, 3, "path_indices"))}


def _linear_block(args: tuple, kwargs: dict, result: dict) -> dict[str, int]:
    grid = _arg(args, kwargs, 1, "grid")
    rows = len(_arg(args, kwargs, 3, "indices"))
    return {
        "engine.path_steps": rows * grid.n_steps,
        "engine.flagged_paths": int(result["flagged"].sum()),
    }


def _refinement(args: tuple, kwargs: dict, result) -> dict[str, int]:
    grid = _arg(args, kwargs, 1, "grid")
    n_paths = _arg(args, kwargs, 3, "n_paths")
    return {
        "engine.refine_levels": len(result.refinement),
        "engine.rk4_path_steps": sum(n_paths * grid.n_steps * s for s, _ in result.refinement),
    }


def _bytes(args: tuple, kwargs: dict, result: object) -> dict[str, int]:
    path = Path(_arg(args, kwargs, 0, "path"))
    if path.name == "manifest.json":
        # The manifest records wall-clock time, so its length varies by a
        # digit between runs; only checksummed artifacts are counted.
        return {}
    written = path.stat().st_size
    stub = kwargs.get("stub_path")
    if stub is not None:
        written += Path(stub).stat().st_size
    return {"storage.bytes": written}


# (module, attribute, span name, counter).  Each entry is a binding some
# caller looks up at call time; a function bound under several names is
# wrapped at each of them.
TARGETS: tuple[tuple[str, str, str, "Counter | None"], ...] = (
    ("runner", "do_simulate", "runner.simulate", None),
    ("runner", "do_moments", "runner.moments", None),
    ("runner", "do_beta", "runner.beta", None),
    ("runner", "do_verify", "runner.verify", None),
    ("runner", "do_converge", "runner.converge", None),
    ("runner", "do_report", "runner.report", None),
    ("engine", "run_blocks", "blocks.run_blocks", None),
    ("metrics", "run_blocks", "blocks.run_blocks", None),
    ("rng", "path_stream", "rng.path_stream", None),
    ("engine", "path_stream", "rng.path_stream", None),
    ("runner", "path_stream", "rng.path_stream", None),
    ("noise", "block_normals", "rng.block_normals", _normals),
    ("noise", "sample_block", "noise.sample_block", _paths),
    ("runner", "sample_block", "noise.sample_block", _paths),
    ("engine", "linear_block_arrays", "engine.linear_block", _linear_block),
    ("metrics", "linear_block_arrays", "engine.linear_block", _linear_block),
    ("engine", "integrate_y_values", "engine.integrate_y", None),
    ("runner", "solve_nonlinear", "engine.solve_nonlinear", _refinement),
    ("runner", "linear_moment_curves", "metrics.linear_moment_curves", None),
    ("tail", "linear_moment_curves", "metrics.linear_moment_curves", None),
    ("runner", "ensemble_moment_curves", "metrics.ensemble_moment_curves", None),
    ("metrics", "fit_rate", "metrics.fit_rate", None),
    ("weak", "fit_rate", "metrics.fit_rate", None),
    ("runner", "jensen_check", "metrics.inequality_check", None),
    ("runner", "quasi_triangle_check", "metrics.inequality_check", None),
    ("runner", "green_kubo_d", "tail.green_kubo", None),
    ("runner", "dt_fit_d", "tail.dt_fit", None),
    ("runner", "hill_estimator", "tail.hill", None),
    ("tail", "b_equals_h_test", "tail.ks", None),
    ("runner", "convergence_diagnostic", "weak.convergence_diagnostic", None),
    ("runner", "write_ensemble_csv", "storage.csv", _bytes),
    ("runner", "write_moment_csv", "storage.csv", _bytes),
    ("runner", "write_convergence_csv", "storage.csv", _bytes),
    ("runner", "write_ensemble_binary", "storage.binary", _bytes),
    ("runner", "write_json", "storage.json", _bytes),
    ("runner", "write_plotdata", "storage.plotdata", _bytes),
    ("runner", "build_manifest", "storage.manifest", None),
)

# Per-layer metrics computed from the spans of one op, with their units.
# config.* come from the set-up probes and trace.* from the run itself.
LAYER_UNITS: dict[str, str] = {
    "config.import_s": "s",
    "config.parse_s": "s",
    "runner.simulate_s": "s",
    "runner.moments_s": "s",
    "runner.beta_s": "s",
    "runner.verify_s": "s",
    "runner.converge_s": "s",
    "runner.report_s": "s",
    "blocks.blocks": "count",
    "blocks.overhead_s": "s",
    "rng.block_normals_s": "s",
    "rng.streams": "count",
    "rng.normals": "count",
    "rng.normals_per_s": "1/s",
    "noise.sample_block_self_s": "s",
    "noise.paths": "count",
    "engine.linear_block_self_s": "s",
    "engine.integrate_y_s": "s",
    "engine.path_steps": "count",
    "engine.flagged_paths": "count",
    "engine.nonlinear_self_s": "s",
    "engine.refine_levels": "count",
    "engine.rk4_path_steps": "count",
    "metrics.moment_curves_self_s": "s",
    "metrics.fit_rate_s": "s",
    "metrics.inequality_checks_s": "s",
    "tail.green_kubo_s": "s",
    "tail.dt_fit_s": "s",
    "tail.hill_s": "s",
    "tail.ks_s": "s",
    "weak.convergence_diagnostic_s": "s",
    "storage.csv_s": "s",
    "storage.binary_s": "s",
    "storage.json_s": "s",
    "storage.plotdata_s": "s",
    "storage.manifest_s": "s",
    "storage.bytes": "count",
    "trace.overhead_s": "s",
}

# Counts that must repeat exactly between ops and runs of one seed.
EXACT_COUNTS = tuple(name for name, unit in LAYER_UNITS.items() if unit == "count")


class Tracer:
    """Wraps rmplab's layer boundaries and keeps one span per call."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = 0
        # next() on itertools.count is a single C call, atomic under the GIL,
        # so block threads can draw span ids without a lock.
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(
        self,
        name: str,
        fn: Callable,
        args: tuple = (),
        kwargs: "dict | None" = None,
        *,
        counter: "Counter | None" = None,
        parent: "int | None" = None,
    ) -> object:
        """Run fn(*args, **kwargs) inside a span named name."""
        kwargs = kwargs or {}
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        sid = next(self._ids)
        if name == "blocks.run_blocks":
            args, kwargs = self._trace_blocks(sid, args, kwargs)
        stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        counts = counter(args, kwargs, result) if counter is not None else None
        self.spans.append(Span(sid, parent, name, self.op, start, end, counts))
        return result

    def _trace_blocks(self, sid: int, args: tuple, kwargs: dict) -> tuple[tuple, dict]:
        # Blocks may run on pool threads whose span stack is empty, so each
        # block span names its run_blocks span as parent explicitly.
        block_fn = _arg(args, kwargs, 1, "block_fn")

        def traced_block(idx):
            return self.call("blocks.block", block_fn, (idx,), parent=sid)

        if len(args) > 1:
            return (args[0], traced_block) + tuple(args[2:]), kwargs
        return args, dict(kwargs, block_fn=traced_block)

    def _wrap(self, fn: Callable, name: str, counter: "Counter | None") -> Callable:
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, counter=counter)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every target binding inside the block; restore the originals after."""
        saved = []
        try:
            for module_name, attr, name, counter in TARGETS:
                module = importlib.import_module(f"rmplab.{module_name}")
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, counter))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path: Path) -> None:
        """Write every span as one CSV row."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "parent", "name", "op", "start", "end", "counts"])
            for s in self.spans:
                counts = ";".join(f"{k}={v}" for k, v in sorted((s.counts or {}).items()))
                out.writerow([s.id, "" if s.parent is None else s.parent, s.name, s.op,
                              repr(s.start), repr(s.end), counts])


def wrapped_bindings() -> list[str]:
    """Target bindings that are currently wrapped; empty once uninstalled."""
    out = []
    for module_name, attr, _, _ in TARGETS:
        fn = getattr(importlib.import_module(f"rmplab.{module_name}"), attr)
        if hasattr(fn, "__wrapped__"):
            out.append(f"{module_name}.{attr}")
    return out


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the union of its children's intervals.

    Children on other threads may overlap each other; the union counts
    each instant once, so a parent waiting on two parallel blocks has no
    self time while both run.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - _covered(children.get(s.id, []), s.start, s.end)
        for s in spans
    }


def op_layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer times and counts of one op from its spans."""
    selfs = self_times(spans)
    by_id = {s.id: s for s in spans}
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[str, int] = defaultdict(int)
    for s in spans:
        total[s.name] += s.end - s.start
        calls[s.name] += 1
        name = s.name
        if name == "blocks.block":
            # A block's own work belongs to the layer that called run_blocks.
            caller = by_id.get(by_id[s.parent].parent) if s.parent in by_id else None
            if caller is not None:
                name = caller.name
        own[name] += selfs[s.id]
        for key, value in (s.counts or {}).items():
            counts[key] += value

    normals_s = total["rng.block_normals"]
    return {
        "runner.simulate_s": total["runner.simulate"],
        "runner.moments_s": total["runner.moments"],
        "runner.beta_s": total["runner.beta"],
        "runner.verify_s": total["runner.verify"],
        "runner.converge_s": total["runner.converge"],
        "runner.report_s": total["runner.report"],
        "blocks.blocks": calls["blocks.block"],
        "blocks.overhead_s": own["blocks.run_blocks"],
        "rng.block_normals_s": normals_s,
        "rng.streams": calls["rng.path_stream"],
        "rng.normals": counts["rng.normals"],
        "rng.normals_per_s": counts["rng.normals"] / normals_s if normals_s > 0 else 0.0,
        "noise.sample_block_self_s": own["noise.sample_block"],
        "noise.paths": counts["noise.paths"],
        "engine.linear_block_self_s": own["engine.linear_block"],
        "engine.integrate_y_s": total["engine.integrate_y"],
        "engine.path_steps": counts["engine.path_steps"],
        "engine.flagged_paths": counts["engine.flagged_paths"],
        "engine.nonlinear_self_s": own["engine.solve_nonlinear"],
        "engine.refine_levels": counts["engine.refine_levels"],
        "engine.rk4_path_steps": counts["engine.rk4_path_steps"],
        "metrics.moment_curves_self_s": own["metrics.linear_moment_curves"]
        + own["metrics.ensemble_moment_curves"],
        "metrics.fit_rate_s": total["metrics.fit_rate"],
        "metrics.inequality_checks_s": total["metrics.inequality_check"],
        "tail.green_kubo_s": total["tail.green_kubo"],
        "tail.dt_fit_s": total["tail.dt_fit"],
        "tail.hill_s": total["tail.hill"],
        "tail.ks_s": total["tail.ks"],
        "weak.convergence_diagnostic_s": own["weak.convergence_diagnostic"],
        "storage.csv_s": total["storage.csv"],
        "storage.binary_s": total["storage.binary"],
        "storage.json_s": total["storage.json"],
        "storage.plotdata_s": total["storage.plotdata"],
        "storage.manifest_s": total["storage.manifest"],
        "storage.bytes": counts["storage.bytes"],
    }


def run_layer_metrics(spans: list[Span]) -> tuple[dict[str, float], list[str]]:
    """Per-op layer metrics over all traced ops of a run.

    Times are the median over ops; counts are those of the first op, and
    every count that differs between ops of the run is returned by name.
    """
    by_op: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        by_op[s.op].append(s)
    per_op = [op_layer_metrics(by_op[op]) for op in sorted(by_op)]
    if not per_op:
        raise ValueError("no traced op")
    merged: dict[str, float] = {}
    unsteady = []
    for name in per_op[0]:
        values = [m[name] for m in per_op]
        if name in EXACT_COUNTS:
            merged[name] = values[0]
            if any(v != values[0] for v in values):
                unsteady.append(name)
        else:
            merged[name] = statistics.median(values)
    return merged, unsteady
