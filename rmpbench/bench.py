"""Workloads, ops, output checks and environment of the rmplab benchmark.

One op is one ``runner.run(cfg, groups=...)`` of a workload into a fresh
output directory, the call ``rmplab <stage>`` makes, followed by
``do_report`` where the workload asks for it.  Outputs are checked after
the timed region; an op fails if it raises, exits nonzero or fails a
check.
"""
from __future__ import annotations

import copy
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import rmplab
from rmplab import runner
from rmplab.config import ExperimentConfig, config_from_dict
from rmplab.storage import read_ensemble_binary, read_ensemble_csv

from . import ROOT, SRC
from .tracing import Tracer

WORKLOAD_DIR = Path(__file__).resolve().parent / "workloads"
PROBE = Path(__file__).resolve().parent / "probe.py"

# Output-check rules.  They are fixed for every seed.
RATE_REL_TOL = 0.10  # C2's bound on fitted propagator slopes against gamma_p
RATE_CHECKED_P = ("0.25", "0.5")  # p = 1 is not resolvable on [5, 12] at 8,192 paths
SAME_SLOPE_REL_TOL = 1e-9  # zero forcing gives B = 0, so X = x0 A and the slopes agree
GROWTH_SE_FACTOR = 2.0  # C9: the p = 1/2 slope is at most 2 standard errors

# Speed gauge.  Times are rescaled to a machine on which calibration_seconds()
# takes this long; see calibration_seconds.  After each op the gauge runs
# until it has taken this share of the op's time, and at least once.
CALIBRATION_REFERENCE_S = 0.1
CALIBRATION_SHARE = 0.1


def check_source() -> None:
    """Refuse to measure an rmplab that is not this checkout's source."""
    if not Path(rmplab.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"rmplab imported from {rmplab.__file__}, not from {SRC}")


def load_workload(name: str) -> dict:
    with open(WORKLOAD_DIR / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def workload_config(workload: dict, seed: int, n_paths: "int | None" = None) -> ExperimentConfig:
    """Parsed config of a workload with the benchmark seed as master seed.

    n_paths shrinks the ensemble for smoke tests; measured runs keep the
    workload's own size.
    """
    raw = copy.deepcopy(workload["config"])
    raw["ensemble"]["master_seed"] = seed
    if n_paths is not None:
        raw["ensemble"]["n_paths"] = n_paths
    return config_from_dict(raw)


def _fits(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["fits"]


def _check_pipeline(cfg: ExperimentConfig, out: Path, report: dict) -> list[str]:
    failures = []
    binary = read_ensemble_binary(out / "ensemble_X.bin")
    text = read_ensemble_csv(out / "ensemble_X.csv", binary.label, binary.master_seed)
    same = (
        binary.grid.n_steps == text.grid.n_steps
        and np.array_equal(binary.values, text.values)
        and np.array_equal(binary.flagged, text.flagged)
    )
    if not same:
        failures.append("binary and CSV ensembles differ")
    if report["overall"] != "PASS":
        failures.append(f"report overall is {report['overall']}")
    return failures


def _check_propagator(cfg: ExperimentConfig, out: Path, report: None) -> list[str]:
    failures = []
    fits_a = _fits(out / "moments_A.json")
    fits_x = _fits(out / "moments_X.json")
    d = sum(s * s * tau for s, tau in cfg.model.multiplicative.components)
    for key in RATE_CHECKED_P:
        p = float(key)
        rate = min(1.0, p) * (d * p - cfg.model.a)
        slope = fits_a[key]["slope"]
        if not abs(slope - rate) <= RATE_REL_TOL * abs(rate):
            failures.append(f"source A p={key}: slope {slope!r} is not within "
                            f"{RATE_REL_TOL:.0%} of gamma_p {rate!r}")
    slope_a, slope_x = fits_a["0.5"]["slope"], fits_x["0.5"]["slope"]
    if not abs(slope_x - slope_a) <= SAME_SLOPE_REL_TOL * abs(slope_a):
        failures.append(f"source X p=0.5 slope {slope_x!r} differs from source A {slope_a!r}")
    return failures


def _check_nonlinear(cfg: ExperimentConfig, out: Path, report: None) -> list[str]:
    # Refinement that does not settle raises inside solve_nonlinear, so
    # an op that returned has settled.
    fit = _fits(out / "moments_X.json")["0.5"]
    if not fit["slope"] <= GROWTH_SE_FACTOR * fit["slope_std_err"]:
        return [f"p=0.5 slope {fit['slope']!r} exceeds {GROWTH_SE_FACTOR} standard "
                f"errors ({fit['slope_std_err']!r})"]
    return []


CHECKS = {
    "pipeline": _check_pipeline,
    "propagator": _check_propagator,
    "nonlinear": _check_nonlinear,
}


def check_outputs(
    name: str, cfg: ExperimentConfig, out: Path, manifest: dict, code: int, report: "dict | None"
) -> list[str]:
    """Every failed output check of one op, as messages; empty if it passed."""
    failures = []
    if code != 0:
        failures.append(f"exit code {code}")
    bad = {k: v for k, v in manifest["verdicts"].items() if v != "PASS"}
    if bad:
        failures.append(f"verdicts not PASS: {bad}")
    return failures + CHECKS[name](cfg, out, report)


def _gauge_kernel(lane: int) -> float:
    total = 0.0
    for i in range(1500):
        total += np.random.Generator(np.random.Philox(key=[lane, i])).standard_normal(150).sum()
    bulk = np.random.Generator(np.random.Philox(key=[lane, 2**40]))
    for _ in range(30):  # small chunks, so the gauge never sets the process's peak RSS
        x = bulk.standard_normal(100_000)
        total += float(np.cumsum(np.exp(0.01 * x) * x)[-1])
    return total


def calibration_seconds(threads: int = 1) -> float:
    """Wall time of a fixed kernel that runs no rmplab code, on `threads` threads.

    Each thread does what rmplab ops spend their time on: building many small
    Philox generators from Python, bulk normal draws, and elementwise passes.
    The host's speed, and how well two threads overlap on it, change by tens
    of percent over seconds to minutes.  The kernel slows and speeds up with
    them, so its times right after an op tell how fast the machine ran around
    that op.  Ops are gauged with as many threads as the workload's workers.
    """
    t0 = time.perf_counter()
    if threads == 1:
        totals = [_gauge_kernel(0)]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            totals = list(pool.map(_gauge_kernel, range(threads)))
    seconds = time.perf_counter() - t0
    if not np.isfinite(totals).all():
        raise RuntimeError("calibration kernel gave a non-finite sum")
    return seconds


def gauge_for(seconds: float, threads: int) -> list[float]:
    """Run the speed gauge once, and again until its times add up to `seconds`."""
    times = [calibration_seconds(threads)]
    while sum(times) < seconds:
        times.append(calibration_seconds(threads))
    return times


def rescaled(seconds: float, calibrations: "list[float]") -> float:
    """`seconds` on a machine where the gauge takes CALIBRATION_REFERENCE_S,
    given the gauge times taken right after them."""
    return seconds * CALIBRATION_REFERENCE_S / statistics.median(calibrations)


@dataclass
class OpRecord:
    seconds: float
    failures: list[str] = field(default_factory=list)
    calibrations_s: list[float] = field(default_factory=list)  # gauge times right after the op


class Session:
    """Runs the ops of one workload and seed, each into a fresh directory."""

    def __init__(self, workload: dict, seed: int, work_dir: Path, n_paths: "int | None" = None):
        self.workload = workload
        self.cfg = workload_config(workload, seed, n_paths)
        self.work_dir = work_dir
        self.ops: list[OpRecord] = []
        self._checksums: "dict[str, str] | None" = None

    def _op_body(self, out: Path) -> tuple[dict, int, "dict | None"]:
        manifest, code = runner.run(self.cfg, groups=tuple(self.workload["groups"]), out_dir=out)
        report = runner.do_report(out) if self.workload["report"] else None
        return manifest, code, report

    def op(self, tracer: "Tracer | None" = None) -> OpRecord:
        """Time one op, then check its outputs outside the timed region."""
        index = len(self.ops)
        out = self.work_dir / f"op{index}"
        shutil.rmtree(out, ignore_errors=True)
        t0 = time.perf_counter()
        try:
            if tracer is None:
                manifest, code, report = self._op_body(out)
            else:
                tracer.op = index
                manifest, code, report = tracer.call("op", self._op_body, (out,))
        except Exception as exc:  # an op that raises is a failed op, not a crash
            record = OpRecord(time.perf_counter() - t0, [f"raised {exc!r}"])
            traceback.print_exc(file=sys.stderr)
        else:
            record = OpRecord(time.perf_counter() - t0)
            record.failures = self._check(out, manifest, code, report)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        record.calibrations_s = gauge_for(CALIBRATION_SHARE * record.seconds, self.cfg.workers)
        self.ops.append(record)
        return record

    def _check(self, out: Path, manifest: dict, code: int, report: "dict | None") -> list[str]:
        try:
            failures = check_outputs(self.workload["name"], self.cfg, out, manifest, code, report)
        except Exception as exc:  # a check that cannot read its input fails the op
            traceback.print_exc(file=sys.stderr)
            failures = [f"output check raised {exc!r}"]
        checksums = {a["path"]: a["sha256"] for a in manifest["artifacts"]}
        if self._checksums is None:
            self._checksums = checksums
        elif checksums != self._checksums:
            failures.append("manifest checksums differ from the first op of this seed")
        return failures

    def run_for(self, seconds: float, min_ops: int) -> list[OpRecord]:
        """Run at least `min_ops` ops, and more while they fit in `seconds`."""
        start = time.perf_counter()
        done: list[OpRecord] = []
        while len(done) < min_ops or fits_another(start, len(done), seconds):
            done.append(self.op())
        return done


def fits_another(start: float, done: int, seconds: float) -> bool:
    """Whether one more round, as long as the average so far, ends within `seconds`."""
    elapsed = time.perf_counter() - start
    return elapsed * (done + 1) / done <= seconds


def failed_ratio(ops: list[OpRecord]) -> float:
    return sum(1 for op in ops if op.failures) / len(ops)


def median_seconds(ops: list[OpRecord]) -> float:
    return statistics.median(op.seconds for op in ops)


def rescaled_op_seconds(ops: list[OpRecord]) -> float:
    """Median over ops of each op's time, rescaled by the gauge run after it."""
    return statistics.median(rescaled(op.seconds, op.calibrations_s) for op in ops)


def rescaled_setup_seconds(records: list[dict]) -> float:
    """Median over set-up probes of each probe's time, rescaled by the gauge run after it."""
    return statistics.median(rescaled(r["setup_s"], r["calibrations_s"]) for r in records)


def measure_setup(workload: str, seed: int, count: int) -> list[dict]:
    """Start `count` fresh interpreters that import rmplab and parse the config.

    Each record holds setup_s (from just before the process started to
    the parsed config), import_s, parse_s, and calibrations_s, the times of
    the single-threaded speed gauge run right after the probe.
    """
    records = []
    for _ in range(count):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(PROBE), workload, str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        record = json.loads(proc.stdout.splitlines()[-1])
        record["setup_s"] = record.pop("end") - start
        if record["setup_s"] <= 0.0:
            raise RuntimeError("set-up probe clock is not shared with this process")
        record["calibrations_s"] = gauge_for(CALIBRATION_SHARE * record["setup_s"], 1)
        records.append(record)
    return records


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> dict[str, str]:
    """Unified and data cache sizes of CPU 0 by level, as the kernel reports them."""
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            kind = (index / "type").read_text().strip()
            if kind in ("Unified", "Data"):
                out[f"L{(index / 'level').read_text().strip()}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return out


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    caches = _caches()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "l2_cache": caches.get("L2", "unknown"),
        "l3_cache": caches.get("L3", "unknown"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "seed": seed,
    }
