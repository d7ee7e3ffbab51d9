"""Command line of the rmplab benchmark.

    python3 rmpbench/run.py --workload pipeline --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it prints the end-to-end metrics (setup_s, op_s,
peak_rss_mb) and failed_ratio, with the two times rescaled by the speed
gauge in ``bench.calibration_seconds``; with ``--trace 1`` it alternates traced
and untraced ops and prints the per-layer metrics and the tracing
overhead.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  Scratch output, a result
file with the environment, and the span file go under ``.bench_out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

SETUP_PROBES = 3  # fresh interpreters per run; setup_s is their median
MIN_OPS = 2  # the checksum check compares ops of one seed


def _parse(argv: "list[str] | None") -> argparse.Namespace:
    from rmpbench import WORKLOADS

    parser = argparse.ArgumentParser(description="Benchmark one rmplab workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must lie in [0, 2**63)")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _traced_and_plain(session, tracer, seconds: float, problems: list[str]) -> tuple[list, list]:
    """Alternate traced and untraced ops after one warm-up op.

    The first op of a process runs slower than the rest, so it is checked
    but kept out of both medians; alternating keeps drift out of the
    overhead.
    """
    from rmpbench import bench, tracing

    start = time.perf_counter()
    session.op()
    traced, plain = [], []
    while len(traced) < MIN_OPS or bench.fits_another(start, len(traced), seconds):
        with tracer.installed():
            traced.append(session.op(tracer))
        leftover = tracing.wrapped_bindings()
        if leftover:
            problems.append(f"wrappers left installed: {leftover}")
        plain.append(session.op())
    return traced, plain


def main(argv: "list[str] | None" = None) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    from rmpbench import ROOT, SRC

    args = _parse(argv)
    if not (SRC / "rmplab" / "__init__.py").is_file():
        print(f"rmpbench: no rmplab source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from rmpbench import bench, tracing

    bench.check_source()
    out_root = ROOT / ".bench_out"
    env = bench.environment(args.seed)
    workload = bench.load_workload(args.workload)
    setups = bench.measure_setup(args.workload, args.seed, SETUP_PROBES)
    session = bench.Session(workload, args.seed, out_root / "ops" / f"{args.workload}-{os.getpid()}")

    problems: list[str] = []
    try:
        if args.trace:
            tracer = tracing.Tracer()
            traced, plain = _traced_and_plain(session, tracer, args.seconds, problems)
            layer, unsteady = tracing.run_layer_metrics(tracer.spans)
            if unsteady:
                problems.append(f"counts differ between ops of one seed: {unsteady}")
            layer["config.import_s"] = statistics.median(r["import_s"] for r in setups)
            layer["config.parse_s"] = statistics.median(r["parse_s"] for r in setups)
            layer["trace.overhead_s"] = bench.median_seconds(traced) - bench.median_seconds(plain)
            metrics = {name: _metric(layer[name], unit) for name, unit in tracing.LAYER_UNITS.items()}
            spans_file = out_root / "spans" / f"{args.workload}-seed{args.seed}.csv"
            tracer.write(spans_file)
            summary = [
                f"traced ops: {len(traced)}, median {bench.median_seconds(traced)!r} s; "
                f"untraced ops: {len(plain)}, median {bench.median_seconds(plain)!r} s",
                f"spans: {len(tracer.spans)} written to {spans_file.relative_to(ROOT)}",
            ]
        else:
            session.run_for(args.seconds, MIN_OPS)
            metrics = {
                "setup_s": _metric(bench.rescaled_setup_seconds(setups), "s"),
                "op_s": _metric(bench.rescaled_op_seconds(session.ops), "s"),
                "peak_rss_mb": _metric(
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
                ),
            }
            summary = [
                f"ops: {len(session.ops)}; setup probes: {len(setups)}",
                f"wall medians before rescaling: setup "
                f"{statistics.median(r['setup_s'] for r in setups)!r} s, "
                f"op {bench.median_seconds(session.ops)!r} s",
                f"gauge medians: setup "
                f"{statistics.median(t for r in setups for t in r['calibrations_s'])!r} s, "
                f"ops {statistics.median(t for op in session.ops for t in op.calibrations_s)!r} s "
                f"(reference {bench.CALIBRATION_REFERENCE_S!r} s)",
            ]
    finally:
        shutil.rmtree(session.work_dir, ignore_errors=True)

    ops = session.ops
    failed = sum(1 for op in ops if op.failures)
    ratio = bench.failed_ratio(ops)
    result = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "calibration_reference_s": bench.CALIBRATION_REFERENCE_S,
        "setup_probes": setups,
        "ops": [
            {"seconds": op.seconds, "calibrations_s": op.calibrations_s, "failures": op.failures}
            for op in ops
        ],
        "failed_ratio": ratio,
        "problems": problems,
        "metrics": metrics,
    }
    result_file = out_root / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.parent.mkdir(parents=True, exist_ok=True)
    result_file.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")

    print(f"rmpbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("environment: " + json.dumps(env, sort_keys=True))
    for line in summary:
        print(line)
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(f"failed_ratio {ratio!r} ({failed} of {len(ops)} ops failed)")
    for i, op in enumerate(ops):
        for failure in op.failures:
            print(f"op {i} failed: {failure}")
    for problem in problems:
        print(f"problem: {problem}")
    print(f"result written to {result_file.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
