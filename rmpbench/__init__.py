"""Benchmark of rmplab: workloads, output checks and per-layer tracing.

Run ``python3 rmpbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; see README.md.
"""
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKLOADS = ("pipeline", "propagator", "nonlinear")
# The workloads BENCHMARK.json lists.  `propagator` runs on two threads, and
# its op times did not settle within a third of their bound on a 2-vCPU host.
MEASURED = ("pipeline", "nonlinear")
