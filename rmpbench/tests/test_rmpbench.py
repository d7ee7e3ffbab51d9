"""Tests of the benchmark itself: configs, checks, tracing and the CLI.

Run from the repository root with ``python3 -m pytest rmpbench/tests``.
Ops here use shrunken ensembles; measured runs keep the workload sizes.
"""
import json
import shutil
import subprocess
import sys

import pytest

from rmpbench import MEASURED, ROOT, WORKLOADS, bench, tracing

SEED = 7
# Smallest ensembles at which every output check still has its margin.
SMOKE_PATHS = {"pipeline": 500, "propagator": 2048, "nonlinear": 256}


def _traced_op(workload: str, work_dir) -> tuple[bench.OpRecord, dict]:
    session = bench.Session(bench.load_workload(workload), SEED, work_dir, SMOKE_PATHS[workload])
    tracer = tracing.Tracer()
    with tracer.installed():
        record = session.op(tracer)
    metrics, unsteady = tracing.run_layer_metrics(tracer.spans)
    assert unsteady == []
    return record, metrics


@pytest.fixture(scope="module", params=WORKLOADS)
def traced_pair(request, tmp_path_factory):
    """Two traced smoke ops of one workload, each in a fresh session and tracer."""
    work = tmp_path_factory.mktemp(request.param)
    return request.param, [_traced_op(request.param, work / str(i)) for i in range(2)]


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_config_loads_and_states_its_size(name):
    workload = bench.load_workload(name)
    cfg = bench.workload_config(workload, SEED)
    size = workload["size"]
    assert workload["name"] == name and workload["why"].strip()
    assert cfg.master_seed == SEED
    assert (cfg.n_paths, cfg.grid.n_steps, cfg.workers) == (
        size["paths"], size["steps"], size["workers"]
    )
    assert size["blocks"] == -(-cfg.n_paths // 2048)
    assert set(workload["groups"]) <= {"simulate", "moments", "beta", "verify", "converge"}


def test_smoke_op_passes_every_check(traced_pair):
    _, runs = traced_pair
    records = [record for record, _ in runs]
    assert [r.failures for r in records] == [[], []]
    assert bench.failed_ratio(records) == 0.0
    assert all(r.calibrations_s and min(r.calibrations_s) > 0.0 for r in records)


def test_rescaled_times_read_at_the_reference_speed():
    # A machine twice as slow as the reference doubles both the op and its gauge.
    reference = bench.CALIBRATION_REFERENCE_S
    assert bench.rescaled(2.0, [reference, reference, 9.0]) == pytest.approx(2.0)
    ops = [bench.OpRecord(4.0, [], [2 * reference]), bench.OpRecord(1.0, [], [reference]),
           bench.OpRecord(9.0, [], [reference])]
    assert bench.rescaled_op_seconds(ops) == pytest.approx(2.0)


def test_exact_counts_repeat_across_traced_runs(traced_pair):
    name, [(_, first), (_, second)] = traced_pair
    assert {"rng.streams", "rng.normals", "engine.path_steps", "blocks.blocks",
            "engine.refine_levels", "storage.bytes"} <= set(tracing.EXACT_COUNTS)
    assert {k: first[k] for k in tracing.EXACT_COUNTS} == {k: second[k] for k in tracing.EXACT_COUNTS}
    assert first["blocks.blocks"] > 0 and first["rng.streams"] > 0
    if name == "nonlinear":
        assert first["engine.refine_levels"] >= 4  # two solves, each at least two levels
    else:
        assert first["engine.path_steps"] > 0


def test_wrappers_are_removed_after_tracing():
    originals = {
        (module, attr): getattr(sys.modules[f"rmplab.{module}"], attr)
        for module, attr, _, _ in tracing.TARGETS
    }
    tracer = tracing.Tracer()
    with tracer.installed():
        assert len(tracing.wrapped_bindings()) == len(tracing.TARGETS)
    assert tracing.wrapped_bindings() == []
    for (module, attr), fn in originals.items():
        assert getattr(sys.modules[f"rmplab.{module}"], attr) is fn


def test_broken_check_makes_failed_ratio_nonzero(tmp_path, monkeypatch):
    # No fitted slope equals gamma_p exactly, so a zero tolerance must fail.
    monkeypatch.setattr(bench, "RATE_REL_TOL", 0.0)
    session = bench.Session(bench.load_workload("propagator"), SEED, tmp_path,
                            SMOKE_PATHS["propagator"])
    record = session.op()
    assert any("gamma_p" in f for f in record.failures)
    assert bench.failed_ratio(session.ops) == 1.0


def test_op_that_raises_is_a_failed_op(tmp_path, monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(bench.runner, "run", boom)
    session = bench.Session(bench.load_workload("nonlinear"), SEED, tmp_path)
    assert session.op().failures == ["raised RuntimeError('injected')"]


def test_self_time_subtracts_the_union_of_overlapping_children():
    S = tracing.Span
    spans = [
        S(0, None, "blocks.run_blocks", 0, 0.0, 10.0, None),
        S(1, 0, "blocks.block", 0, 1.0, 6.0, None),  # two threads overlap on [4, 6]
        S(2, 0, "blocks.block", 0, 4.0, 8.0, None),
        S(3, 2, "rng.block_normals", 0, 4.5, 5.0, None),
    ]
    selfs = tracing.self_times(spans)
    assert selfs[0] == pytest.approx(3.0)
    assert selfs[1] == pytest.approx(5.0)
    assert selfs[2] == pytest.approx(3.5)


def test_benchmark_json_lists_the_metrics_the_command_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(MEASURED)
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "op_s", "peak_rss_mb"]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_UNITS


def test_command_fails_without_the_program_source(tmp_path):
    shutil.copytree(ROOT / "rmpbench", tmp_path / "rmpbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "rmpbench/run.py", "--workload", "propagator", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
