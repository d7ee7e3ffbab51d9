"""Runner: artifact bytes are pinned, and stages share one state solve.

Three small seeded runs are pinned by the sha256 of every artifact they
write: a nonlinear simulate+moments run (the RK4 solver at the substep
count its pilot chose), a C10-shaped linear run over simulate, moments and
converge, and a C10-shaped linear run over beta and verify (moment
transition, Hill, Green-Kubo, dt_fit, condition 1, B = H and the
inequality trials).  A speed-up must not move one of these bytes.  The digests
depend on numpy's Philox and normal sampler, so they hold for the numpy
release the package is tested with.
"""
import ast
import importlib
import importlib.util
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rmplab
from rmplab import blocks, engine, noise, runner
from rmplab.config import config_from_dict
from rmplab.engine import (
    Plan,
    integrate_y,
    solve_linear,
    stationary_horizon,
    stationary_rows,
    stationary_sample,
)
from rmplab.errors import EmptyInputError
from rmplab.metrics import ensemble_moment_curves, linear_moment_curves
from rmplab.noise import diffusion_constant
from rmplab.rng import ROLE_ADDITIVE, ROLE_MULTIPLICATIVE
from rmplab.storage import platform_record, sha256_file, write_moment_csv
from rmplab.tail import FLAG_UNWEIGHTED, b_h_replicates, hill_estimator, transition_grid
from rmplab.weak import expectation_functional
from held import dt_fit_of, green_kubo_of
from peaks import traced_peak
from test_acceptance import _pipeline_raw

NONLINEAR_RAW = {
    "schema_version": 1,
    "model": {
        "kind": "nonlinear", "a": 1.0, "x0": 1.0, "nonlinearity": "sin_modulated",
        "multiplicative": {"kind": "ou", "sigma": 1.0, "tau_c": 0.5},
        "envelope": {"kind": "ou", "sigma": 0.5, "tau_c": 1.0},
    },
    "grid": {"t_max": 4.0, "dt": 0.02},
    "ensemble": {"n_paths": 64, "master_seed": 5},
    "workers": 1,
    "outputs": {"directory": "out", "formats": ["csv", "json", "binary", "plotdata"]},
    "estimators": [{"name": "moments", "p": [0.5, 1.0], "window": [1.0, 4.0]}],
}

LINEAR_RAW = {
    "schema_version": 1,
    "model": {
        "kind": "linear", "a": 1.0, "x0": 50.0,
        "multiplicative": {"kind": "ou", "sigma": 1.0, "tau_c": 0.5},
        "additive": {"kind": "ou", "sigma": 0.5, "tau_c": 1.0},
    },
    "grid": {"t_max": 3.0, "dt": 0.02},
    "ensemble": {"n_paths": 256, "master_seed": 20100},
    "workers": 1,
    "outputs": {"directory": "out", "formats": ["csv", "json", "binary", "plotdata"]},
    "estimators": [
        {"name": "moments", "p": [0.5, 1.0], "window": [1.0, 3.0]},
        {"name": "converge",
         "functions": [{"kind": "abs_power", "alpha": 0.5}],
         "times": [0.5, 1.0, 2.0], "n": 256},
    ],
}

# Every estimator of the benchmark's pipeline workload, at 1,200 paths.
ESTIMATORS_RAW = dict(
    LINEAR_RAW,
    ensemble={"n_paths": 1200, "master_seed": 20100},
    estimators=[
        {"name": "moments", "p": [0.5, 1.0], "window": [1.0, 3.0]},
        {"name": "beta", "p_grid": [1.0, 2.0, 3.0], "horizon": 1.5, "window": [0.5, 1.5]},
        {"name": "hill", "n": 1200, "k": 200, "p_max": 1.0},
        {"name": "green_kubo", "window": 1.5},
        {"name": "dt_fit", "window": [1.0, 3.0]},
        {"name": "condition1", "p": [0.5, 1.0]},
        {"name": "b_equals_h", "t": 1.5, "n": 600, "replicates": 3, "level": 0.00001},
        {"name": "inequalities", "trials": 20},
        {"name": "converge",
         "functions": [{"kind": "abs_power", "alpha": 0.5}],
         "times": [0.5, 1.0, 2.0], "n": 1200},
    ],
)

GOLDEN = {
    "nonlinear": {
        "ensemble_X.bin": "7fcad631508ceaf30ae74e1eb1a52758db35798f70bc7d5bade14935ce3d4dd2",
        "ensemble_X.csv": "9cc0ca5e588d13ca28f26fc652feb1d078f586d0b30b74afa6551fd1dc85c53e",
        "moments_X.csv": "b78ccf46cafac56e84426325e5fcb8ff53be46ccb9cb2b401dd1d4abf6a9aa0a",
        "moments_X.dat": "d4bdeb9af5eee7daa95bb670055aa71f663bb61975f0deffa8c73a531ea35985",
        "moments_X.json": "a46bd6546ace425054ff2a7f522702f8772318da16b65fb6198bb50809e9e161",
        "plot_moments_X.py": "3df52c351f046369e801a33c37e89cabcb6724d82adc2fdf6f33a269769ced2f",
        "simulate.json": "0591ebcab98e7ecf82650febd38b9f1d8217a48ae0681bde6b617675dd7f769f",
    },
    "linear": {
        "converge.json": "58049e1cbf46de3e17850f4427cca7c47f63fd3b92c6cba7fef1766631d25e68",
        "converge_0.csv": "62b564ecd1bf2882218e771697266a47479762332044d503c53c8a93b0230627",
        "ensemble_X.bin": "d420c948805b991b1a40e30450ec24e927ceed005d21bde251a70a4f762f7be3",
        "ensemble_X.csv": "9669b88c472403e80b50b98cf1e44b0c945116e5ed63ee0613fcba92080bb084",
        "moments_X.csv": "1fd861268274fab224dbe646fc556753c51789343a576afe1cb6bd92f2e5ffcc",
        "moments_X.dat": "19baba0cef741b19449a0a48fdb78f4dc15501eabe8d4fd4301052e59d3a3764",
        "moments_X.json": "db9fd29b76bdc2341c0c9f234f5b6b3de4d35b74b1188ae839160609882d317d",
        "plot_moments_X.py": "3df52c351f046369e801a33c37e89cabcb6724d82adc2fdf6f33a269769ced2f",
        "simulate.json": "a6f82ffec22a761839c3e52e9c94eff04983531db2f4d7a145ec45e35699b7b7",
    },
    "estimators": {
        "beta.json": "7f76f40ede3745c3c943f1c73b331f645e3c83c01d2b20e5c16c2ac336a161d7",
        "verify.json": "1d9336688d05e91f5b5bc8b31aae0a060e5ab5de5a214301d56a59094250cbf6",
    },
}


CASES = {
    "nonlinear": (NONLINEAR_RAW, ("simulate", "moments")),
    "linear": (LINEAR_RAW, ("simulate", "moments", "converge")),
}



def _digests(raw: dict, groups: tuple[str, ...], out) -> dict[str, str]:
    manifest, code = runner.run(config_from_dict(raw), groups=groups, out_dir=out)
    assert code == 0
    return {a["path"]: a["sha256"] for a in manifest["artifacts"]}


def _count_calls(monkeypatch) -> list:
    """What each solve solves, in call order.

    A nonlinear solve of the runner reads as its X stride.  A block loop
    (engine._solve_rows) reads as (seed, group, rows), each Rows as
    (nodes, rows, {label: stride}).
    """
    calls = []
    solve_rows, solve_nonlinear = engine._solve_rows, runner.solve_nonlinear

    def loop(model, seed, rows, held, workers, block_size, group):
        shapes = [(r.grid.n_nodes, r.n, {r.label: r.stride}) for r in rows]
        calls.append((seed, group, shapes))
        return solve_rows(model, seed, rows, held, workers, block_size, group)

    def nonlinear(*args, **kwargs):
        calls.append(kwargs["save_every"])
        return solve_nonlinear(*args, **kwargs)

    monkeypatch.setattr(engine, "_solve_rows", loop)
    monkeypatch.setattr(runner, "solve_nonlinear", nonlinear)
    return calls


def _grid_loops(calls: list, cfg) -> list:
    """The solves of each block loop of calls on the run's own seed and grid."""
    return [
        [strides for _, _, strides in shapes]
        for seed, _, shapes in calls
        if seed == cfg.master_seed and shapes[0][0] == cfg.grid.n_nodes
    ]


@pytest.mark.parametrize("name", sorted(CASES))
def test_artifact_bytes_are_pinned(tmp_path, name):
    raw, groups = CASES[name]
    assert _digests(raw, groups, tmp_path) == GOLDEN[name]


def test_nonlinear_run_over_every_group_writes_only_what_it_requests(tmp_path):
    # beta, verify and converge hold no request, so they write nothing
    assert _digests(NONLINEAR_RAW, runner.GROUPS, tmp_path) == GOLDEN["nonlinear"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_stages_share_one_solve_and_keep_their_bytes(tmp_path, monkeypatch, name):
    raw, groups = CASES[name]
    calls = _count_calls(monkeypatch)
    _digests(raw, groups, tmp_path / "together")
    # one solve of the run's grid, at the stride simulate, moments and converge share
    if name == "nonlinear":
        assert calls == [1]
    else:
        assert _grid_loops(calls, config_from_dict(raw)) == [[{"X": 1}]]
    apart = {}
    for group in groups:
        apart.update(_digests(raw, (group,), tmp_path / group))
    assert apart == GOLDEN[name]


def test_beta_and_verify_bytes_are_pinned(tmp_path):
    assert _digests(ESTIMATORS_RAW, ("beta", "verify"), tmp_path) == GOLDEN["estimators"]


def test_noise_estimators_read_every_path_past_the_exponent_budget(tmp_path):
    # At a = 300, log A falls below -LOG_BUDGET after t = 2.34.  Green-Kubo
    # and dt_fit read the noise alone and see every path, as the fits of
    # a zeta-only solve.
    raw = dict(
        LINEAR_RAW,
        model=dict(LINEAR_RAW["model"], a=300.0),
        ensemble={"n_paths": 400, "master_seed": 20100},
        estimators=[
            {"name": "green_kubo", "window": 1.5},
            {"name": "dt_fit", "window": [1.0, 3.0]},
        ],
    )
    cfg = config_from_dict(raw)
    runner.run(cfg, groups=("beta",), out_dir=tmp_path)
    got = json.loads((tmp_path / "beta.json").read_text())
    zeta = solve_linear(cfg.model, cfg.grid, cfg.master_seed, cfg.n_paths, ("zeta",))["zeta"]
    assert zeta.n_flagged == 0
    d = diffusion_constant(cfg.model.multiplicative)
    want = {
        "green_kubo": green_kubo_of(zeta, 1.5, analytic=d),
        "dt_fit": dt_fit_of(integrate_y(zeta), (1.0, 3.0), analytic=d),
    }
    for name, report in want.items():
        assert got[name]["estimate"] == report.estimate, name
        assert got[name]["n_effective"] == report.n_effective == 400, name


def _noise_fits_raw(a: float, n_paths: int, dt_window: list) -> dict:
    return dict(
        LINEAR_RAW,
        model=dict(LINEAR_RAW["model"], a=a),
        ensemble={"n_paths": n_paths, "master_seed": 20100},
        estimators=[
            {"name": "green_kubo", "window": 1.5},
            {"name": "dt_fit", "window": dt_window},
        ],
    )


@pytest.mark.parametrize("a", [1.0, 300.0], ids=["a1", "a300"])
def test_streamed_beta_fits_are_those_of_the_held_ensembles(tmp_path, a):
    # 4,100 paths on the 151-node grid: two 2,048-path groups and one of 4,
    # so the 205-path batches of both fits straddle a group edge and the
    # last group is short.  At a = 300 every log A falls below
    # -LOG_BUDGET, which flags no path.
    cfg = config_from_dict(_noise_fits_raw(a, 4100, [1.0, 3.0]))
    runner.run(cfg, groups=("beta",), out_dir=tmp_path)
    got = json.loads((tmp_path / "beta.json").read_text())
    noise = solve_linear(cfg.model, cfg.grid, cfg.master_seed, cfg.n_paths, ("zeta", "Y"))
    assert noise["Y"].n_flagged == 0
    d = diffusion_constant(cfg.model.multiplicative)
    want = {
        "green_kubo": green_kubo_of(noise["zeta"], 1.5, analytic=d),
        "dt_fit": dt_fit_of(noise["Y"], (1.0, 3.0), analytic=d),
    }
    for name, report in want.items():
        assert got[name]["estimate"] == report.estimate, name
        assert got[name]["ci"] == [report.ci_low, report.ci_high], name
        assert got[name]["n_effective"] == report.n_effective == 4100, name
    # moment_transition's curves, reduced as X is solved, against the held X
    grid, stride = transition_grid(cfg.model, 1.5, dt=0.005)
    streamed = linear_moment_curves(
        cfg.model, grid, cfg.master_seed, cfg.n_paths, [1.0, 2.0, 3.0], save_every=stride
    )
    x = solve_linear(cfg.model, grid, cfg.master_seed, cfg.n_paths, save_every=stride)["X"]
    held = ensemble_moment_curves(x, [1.0, 2.0, 3.0])
    for name in ("times", "value", "std_err", "unstable"):
        assert getattr(streamed, name).tobytes() == getattr(held, name).tobytes(), name
    assert (streamed.n, streamed.excluded) == (held.n, held.excluded)


def _state_pass_raw(steps: int, out_dir) -> dict:
    """The C10 config (150 steps), or at 1,000 steps its noise fits, moments and converge."""
    raw = _pipeline_raw(1, str(out_dir))
    if steps == 150:
        return raw
    return dict(
        raw,
        grid={"t_max": 0.02 * steps, "dt": 0.02},
        ensemble={"n_paths": 600, "master_seed": 20100},
        estimators=[
            {"name": "moments", "p": [0.5, 1.0], "window": [5.0, 20.0]},
            {"name": "green_kubo", "window": 1.5},
            {"name": "dt_fit", "window": [5.0, 20.0]},
            {"name": "converge",
             "functions": [{"kind": "abs_power", "alpha": 0.5}],
             "times": [1.0, 5.0, 15.0], "n": 600},
        ],
    )


@pytest.mark.parametrize("steps, x_stride", [(150, 1), (1000, 2)])
def test_one_state_pass_writes_the_bytes_of_single_group_runs(
    tmp_path, monkeypatch, steps, x_stride
):
    # A full run solves its grid in one block loop: X at the simulate
    # stride, which moments and converge share, and the noise fits' zeta
    # and Y at every node.  Beta alone solves zeta and Y, simulate alone X.
    raw = _state_pass_raw(steps, tmp_path)
    cfg = config_from_dict(raw)
    digests = {}
    for groups, want in [
        (runner.GROUPS, [{"X": x_stride}, {"zeta": 1}, {"Y": 1}]),
        (("beta",), [{"zeta": 1}, {"Y": 1}]),
        (("simulate",), [{"X": x_stride}]),
    ]:
        with monkeypatch.context() as patch:
            calls = _count_calls(patch)
            digests[groups] = _digests(raw, groups, tmp_path / "_".join(groups))
        assert _grid_loops(calls, cfg) == [want], groups
    full = digests[runner.GROUPS]
    assert digests[("beta",)] == {"beta.json": full["beta.json"]}
    ensembles = ("ensemble_X.bin", "ensemble_X.csv", "simulate.json")
    assert digests[("simulate",)] == {name: full[name] for name in ensembles}


def test_a_full_c10_run_solves_eleven_block_loops(tmp_path, monkeypatch):
    # Every linear solve of the run is a planned request, and a request
    # joins the first loop of its seed that _solve_rows takes it into: the
    # run's grid, the transition curves with replicate 0's B, the
    # stationary rows of master_seed + 1, and one loop per later replicate
    # sample.  A loop feeding curves runs in their 2,048-path groups, one
    # feeding the noise fits in 2,048 paths per worker, any other in one.
    cfg = config_from_dict(_pipeline_raw(1, str(tmp_path)))
    calls = _count_calls(monkeypatch)
    runner.run(cfg)
    n = cfg.n_paths
    b_h = [(cfg.master_seed + k, None, [(301, 1500, {"BH"[k % 2]: 300})]) for k in range(2, 10)]
    assert calls == [
        (cfg.master_seed, 2048, [(151, n, {"X": 1}), (151, n, {"zeta": 1}), (151, n, {"Y": 1})]),
        (cfg.master_seed, 2048, [(301, n, {"X": 1}), (301, 1500, {"B": 300})]),
        (
            cfg.master_seed + 1,
            None,
            [(1385, 4000, {"H": 173}), (301, 1500, {"H": 300}), (457, 2000, {"H": 456})],
        ),
        *b_h,
    ]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_moments_source_rides_on_the_run_grid_loop_with_its_own_mask(tmp_path, monkeypatch):
    # x0 = 1e307 flags X wherever A passes 18, and never flags A: the A
    # moments share the kernel of simulate's X and keep every path a
    # solve of A alone keeps.
    raw = dict(
        LINEAR_RAW,
        model=dict(
            LINEAR_RAW["model"], a=0.5, x0=1e307,
            multiplicative={"kind": "ou", "sigma": 2.0, "tau_c": 0.25},
        ),
        outputs={"directory": "out", "formats": ["csv", "json"]},
        estimators=[{"name": "moments", "source": "A", "p": [0.5, 1.0], "window": [1.0, 3.0]}],
    )
    cfg = config_from_dict(raw)
    calls = _count_calls(monkeypatch)
    runner.run(cfg, groups=("simulate", "moments"), out_dir=tmp_path / "run")
    assert _grid_loops(calls, cfg) == [[{"X": 1}, {"A": 1}]] and len(calls) == 1
    a = solve_linear(cfg.model, cfg.grid, cfg.master_seed, cfg.n_paths, ("A",))["A"]
    x = solve_linear(cfg.model, cfg.grid, cfg.master_seed, cfg.n_paths)["X"]
    assert x.n_flagged > a.n_flagged
    curves = ensemble_moment_curves(a, [0.5, 1.0])
    rows = [
        (t, p, curves.value[i, j], curves.std_err[i, j], curves.n, curves.excluded)
        for i, p in enumerate(curves.p_values)
        for j, t in enumerate(curves.times)
    ]
    write_moment_csv(tmp_path / "want.csv", rows)
    got = tmp_path / "run" / "moments_A.csv"
    assert got.read_bytes() == (tmp_path / "want.csv").read_bytes()
    assert json.loads((tmp_path / "run" / "moments_A.json").read_text())["excluded"] == a.n_flagged


def test_a_horizon_only_moments_stride_writes_the_curves_of_its_own_solve(tmp_path):
    # save_every = n_steps keeps the first node and the horizon of X: the
    # moments read both, as a solve at that stride gives them.
    raw = dict(
        LINEAR_RAW,
        outputs={"directory": "out", "formats": ["csv"]},
        estimators=[{"name": "moments", "p": [0.5, 1.0], "save_every": 150}],
    )
    cfg = config_from_dict(raw)
    runner.run(cfg, groups=("simulate", "moments"), out_dir=tmp_path / "run")
    x = solve_linear(cfg.model, cfg.grid, cfg.master_seed, cfg.n_paths, save_every=150)["X"]
    curves = ensemble_moment_curves(x, [0.5, 1.0])
    assert len(curves.times) == 2
    rows = [
        (t, p, curves.value[i, j], curves.std_err[i, j], curves.n, curves.excluded)
        for i, p in enumerate(curves.p_values)
        for j, t in enumerate(curves.times)
    ]
    write_moment_csv(tmp_path / "want.csv", rows)
    got = tmp_path / "run" / "moments_X.csv"
    assert got.read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_a_read_no_stage_planned_fails_by_name():
    cfg = config_from_dict(LINEAR_RAW)
    plan = Plan(cfg.model, cfg.workers, runner._planned_rows(cfg, ("simulate",)))
    with pytest.raises(LookupError, match="planned a read of Rows"):
        plan.rows(runner._run_rows(cfg, "Y", 1))


def test_a_full_run_draws_the_state_noise_once(tmp_path, monkeypatch):
    # The zeta rows of (master_seed, multiplicative role, the run's grid)
    # are drawn once, for X and the noise fits together: on C10's 5,000
    # paths of 151 nodes, 755,000 normals, where solving them for each
    # drew them twice.
    cfg = config_from_dict(_pipeline_raw(1, str(tmp_path)))
    drawn = []
    draw = noise.block_normals

    def counted(master_seed, path_indices, role, shape_per_path, *args, **kwargs):
        if (master_seed, role) == (cfg.master_seed, ROLE_MULTIPLICATIVE):
            if shape_per_path == (cfg.grid.n_nodes, 1):
                drawn.extend(path_indices.tolist())
        return draw(master_seed, path_indices, role, shape_per_path, *args, **kwargs)

    monkeypatch.setattr(noise, "block_normals", counted)
    runner.run(cfg)
    assert sorted(drawn) == list(range(cfg.n_paths))
    assert len(drawn) * cfg.grid.n_nodes == 755_000


def test_too_few_paths_for_the_noise_fits_fails_before_any_stage_writes(tmp_path):
    # The noise fits' batch sums are set up before the state pass that
    # feeds them, so the run fails before simulate or moments writes.
    raw = dict(
        LINEAR_RAW,
        ensemble={"n_paths": 10, "master_seed": 20100},
        estimators=LINEAR_RAW["estimators"] + [{"name": "green_kubo", "window": 0.5}],
    )
    with pytest.raises(EmptyInputError, match="too few paths for batching"):
        runner.run(config_from_dict(raw), out_dir=tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_beta_noise_fits_hold_less_than_one_noise_ensemble(tmp_path):
    # The solve feeds Green-Kubo's and dt_fit's carried sums a 2,048-path
    # group at a time: the stage holds two groups of zeta and Y and one
    # group's lag products or squares, well under one 16,384 x 151 ensemble.
    cfg = config_from_dict(_noise_fits_raw(1.0, 16384, [2.0, 3.0]))
    blocks.workspace()  # this thread's, built before the trace
    with traced_peak() as peak:
        runner.run(cfg, groups=("beta",), out_dir=tmp_path)
    assert peak.bytes < 8 * cfg.n_paths * cfg.grid.n_nodes


def test_a_second_stride_gets_its_own_solve(tmp_path, monkeypatch):
    raw = json.loads(json.dumps(NONLINEAR_RAW))
    raw["estimators"][0]["save_every"] = 4
    calls = _count_calls(monkeypatch)
    _digests(raw, ("simulate", "moments"), tmp_path)
    assert calls == [1, 4]


def test_the_manifest_records_the_platform_outside_the_checksums(tmp_path):
    # The pinned digests of the same run (test_artifact_bytes_are_pinned)
    # hold only under AVX-512 dispatch; this test holds on any platform.
    raw, groups = CASES["linear"]
    manifest, _ = runner.run(config_from_dict(raw), groups=groups, out_dir=tmp_path)
    assert manifest["platform"] == platform_record()
    assert manifest["platform"]["numpy"] == np.__version__
    assert json.loads((tmp_path / "manifest.json").read_text())["platform"] == platform_record()
    checksums = {a["path"]: a["sha256"] for a in manifest["artifacts"]}
    assert sorted(checksums) == sorted(GOLDEN["linear"])
    assert checksums == {name: sha256_file(tmp_path / name) for name in checksums}


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"), reason="x86 SIMD targets")
def test_a_run_without_avx512_dispatch_lists_none_of_its_targets(tmp_path):
    disabled = ("X86_V4", "AVX512_ICL", "AVX512_SPR")
    raw = dict(LINEAR_RAW, ensemble={"n_paths": 16, "master_seed": 20100}, estimators=[])
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    src = str(Path(rmplab.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "rmplab", "simulate", "--config", str(config),
         "--out", str(tmp_path / "out")],
        env=dict(os.environ, PYTHONPATH=src, NPY_DISABLE_CPU_FEATURES=" ".join(disabled)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    recorded = json.loads((tmp_path / "out" / "manifest.json").read_text())["platform"]
    assert recorded["numpy"] == np.__version__
    assert recorded["simd"] and not set(disabled) & set(recorded["simd"])


def test_every_stage_set_writes_the_bytes_of_the_full_run(tmp_path):
    # On C10, Hill, converge and b_equals_h's replicate 0 share one pass
    # over their keyed rows, and replicate 0's B rides on the transition
    # curves' solve.  A run of fewer stages shares less and must write the
    # same bytes.
    raw = _pipeline_raw(1, str(tmp_path))
    full = _digests(raw, runner.GROUPS, tmp_path / "full")
    for groups in [("beta",), ("verify",), ("converge",), ("beta", "verify")]:
        part = _digests(raw, groups, tmp_path / "_".join(groups))
        assert part == {name: full[name] for name in part}, groups
        assert part, groups


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_b_equals_h_reads_its_own_mask_where_x_saturates(tmp_path):
    # x0 = 1e307 overflows X = x0 A + B wherever A passes 18, which flags
    # those paths in X, never in B.  Replicate 0's B comes from the
    # transition curves' X kernel, and its sample must keep every path a
    # B-only solve keeps.
    raw = dict(
        LINEAR_RAW,
        model=dict(
            LINEAR_RAW["model"], a=0.5, x0=1e307,
            multiplicative={"kind": "ou", "sigma": 2.0, "tau_c": 0.25},
            additive={"kind": "ou", "sigma": 0.5, "tau_c": 0.25},
        ),
        ensemble={"n_paths": 1200, "master_seed": 20100},
        outputs={"directory": "out", "formats": ["json"]},
        estimators=[
            {"name": "beta", "p_grid": [0.1, 0.9], "horizon": 1.5, "window": [0.5, 1.5]},
            {"name": "b_equals_h", "t": 1.5, "n": 600, "replicates": 2},
        ],
    )
    cfg = config_from_dict(raw)
    runner.run(cfg, groups=("beta", "verify"), out_dir=tmp_path)
    beta = json.loads((tmp_path / "beta.json").read_text())
    got = json.loads((tmp_path / "verify.json").read_text())["b_equals_h"]["p_values"]
    grid, _ = transition_grid(cfg.model, 1.5)
    x = solve_linear(cfg.model, grid, cfg.master_seed, 600, save_every=grid.n_steps)["X"]
    b = solve_linear(cfg.model, grid, cfg.master_seed, 600, ("B",), save_every=grid.n_steps)["B"]
    assert beta["moment_transition"]["details"]["excluded"] > 0
    # the p = 0.9 error bars overflow, so that order's fit runs unweighted
    assert beta["moment_transition"]["flags"] == [FLAG_UNWEIGHTED]
    assert x.n_flagged > 0 and b.n_flagged == 0
    want = b_h_replicates(cfg.model, 1.5, 600, 2, cfg.master_seed)
    assert got == [r.p_value for r in want]


def test_hill_and_converge_read_the_library_stationary_samples(tmp_path):
    # The run reads Hill's and converge's H from one shared loop of
    # master_seed + 1; each equals the library call that solves it alone.
    cfg = config_from_dict(ESTIMATORS_RAW)
    runner.run(cfg, groups=("beta", "converge"), out_dir=tmp_path)
    hill = json.loads((tmp_path / "beta.json").read_text())["hill"]
    sample = stationary_sample(cfg.model, hill["t_star"], 1200, cfg.master_seed + 1, p_max=1.0)
    assert hill["estimate"] == hill_estimator(sample.values, 200).estimate
    assert hill["truncation_bound"] == sample.truncation_bound
    [req] = [r for r in cfg.estimators if r.name == "converge"]
    stationary = stationary_sample(cfg.model, 1.5 * cfg.grid.horizon, 1200, cfg.master_seed + 1)
    limit = json.loads((tmp_path / "converge.json").read_text())["functions"][0]["limit"]
    assert limit == expectation_functional(stationary.values, req.get("functions")[0]).value


def test_a_full_run_draws_each_keyed_row_once(tmp_path, monkeypatch):
    # Hill (4,000 rows of 1,385 nodes), converge (2,000 of 457) and
    # b_equals_h's replicate 0 H (1,500 of 301) read master_seed + 1: each
    # row is drawn once, at Hill's length.  Replicate 0's B is the
    # transition curves' B, whose 5,000 rows of 301 nodes are drawn once.
    cfg = config_from_dict(_pipeline_raw(1, str(tmp_path)))
    hill_rows = stationary_rows(stationary_horizon(cfg.model, 1.0), 4000, 0, True)
    assert hill_rows.grid.n_nodes == 1385
    drawn = {}
    total = [0]
    draw = noise.block_normals

    def counted(master_seed, path_indices, role, shape_per_path, *args, **kwargs):
        out = draw(master_seed, path_indices, role, shape_per_path, *args, **kwargs)
        total[0] += out.size
        for i in path_indices.tolist():
            drawn.setdefault((master_seed, role, i), []).append(shape_per_path)
        return out

    monkeypatch.setattr(noise, "block_normals", counted)
    runner.run(cfg)
    for role in (ROLE_MULTIPLICATIVE, ROLE_ADDITIVE):
        rows = [drawn[(cfg.master_seed + 1, role, i)] for i in range(4000)]
        assert rows == [[(1385, 1)]] * 4000
        assert (cfg.master_seed + 1, role, 4000) not in drawn
        transition = [
            [shape for shape in drawn[(cfg.master_seed, role, i)] if shape == (301, 1)]
            for i in range(5000)
        ]
        assert transition == [[(301, 1)]] * 5000
    assert total[0] == 22_824_000


ROOT = Path(__file__).resolve().parents[1]
TRACER_PIN = "# noqa: F401  (rmpbench traces it here)"


def _tracing():
    """The benchmark's rmpbench/tracing.py, read from its file alone."""
    path = ROOT / "rmpbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("rmpbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_binding_resolves():
    # The benchmark's tracer wraps each (module, attr) of its TARGETS by
    # name; a binding deleted here would only fail once a traced run starts.
    tracing = _tracing()
    missing = [
        f"{module}.{attr}"
        for module, attr, _, _ in tracing.TARGETS
        if not hasattr(importlib.import_module(f"rmplab.{module}"), attr)
    ]
    assert tracing.TARGETS
    assert missing == []


def test_every_tracer_pin_is_a_traced_binding():
    # An import kept only for the tracer is dead code once no TARGETS
    # entry names it.
    targets = {(module, attr) for module, attr, _, _ in _tracing().TARGETS}
    pins = []
    for path in sorted((ROOT / "src" / "rmplab").glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom):
                pins += [
                    (path.stem, alias.asname or alias.name)
                    for alias in node.names
                    if TRACER_PIN in lines[alias.lineno - 1]
                ]
    assert ("tail", "linear_moment_curves") in pins  # a census that found none would pass
    assert [pin for pin in pins if pin not in targets] == []


def _calls_in_package(name: str) -> list:
    """(module, enclosing class or None) of every call of name in src/rmplab."""
    found = []

    def visit(node, module, cls):
        cls = node.name if isinstance(node, ast.ClassDef) else cls
        if isinstance(node, ast.Call):
            if getattr(node.func, "id", getattr(node.func, "attr", None)) == name:
                found.append((module, cls))
        for child in ast.iter_child_nodes(node):
            visit(child, module, cls)

    for path in sorted((ROOT / "src" / "rmplab").glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, None)
    return found


def test_runner_solves_linear_rows_through_one_call():
    # Every linear solve, of a run or of a library call, is a planned
    # request on one block-loop route: one call of _solve_rows, inside
    # engine.Plan, and the runner imports no other linear solver.
    assert _calls_in_package("_solve_rows") == [("engine", "Plan")]
    assert _calls_in_package("stationary_sample")  # a census that found none would pass
    tree = ast.parse((ROOT / "src" / "rmplab" / "runner.py").read_text(encoding="utf-8"))
    imported = {
        alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert imported & {"_solve_rows", "solve_linear"} == set()
