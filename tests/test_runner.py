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
from pathlib import Path

import pytest

from rmplab import blocks, runner
from rmplab.config import config_from_dict
from rmplab.engine import integrate_y, solve_linear
from rmplab.metrics import ensemble_moment_curves, linear_moment_curves
from rmplab.noise import diffusion_constant
from rmplab.tail import transition_grid
from held import dt_fit_of, green_kubo_of
from peaks import traced_peak

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
    "nonlinear": (NONLINEAR_RAW, ("simulate", "moments"), "solve_nonlinear"),
    "linear": (LINEAR_RAW, ("simulate", "moments", "converge"), "solve_linear"),
}


def _digests(raw: dict, groups: tuple[str, ...], out) -> dict[str, str]:
    manifest, code = runner.run(config_from_dict(raw), groups=groups, out_dir=out)
    assert code == 0
    return {a["path"]: a["sha256"] for a in manifest["artifacts"]}


def _count_calls(monkeypatch, name: str) -> list:
    calls = []
    original = getattr(runner, name)

    def counted(*args, **kwargs):
        calls.append(kwargs.get("save_every"))
        return original(*args, **kwargs)

    monkeypatch.setattr(runner, name, counted)
    return calls


@pytest.mark.parametrize("name", sorted(CASES))
def test_artifact_bytes_are_pinned(tmp_path, name):
    raw, groups, _ = CASES[name]
    assert _digests(raw, groups, tmp_path) == GOLDEN[name]


def test_nonlinear_run_over_every_group_writes_only_what_it_requests(tmp_path):
    # beta, verify and converge hold no request, so they write nothing
    assert _digests(NONLINEAR_RAW, runner.GROUPS, tmp_path) == GOLDEN["nonlinear"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_stages_share_one_solve_and_keep_their_bytes(tmp_path, monkeypatch, name):
    raw, groups, solver = CASES[name]
    calls = _count_calls(monkeypatch, solver)
    _digests(raw, groups, tmp_path / "together")
    # one solve, at the stride simulate, nonlinear moments and converge share
    assert calls == [1]
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
    calls = _count_calls(monkeypatch, "solve_nonlinear")
    _digests(raw, ("simulate", "moments"), tmp_path)
    assert calls == [1, 4]


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
