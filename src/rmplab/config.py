"""Experiment configuration: versioned JSON schema, fail closed.

Unknown keys are rejected everywhere.  A configuration that loads is
guaranteed to round-trip: load(dump(cfg)) reproduces cfg exactly,
including defaults that were filled in.  Estimator requests are parsed
here and only here, before any stage runs: defaults come from
ESTIMATOR_PARAMS, lists are held as tuples, converge test functions are
built, counts, order lists, windows, times, scales and modes are
range-checked, and two requests that would write the same artifacts are
rejected.
"""
from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from . import engine, noise
from .errors import ConfigInvalidError
from .grid import TimeGrid, default_dt
from .weak import ABS_POWER, MODE_AUTO, MODES, TEST_FUNCTION_KINDS, TestFunction

SCHEMA_VERSION = 1

FORMATS = ("csv", "json", "binary", "plotdata")

ESTIMATOR_PARAMS: dict[str, dict[str, object]] = {
    # name -> {param: default}; None means required-or-derived at run time
    "moments": {"p": None, "source": "X", "save_every": None, "window": None},
    "beta": {"p_grid": None, "horizon": None, "window": None, "save_every": None},
    "hill": {"t_star": None, "k": None, "n": None, "p_max": 1.0},
    "green_kubo": {"window": None},
    "dt_fit": {"window": None},
    "condition1": {"p": None, "t_max": 50.0, "nodes": 26, "ratio_budget": 1e3, "mc_n": 0},
    "b_equals_h": {"t": None, "n": None, "replicates": 10, "level": 0.01},
    "inequalities": {"trials": 1000, "p": (0.3, 0.7, 1.0, 2.0), "n": 256},
    "converge": {"functions": None, "times": None, "t_star": None, "n": None, "mode": MODE_AUTO},
}

# Count fields and their least value; null passes only where the default is null.
_COUNT_MIN = {"k": 1, "mc_n": 0, "n": 1, "nodes": 2, "replicates": 1, "save_every": 1, "trials": 1}
# List fields every request of theirs needs, and their least length.
_LIST_MIN = {"p": 1, "p_grid": 2, "functions": 1, "times": 2}
# Times and scales that must be positive and finite; null passes only
# where the default is null.
_POSITIVE = {"horizon", "t_star", "t", "t_max", "ratio_budget", "p_max"}
# Windows with no usable null: green_kubo's is one positive lag, the
# others are [lo, hi] fit windows.
_WINDOW_REQUIRED = {"green_kubo", "dt_fit"}


@dataclass(frozen=True)
class EstimatorRequest:
    name: str
    params: tuple[tuple[str, object], ...]

    def get(self, key: str, default: object = None) -> object:
        return dict(self.params).get(key, default)

    def to_dict(self) -> dict:
        out: dict = {"name": self.name}
        out.update(self.params)
        if self.name == "converge":
            out["functions"] = [_function_to_dict(f) for f in self.get("functions")]
        return out


@dataclass(frozen=True)
class ExperimentConfig:
    schema_version: int
    model: "engine.LinearModel | engine.NonlinearModel"
    grid: TimeGrid
    n_paths: int
    master_seed: int
    workers: int
    out_dir: str
    formats: tuple[str, ...]
    estimators: tuple[EstimatorRequest, ...]

    def to_dict(self) -> dict:
        m: dict = {"a": self.model.a, "x0": self.model.x0}
        if isinstance(self.model, engine.NonlinearModel):
            m["kind"] = "nonlinear"
            m["multiplicative"] = _spec_to_dict(self.model.multiplicative)
            m["envelope"] = _spec_to_dict(self.model.envelope)
            m["nonlinearity"] = self.model.nonlinearity
        else:
            m["kind"] = "linear"
            m["multiplicative"] = _spec_to_dict(self.model.multiplicative)
            m["additive"] = _spec_to_dict(self.model.additive)
        return {
            "schema_version": self.schema_version,
            "model": m,
            "grid": {"dt": self.grid.dt, "t_max": self.grid.horizon},
            "ensemble": {"n_paths": self.n_paths, "master_seed": self.master_seed},
            "workers": self.workers,
            "outputs": {"directory": self.out_dir, "formats": list(self.formats)},
            "estimators": [e.to_dict() for e in self.estimators],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def _check_keys(d: dict, allowed: "set[str]", required: "set[str]", where: str) -> None:
    if not isinstance(d, dict):
        raise ConfigInvalidError(f"{where}: expected an object")
    unknown = set(d) - allowed
    if unknown:
        raise ConfigInvalidError(f"{where}: unknown fields {sorted(unknown)}")
    missing = required - set(d)
    if missing:
        raise ConfigInvalidError(f"{where}: missing fields {sorted(missing)}")


def _is_number(v: object) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_finite(v: object) -> bool:
    # False for NaN, the infinities and ints past the float range
    return _is_number(v) and abs(v) <= sys.float_info.max


def _number(d: dict, key: str, where: str, *, default: "float | None" = None) -> float:
    if key not in d:
        if default is None:
            raise ConfigInvalidError(f"{where}: missing field {key!r}")
        return default
    v = d[key]
    if not _is_finite(v):
        raise ConfigInvalidError(f"{where}.{key}: expected a finite number")
    return float(v)


def _spec_to_dict(spec: noise.NoiseSpec) -> dict:
    if spec.kind == noise.OU:
        sigma, tau = spec.components[0]
        return {"kind": "ou", "sigma": sigma, "tau_c": tau}
    if spec.kind == noise.OU_SUPERPOSITION:
        return {"kind": "ou_superposition", "components": [list(c) for c in spec.components]}
    if spec.kind == noise.ZERO:
        return {"kind": "zero"}
    if spec.kind == noise.CONSTANT:
        return {"kind": "constant", "level": spec.level}
    return {
        "kind": "pareto_transformed_ou",
        "tau_c": spec.components[0][1],
        "tail_index": spec.tail_index,
        "scale": spec.scale,
    }


def spec_from_dict(d: dict, where: str) -> noise.NoiseSpec:
    if not isinstance(d, dict) or "kind" not in d:
        raise ConfigInvalidError(f"{where}: noise spec must be an object with a 'kind'")
    kind = d["kind"]
    try:
        if kind == "ou":
            _check_keys(d, {"kind", "sigma", "tau_c"}, {"sigma", "tau_c"}, where)
            return noise.NoiseSpec.ou(_number(d, "sigma", where), _number(d, "tau_c", where))
        if kind == "ou_superposition":
            _check_keys(d, {"kind", "components"}, {"components"}, where)
            comps = d["components"]
            if not isinstance(comps, list) or not all(
                isinstance(c, list) and len(c) == 2 for c in comps
            ):
                raise ConfigInvalidError(f"{where}.components: expected [[sigma, tau_c], ...]")
            return noise.NoiseSpec.superposition(
                [tuple(map(float, _number_list(c, f"{where}.components"))) for c in comps]
            )
        if kind == "zero":
            _check_keys(d, {"kind"}, set(), where)
            return noise.NoiseSpec.zero()
        if kind == "constant":
            _check_keys(d, {"kind", "level"}, {"level"}, where)
            return noise.NoiseSpec.constant(_number(d, "level", where))
        if kind == "pareto_transformed_ou":
            _check_keys(d, {"kind", "tau_c", "tail_index", "scale"}, {"tau_c", "tail_index"}, where)
            return noise.NoiseSpec.pareto_ou(
                _number(d, "tau_c", where),
                _number(d, "tail_index", where),
                _number(d, "scale", where, default=1.0),
            )
    except ValueError as exc:
        raise ConfigInvalidError(f"{where}: {exc}") from exc
    raise ConfigInvalidError(f"{where}.kind: unknown noise kind {kind!r}")


def _model_from_dict(d: dict) -> "engine.LinearModel | engine.NonlinearModel":
    if not isinstance(d, dict):
        raise ConfigInvalidError("model: expected an object")
    kind = d.get("kind", "linear")
    try:
        if kind == "linear":
            _check_keys(
                d,
                {"kind", "a", "x0", "multiplicative", "additive"},
                {"a", "multiplicative", "additive"},
                "model",
            )
            return engine.LinearModel(
                a=_number(d, "a", "model"),
                multiplicative=spec_from_dict(d["multiplicative"], "model.multiplicative"),
                additive=spec_from_dict(d["additive"], "model.additive"),
                x0=_number(d, "x0", "model", default=1.0),
            )
        if kind == "nonlinear":
            _check_keys(
                d,
                {"kind", "a", "x0", "multiplicative", "envelope", "nonlinearity"},
                {"a", "multiplicative", "envelope", "nonlinearity"},
                "model",
            )
            if d["nonlinearity"] not in engine.NONLINEARITIES:
                raise ConfigInvalidError(
                    f"model.nonlinearity: expected one of {list(engine.NONLINEARITIES)}"
                )
            return engine.NonlinearModel(
                a=_number(d, "a", "model"),
                multiplicative=spec_from_dict(d["multiplicative"], "model.multiplicative"),
                envelope=spec_from_dict(d["envelope"], "model.envelope"),
                nonlinearity=d["nonlinearity"],
                x0=_number(d, "x0", "model", default=1.0),
            )
    except ValueError as exc:
        raise ConfigInvalidError(f"model: {exc}") from exc
    raise ConfigInvalidError(f"model.kind: expected 'linear' or 'nonlinear', got {kind!r}")


def _function_to_dict(f: TestFunction) -> dict:
    if f.kind == ABS_POWER:
        return {"kind": f.kind, "alpha": f.alpha, "z_real": f.z.real, "z_imag": f.z.imag}
    return {"kind": f.kind, "xs": list(f.xs), "ys": list(f.ys)}


def _function_from_dict(d: object, where: str) -> TestFunction:
    if not isinstance(d, dict) or d.get("kind") not in TEST_FUNCTION_KINDS:
        raise ConfigInvalidError(
            f"{where}: expected an object with a 'kind' among {list(TEST_FUNCTION_KINDS)}"
        )
    try:
        if d["kind"] == ABS_POWER:
            _check_keys(d, {"kind", "alpha", "z_real", "z_imag"}, set(), where)
            alpha, z_real, z_imag = (
                _number(d, k, where, default=v)
                for k, v in (("alpha", 1.0), ("z_real", 0.0), ("z_imag", 0.0))
            )
            return TestFunction(ABS_POWER, alpha=alpha, z=complex(z_real, z_imag))
        _check_keys(d, {"kind", "xs", "ys"}, {"xs", "ys"}, where)
        xs, ys = (tuple(map(float, _number_list(d[k], f"{where}.{k}"))) for k in ("xs", "ys"))
        return TestFunction(d["kind"], xs=xs, ys=ys)
    except ValueError as exc:
        raise ConfigInvalidError(f"{where}: {exc}") from exc


def _number_list(v: object, where: str) -> tuple:
    if not isinstance(v, (list, tuple)) or not all(map(_is_finite, v)):
        raise ConfigInvalidError(f"{where}: expected a list of finite numbers")
    return tuple(v)


def _check_range(name: str, key: str, value: object, default: object) -> None:
    """Range checks of the window, time, scale, level, mode and source fields."""
    where = f"{name}.{key}"
    if value is None and default is None and not (key == "window" and name in _WINDOW_REQUIRED):
        return
    if key in _POSITIVE or (key == "window" and name == "green_kubo"):
        if not (_is_finite(value) and value > 0.0):
            raise ConfigInvalidError(f"{where}: expected a positive finite number")
    elif key == "window":
        if not (isinstance(value, tuple) and len(value) == 2 and 0.0 <= value[0] < value[1]):
            raise ConfigInvalidError(f"{where}: expected [lo, hi], finite with 0 <= lo < hi")
    elif key == "times":
        if not all(t >= 0.0 for t in value):
            raise ConfigInvalidError(f"{where}: expected times >= 0")
    elif key == "level":
        if not (_is_number(value) and 0.0 < value < 1.0):
            raise ConfigInvalidError(f"{where}: expected a number in (0, 1)")
    elif key == "mode" and value not in MODES:
        raise ConfigInvalidError(f"{where}: expected one of {list(MODES)}")
    elif key == "source" and value not in engine.PROCESS_LABELS:
        raise ConfigInvalidError(f"{where}: expected one of {list(engine.PROCESS_LABELS)}")


def _estimator_from_dict(d: dict, index: int) -> EstimatorRequest:
    """Parse one request once: defaults filled in, lists as tuples, functions built."""
    where = f"estimators[{index}]"
    if not isinstance(d, dict) or "name" not in d:
        raise ConfigInvalidError(f"{where}: expected an object with a 'name'")
    name = d["name"]
    if not isinstance(name, str) or name not in ESTIMATOR_PARAMS:
        raise ConfigInvalidError(f"{where}.name: unknown estimator {name!r}")
    spec = ESTIMATOR_PARAMS[name]
    _check_keys(d, set(spec) | {"name"}, set(), where)
    params = []
    for key, default in sorted(spec.items()):
        value = d.get(key, default)
        if key == "functions" and isinstance(value, (list, tuple)):
            value = tuple(
                _function_from_dict(f, f"{name}.functions[{i}]") for i, f in enumerate(value)
            )
        elif isinstance(value, (list, tuple)):
            value = _number_list(value, f"{name}.{key}")
        elif isinstance(value, dict):
            raise ConfigInvalidError(f"{name}.{key}: expected a number, string or list")
        least = _COUNT_MIN.get(key)
        if least is not None and not (value is None and default is None):
            if isinstance(value, bool) or not isinstance(value, int) or value < least:
                raise ConfigInvalidError(f"{name}.{key}: expected an integer >= {least}")
        least = _LIST_MIN.get(key)
        if least is not None and (not isinstance(value, tuple) or len(value) < least):
            raise ConfigInvalidError(f"{name}.{key}: expected a list of at least {least} entries")
        _check_range(name, key, value, default)
        params.append((key, value))
    return EstimatorRequest(name=name, params=tuple(params))


def _validate_estimator_against_model(
    req: EstimatorRequest, model: "engine.LinearModel | engine.NonlinearModel"
) -> None:
    """Cross-field checks: the model must have what req reads, at orders that make sense."""
    if isinstance(model, engine.NonlinearModel):
        # the nonlinear solve gives the state X alone, with no linear exponents
        if req.name in ("beta", "hill", "green_kubo", "dt_fit", "b_equals_h", "converge"):
            raise ConfigInvalidError(f"{req.name}: defined for the linear model only")
        if req.name == "moments" and req.get("source") != "X":
            raise ConfigInvalidError("moments.source: a nonlinear model has only 'X'")
    elif req.name in ("beta", "converge") and noise.diffusion_constant(model.multiplicative) <= 0:
        # both judge orders against the transition order a/D, which D = 0 leaves infinite
        raise ConfigInvalidError(
            f"{req.name}: needs a diffusion constant D > 0, and the multiplicative noise has"
            " D = 0, so the transition order a/D is not finite"
        )
    additive = getattr(model, "additive", None) or getattr(model, "envelope")
    beta_1 = noise.tail_index(additive)
    for key in ("p", "p_grid"):
        for p in req.get(key) or ():
            if p <= 0:
                raise ConfigInvalidError(f"{req.name}.{key}: orders must be positive numbers")
            if p >= beta_1:
                raise ConfigInvalidError(
                    f"{req.name}.{key}: order {p} is not below the additive tail index {beta_1}"
                )
    p_max = req.get("p_max")
    if p_max is not None and req.name == "hill":
        # the stationary tail is the heavier of the Kesten tail and the forcing's
        tail = min(model.beta_c, beta_1)
        if p_max >= tail:
            raise ConfigInvalidError(
                f"hill.p_max: {p_max} is not below the stationary tail index {tail}, the"
                f" smaller of the transition order {model.beta_c} and the additive tail"
                f" index {beta_1}"
            )


def config_from_dict(raw: dict) -> ExperimentConfig:
    _check_keys(
        raw,
        {"schema_version", "model", "grid", "ensemble", "workers", "outputs", "estimators"},
        {"schema_version", "model", "grid", "ensemble"},
        "config",
    )
    if raw["schema_version"] != SCHEMA_VERSION:
        raise ConfigInvalidError(
            f"schema_version: expected {SCHEMA_VERSION}, got {raw['schema_version']!r}"
        )
    model = _model_from_dict(raw["model"])

    gd = raw["grid"]
    _check_keys(gd, {"dt", "t_max"}, {"t_max"}, "grid")
    t_max = _number(gd, "t_max", "grid")
    if t_max <= 0:
        raise ConfigInvalidError("grid.t_max: must be positive")
    taus = [model.multiplicative.max_tau]
    additive = getattr(model, "additive", None) or getattr(model, "envelope")
    taus.append(additive.max_tau)
    dt = _number(gd, "dt", "grid", default=default_dt(max(model.a, 1e-12), *taus))
    if dt <= 0:
        raise ConfigInvalidError("grid.dt: must be positive")
    steps = t_max / dt
    if not math.isfinite(steps):
        raise ConfigInvalidError(f"grid.t_max: t_max / dt = {steps} steps is not finite")
    n_steps = max(int(round(steps)), 1)
    try:
        grid = TimeGrid(dt=t_max / n_steps, n_steps=n_steps)
    except ValueError as exc:
        raise ConfigInvalidError(f"grid: {exc}") from exc

    ed = raw["ensemble"]
    _check_keys(ed, {"n_paths", "master_seed"}, {"n_paths", "master_seed"}, "ensemble")
    n_paths = ed["n_paths"]
    if not isinstance(n_paths, int) or isinstance(n_paths, bool) or n_paths < 1:
        raise ConfigInvalidError("ensemble.n_paths: must be a positive integer")
    master_seed = ed["master_seed"]
    if (
        not isinstance(master_seed, int)
        or isinstance(master_seed, bool)
        or not 0 <= master_seed < 2**64
    ):
        raise ConfigInvalidError("ensemble.master_seed: must be an integer in [0, 2**64)")

    workers = raw.get("workers", 1)
    if not isinstance(workers, int) or isinstance(workers, bool) or workers < 1:
        raise ConfigInvalidError("workers: must be a positive integer")

    od = raw.get("outputs", {})
    _check_keys(od, {"directory", "formats"}, set(), "outputs")
    out_dir = od.get("directory", "out")
    if not isinstance(out_dir, str) or not out_dir:
        raise ConfigInvalidError("outputs.directory: must be a nonempty string")
    formats = od.get("formats", ["csv", "json"])
    if not isinstance(formats, list) or not formats or any(f not in FORMATS for f in formats):
        raise ConfigInvalidError(f"outputs.formats: entries must be among {list(FORMATS)}")

    raw_estimators = raw.get("estimators", [])
    if not isinstance(raw_estimators, list):
        raise ConfigInvalidError("estimators: expected a list")
    estimators = tuple(_estimator_from_dict(e, i) for i, e in enumerate(raw_estimators))
    seen: set = set()
    for i, req in enumerate(estimators):
        _validate_estimator_against_model(req, model)
        # artifacts are named by estimator (and moments by source): a repeat would overwrite
        key = (req.name, req.get("source"))
        if key in seen:
            also = f" for source {key[1]!r}" if key[1] else ""
            raise ConfigInvalidError(
                f"estimators[{i}]: a second {req.name!r} request{also} would overwrite the outputs"
                " of the first"
            )
        seen.add(key)

    return ExperimentConfig(
        schema_version=SCHEMA_VERSION,
        model=model,
        grid=grid,
        n_paths=n_paths,
        master_seed=master_seed,
        workers=workers,
        out_dir=out_dir,
        formats=tuple(formats),
        estimators=estimators,
    )


def read_config(path: "str | Path") -> object:
    """Parse a config file's JSON.

    A file that cannot be read as UTF-8 JSON (missing, a directory,
    undecodable or malformed) raises ConfigInvalidError.
    """
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigInvalidError(f"config {path} is not valid JSON: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigInvalidError(f"cannot read config {path}: {exc}") from exc


def load_config(path: "str | Path") -> ExperimentConfig:
    return config_from_dict(read_config(path))


def config_hash(cfg: ExperimentConfig) -> str:
    import hashlib

    canonical = json.dumps(cfg.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
