"""Experiment pipeline: turn a validated config into artifacts on disk.

Each stage writes deterministic artifacts (no timestamps, stable float
formatting, fixed reduction order), so re-running the same config gives
byte-identical files regardless of worker count.  The manifest carries
the config hash and artifact checksums.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .config import EstimatorRequest, ExperimentConfig, config_hash
from .engine import (
    LinearModel,
    NonlinearModel,
    PathEnsemble,
    integrate_y,
    solve_linear,
    solve_nonlinear,
    stationary_horizon,
    stationary_sample,
)
from .errors import IOFailureError, RmplabError
from .metrics import (
    MomentCurves,
    ensemble_moment_curves,
    gamma_p,
    jensen_check,
    linear_moment_curves,  # noqa: F401  (rmpbench traces it here)
    quasi_triangle_check,
)
from .noise import sample_block  # noqa: F401  (rmpbench traces it here)
from .noise import diffusion_constant, tail_index
from .rng import ROLE_GENERIC, path_stream
from .storage import (
    build_manifest,
    write_convergence_csv,
    write_ensemble_binary,
    write_ensemble_csv,
    write_json,
    write_moment_csv,
    write_plotdata,
)
from .tail import (
    b_h_replicates,
    condition1_diagnostic,
    dt_fit_d,
    green_kubo_d,
    hill_estimator,
    moment_transition,
)
from .weak import convergence_diagnostic

# Pipeline stage -> the estimators it runs, in run order.
STAGES: dict[str, tuple[str, ...]] = {
    "simulate": (),
    "moments": ("moments",),
    "beta": ("beta", "hill", "green_kubo", "dt_fit"),
    "verify": ("condition1", "b_equals_h", "inequalities"),
    "converge": ("converge",),
}
GROUPS = tuple(STAGES)


@dataclass
class RunState:
    """What one `run` carries from stage to stage.

    ensembles caches every solved ensemble by (label, output stride) for
    the length of the run: simulate, moments and converge all read X, and
    every stage asking for one label at one stride gets the one solve.
    Each held ensemble takes n_paths x n_saved x 8 bytes; moment curves
    reduce it in fixed 2,048-path groups, so their bytes do not depend on
    the block layout or --workers.  The state is dropped when `run`
    returns, so nothing outlives a run.
    """

    cfg: ExperimentConfig
    out: Path
    artifacts: list[str] = field(default_factory=list)
    flagged: dict[str, int] = field(default_factory=dict)
    verdicts: dict[str, str] = field(default_factory=dict)
    ensembles: dict[tuple[str, int], PathEnsemble] = field(default_factory=dict)

    def add(self, name: str) -> Path:
        self.artifacts.append(name)
        return self.out / name

    def ensemble(self, label: str, save_every: int) -> PathEnsemble:
        """The ensemble of label at output stride save_every, solved once per run."""
        key = (label, save_every)
        if key not in self.ensembles:
            self.ensembles[key] = _solve_ensemble(self.cfg, label, save_every)
        return self.ensembles[key]


def _stride(n_steps: int, target_nodes: int) -> int:
    s = max(1, n_steps // target_nodes)
    while n_steps % s:
        s -= 1
    return s


def _reqs(cfg: ExperimentConfig, *names: str) -> list[EstimatorRequest]:
    return [r for r in cfg.estimators if r.name in names]


def _solve_ensemble(cfg: ExperimentConfig, label: str, save_every: int) -> PathEnsemble:
    problem = (cfg.model, cfg.grid, cfg.master_seed, cfg.n_paths)
    if isinstance(cfg.model, NonlinearModel):
        if label != "X":
            raise RmplabError("nonlinear models only expose the state process")
        return solve_nonlinear(*problem, save_every=save_every, workers=cfg.workers).x
    return solve_linear(*problem, (label,), save_every=save_every, workers=cfg.workers)[label]


def do_simulate(state: RunState) -> None:
    cfg = state.cfg
    ens = state.ensemble("X", _stride(cfg.grid.n_steps, 500))
    state.flagged["simulate"] = ens.n_flagged
    if "csv" in cfg.formats:
        write_ensemble_csv(state.add("ensemble_X.csv"), ens)
    if "binary" in cfg.formats:
        write_ensemble_binary(state.add("ensemble_X.bin"), ens)
    if "json" in cfg.formats:
        write_json(
            state.add("simulate.json"),
            {
                "label": ens.label,
                "n_paths": ens.n_paths,
                "n_flagged": ens.n_flagged,
                "dt": ens.grid.dt,
                "t_max": ens.grid.horizon,
                "master_seed": ens.master_seed,
            },
        )


def _curves_for(state: RunState, req: EstimatorRequest) -> MomentCurves:
    save_every = req.get("save_every") or _stride(state.cfg.grid.n_steps, 400)
    ensemble = state.ensemble(req.get("source"), int(save_every))
    return ensemble_moment_curves(ensemble, [float(p) for p in req.get("p")])


def do_moments(state: RunState) -> None:
    cfg = state.cfg
    for req in _reqs(cfg, "moments"):
        curves = _curves_for(state, req)
        name = f"moments_{curves.source}"
        state.flagged[name] = curves.excluded
        if "csv" in cfg.formats:
            rows = [
                (t, p, curves.value[i, j], curves.std_err[i, j], curves.n, curves.excluded)
                for i, p in enumerate(curves.p_values)
                for j, t in enumerate(curves.times)
            ]
            write_moment_csv(state.add(f"{name}.csv"), rows)
        if "plotdata" in cfg.formats:
            cols = {"t": curves.times}
            cols.update({f"p{p}": curves.value[i] for i, p in enumerate(curves.p_values)})
            write_plotdata(
                state.add(f"{name}.dat"), cols, stub_path=state.add(f"plot_{name}.py")
            )
        if "json" in cfg.formats:
            fits = {}
            window = req.get("window")
            if window is not None:
                additive = getattr(cfg.model, "additive", None)
                decaying = curves.source == "A" or (
                    curves.source == "X" and additive is not None and additive.kind == "zero"
                )
                for p in curves.p_values:
                    predicted = None
                    try:
                        if decaying:
                            predicted = gamma_p(
                                cfg.model.a, diffusion_constant(cfg.model.multiplicative), p
                            )
                    except RmplabError:
                        pass
                    fit = curves.fit(p, (float(window[0]), float(window[1])), predicted=predicted)
                    fits[str(p)] = {
                        "slope": fit.slope,
                        "slope_std_err": fit.slope_std_err,
                        "r_squared": fit.r_squared,
                        "predicted": fit.predicted,
                        "window": list(fit.window),
                    }
            write_json(
                state.add(f"{name}.json"),
                {
                    "source": curves.source,
                    "p_values": list(curves.p_values),
                    "n": curves.n,
                    "excluded": curves.excluded,
                    "fits": fits,
                },
            )


def _report_to_dict(report) -> dict:
    return {
        "method": report.method,
        "estimate": report.estimate,
        "ci": [report.ci_low, report.ci_high],
        "analytic": report.analytic,
        "n_effective": report.n_effective,
        "flags": list(report.flags),
        "details": report.details,
    }


def do_beta(state: RunState) -> None:
    cfg = state.cfg
    model = cfg.model
    if not isinstance(model, LinearModel):
        raise RmplabError("exponent estimation is defined for the linear model")
    out: dict = {}
    d_analytic = diffusion_constant(model.multiplicative)

    for req in _reqs(cfg, "beta"):
        horizon = float(req.get("horizon") or cfg.grid.horizon)
        window = req.get("window")
        report = moment_transition(
            model,
            [float(p) for p in req.get("p_grid")],
            horizon,
            cfg.n_paths,
            cfg.master_seed,
            window=None if window is None else (float(window[0]), float(window[1])),
            save_every=req.get("save_every"),
            workers=cfg.workers,
        )
        out["moment_transition"] = _report_to_dict(report)

    for req in _reqs(cfg, "hill"):
        p_max = float(req.get("p_max"))
        t_star = req.get("t_star")
        t_star = float(t_star) if t_star is not None else stationary_horizon(model, p_max)
        n = int(req.get("n") or cfg.n_paths)
        sample = stationary_sample(
            model, t_star, n, cfg.master_seed + 1, p_max=p_max, workers=cfg.workers
        )
        k = req.get("k")
        # Heavy forcing sets the stationary tail when its index is the smaller
        # (Breiman); otherwise the multiplicative (Kesten) tail does.
        analytic = min(model.beta_c, tail_index(model.additive))
        report = hill_estimator(sample.values, None if k is None else int(k), analytic=analytic)
        out["hill"] = _report_to_dict(report)
        out["hill"]["t_star"] = t_star
        out["hill"]["truncation_bound"] = sample.truncation_bound

    gk_reqs = _reqs(cfg, "green_kubo")
    dt_reqs = _reqs(cfg, "dt_fit")
    if gk_reqs or dt_reqs:
        zeta_vals = solve_linear(
            model, cfg.grid, cfg.master_seed, cfg.n_paths, ("zeta",), workers=cfg.workers
        )["zeta"]
        for req in gk_reqs:
            report = green_kubo_d(zeta_vals, float(req.get("window")), analytic=d_analytic)
            out["green_kubo"] = _report_to_dict(report)
        for req in dt_reqs:
            window = req.get("window")
            y = integrate_y(zeta_vals)
            report = dt_fit_d(
                y, (float(window[0]), float(window[1])), analytic=d_analytic
            )
            out["dt_fit"] = _report_to_dict(report)

    if out:
        write_json(state.add("beta.json"), out)


def do_verify(state: RunState) -> None:
    cfg = state.cfg
    model = cfg.model
    out: dict = {}

    for req in _reqs(cfg, "condition1"):
        t_max = float(req.get("t_max"))
        nodes = int(req.get("nodes"))
        budget = float(req.get("ratio_budget"))
        mc_n = int(req.get("mc_n"))
        ts = np.linspace(0.0, t_max, nodes)
        entries = []
        all_bounded = True
        for p in req.get("p"):
            rep = condition1_diagnostic(
                model.multiplicative,
                float(p),
                ts,
                mc_n,
                master_seed=cfg.master_seed,
                ratio_budget=budget,
            )
            all_bounded &= rep.passed
            entries.append(
                {
                    "p": rep.p,
                    "ratio": rep.ratio,
                    "verdict": rep.verdict,
                    "mc_consistent": rep.mc_consistent,
                    "mc_max_z": rep.mc_max_z,
                }
            )
        out["condition1"] = {"budget": budget, "t_max": t_max, "curves": entries}
        state.verdicts["condition1"] = "PASS" if all_bounded else "FAIL"

    for req in _reqs(cfg, "b_equals_h"):
        if not isinstance(model, LinearModel):
            raise RmplabError("the distribution identity applies to the linear model")
        t = float(req.get("t") or cfg.grid.horizon)
        n = int(req.get("n") or cfg.n_paths)
        replicates = int(req.get("replicates"))
        level = float(req.get("level"))
        reports = b_h_replicates(
            model, t, n, replicates, cfg.master_seed, level=level, workers=cfg.workers
        )
        n_pass = sum(r.passed for r in reports)
        ok = n_pass >= int(np.ceil(0.9 * replicates))
        out["b_equals_h"] = {
            "t": t,
            "n_per_side": n,
            "replicates": replicates,
            "level": level,
            "passes": n_pass,
            "p_values": [r.p_value for r in reports],
        }
        state.verdicts["b_equals_h"] = "PASS" if ok else "FAIL"

    for req in _reqs(cfg, "inequalities"):
        trials = int(req.get("trials"))
        n = int(req.get("n"))
        ps = [float(p) for p in req.get("p")]
        failures = _inequality_trials(cfg.master_seed, trials, n, ps)
        out["inequalities"] = {"trials": trials, "n": n, "p": ps, "failures": failures}
        state.verdicts["inequalities"] = "PASS" if failures == 0 else "FAIL"

    if out:
        write_json(state.add("verify.json"), out)


def _inequality_trials(master_seed: int, trials: int, n: int, ps: list[float]) -> int:
    """Randomized checks of the two measure-level inequalities."""
    failures = 0
    for trial in range(trials):
        g = path_stream(master_seed, trial, ROLE_GENERIC)
        heavy = trial % 2 == 1
        if heavy:
            u = np.exp(g.standard_normal(n))
            v = np.exp(g.standard_normal(n))
            f = np.exp(g.standard_normal(n)) * g.choice([-1.0, 1.0], n)
            h = np.exp(g.standard_normal(n)) * g.choice([-1.0, 1.0], n)
        else:
            u = np.abs(g.standard_normal(n))
            v = np.abs(g.standard_normal(n))
            f = g.standard_normal(n)
            h = g.standard_normal(n)
        alpha = float(g.uniform(-3.0, 3.0))
        for p in ps:
            if p <= 1.0 and not jensen_check(u, v, p).passed:
                failures += 1
            if not quasi_triangle_check(f, h, alpha, p).passed:
                failures += 1
    return failures


def do_converge(state: RunState) -> None:
    cfg = state.cfg
    model = cfg.model
    if not isinstance(model, LinearModel):
        raise RmplabError("convergence diagnostics are defined for the linear model")
    d = diffusion_constant(model.multiplicative)
    out: dict = {}
    for req in _reqs(cfg, "converge"):
        functions = req.get("functions")
        times = np.array([float(t) for t in req.get("times")])
        x = state.ensemble("X", _stride(cfg.grid.n_steps, 400))
        grid_times = x.grid.times
        node_idx = [int(np.argmin(np.abs(grid_times - t))) for t in times]
        snap_times = grid_times[node_idx]
        ok = ~x.flagged
        sample_sets = [x.values[ok, j] for j in node_idx]

        t_star = req.get("t_star")
        t_star = float(t_star) if t_star is not None else 1.5 * cfg.grid.horizon
        n_st = int(req.get("n") or cfg.n_paths)
        stat = stationary_sample(model, t_star, n_st, cfg.master_seed + 1, workers=cfg.workers)

        reports = []
        for i, f in enumerate(functions):
            rep = convergence_diagnostic(
                snap_times,
                sample_sets,
                stat.values,
                f,
                model.a,
                d,
                mode=req.get("mode"),
            )
            reports.append(rep)
            if "csv" in cfg.formats:
                fitted = rep.rate_fit.slope if rep.rate_fit is not None else float("nan")
                predicted = rep.predicted_rate if rep.predicted_rate is not None else float("nan")
                rows = [
                    (t, v, se, dlt, fitted, predicted)
                    for t, v, se, dlt in zip(rep.times, rep.values, rep.std_errs, rep.delta)
                ]
                write_convergence_csv(state.add(f"converge_{i}.csv"), rows)
        out["functions"] = [
            {
                "kind": f.kind,
                "gamma_class": f.gamma_class,
                "mode": rep.mode,
                "verdict": rep.verdict,
                "limit": rep.limit,
                "fitted_rate": rep.rate_fit.slope if rep.rate_fit else None,
                "predicted_rate": rep.predicted_rate,
                "flags": list(rep.flags),
            }
            for f, rep in zip(functions, reports)
        ]
    if out:
        write_json(state.add("converge.json"), out)


def _contains_failure(node: object) -> bool:
    # UNBOUNDED only ever labels a boundedness check, so it always means failure;
    # DIVERGING can be the expected outcome and is judged by its own gate.
    if isinstance(node, dict):
        if node.get("verdict") in ("FAIL", "UNBOUNDED"):
            return True
        return any(_contains_failure(v) for v in node.values())
    if isinstance(node, list):
        return any(_contains_failure(v) for v in node)
    return False


def do_report(out_dir: "str | Path") -> dict:
    """Aggregate the JSON summaries already present in an output directory."""
    import json as _json

    out = Path(out_dir)
    merged: dict = {}
    for name in sorted(p.name for p in out.glob("*.json")):
        if name in ("manifest.json", "report.json"):
            continue
        with open(out / name, "r", encoding="utf-8") as fh:
            merged[name] = _json.load(fh)
    verdicts: dict = {}
    manifest_path = out / "manifest.json"
    if manifest_path.is_file():
        with open(manifest_path, "r", encoding="utf-8") as fh:
            verdicts = _json.load(fh).get("verdicts", {})
    failed = "FAIL" in verdicts.values() or _contains_failure(merged)
    merged["verdicts"] = verdicts
    merged["overall"] = "FAIL" if failed else "PASS"
    return merged


def run(
    cfg: ExperimentConfig,
    *,
    groups: "tuple[str, ...]" = GROUPS,
    out_dir: "str | Path | None" = None,
    subcommand: str = "run",
) -> tuple[dict, int]:
    """Execute the configured pipeline; returns (manifest, exit_code)."""
    t0 = time.monotonic()
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IOFailureError(f"cannot create output directory {out}: {exc}") from exc
    state = RunState(cfg=cfg, out=out)

    if "simulate" in groups:
        do_simulate(state)
    if "moments" in groups:
        do_moments(state)
    if "beta" in groups:
        do_beta(state)
    if "verify" in groups:
        do_verify(state)
    if "converge" in groups:
        do_converge(state)

    verdict_values = set(state.verdicts.values())
    exit_code = 1 if "FAIL" in verdict_values else 0

    manifest = build_manifest(
        out,
        state.artifacts,
        config_hash=config_hash(cfg),
        wall_clock_s=time.monotonic() - t0,
        subcommand=subcommand,
        version=__version__,
        flagged=state.flagged,
        verdicts=state.verdicts,
    )
    write_json(out / "manifest.json", manifest)
    return manifest, exit_code
