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
from .blocks import BLOCK_CELLS
from .config import EstimatorRequest, ExperimentConfig, config_hash
from .engine import (
    LinearModel,
    NonlinearModel,
    NonlinearSolution,
    PathEnsemble,
    Plan,
    Rows,
    Sink,
    solve_nonlinear,
    stationary_horizon,
    stationary_rows,
    stationary_sample,
)
from .errors import (
    ConfigInvalidError,
    InsufficientTailError,
    IOFailureError,
    RmplabError,
    WindowTooShortError,
)
from .grid import TimeGrid, node_stride
from .metrics import (
    MIN_FIT_NODES,
    CurveSums,
    MomentCurves,
    ensemble_moment_curves,
    gamma_p,
    jensen_check,
    quasi_triangle_check,
)
from .metrics import linear_moment_curves  # noqa: F401  (rmpbench traces it here)
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
    _green_kubo_lags,
    b_h_replicates,
    b_h_rows,
    condition1_diagnostic,
    dt_fit_d,
    dt_fit_sums,
    green_kubo_d,
    green_kubo_sums,
    hill_estimator,
    hill_k,
    moment_transition,
    transition_grid,
    transition_window,
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
# Output nodes simulate keeps, and those moments and converge keep when save_every is null.
SIMULATE_NODES = 500
MOMENT_NODES = 400


@dataclass
class RunState:
    """What one `run` carries from stage to stage.

    plan is the engine.Plan of every linear solve the run's stages read
    (_planned_rows): its held rows for a stage's read, or the sums it
    feeds, the noise fits' BatchSums or the transition curves' CurveSums.
    The sinks are made before any stage runs, so an ensemble too small for
    the fits' batches fails before any stage writes.  Each stage names the
    Rows it reads with the helper _planned_rows plans them by.  held keeps
    the nonlinear solve of each X stride (nonlinear) for the run, so
    simulate can report its substep count.  A run of fewer stages plans
    fewer rows and writes the same bytes.  The state is dropped when `run`
    returns, so nothing outlives a run.
    """

    cfg: ExperimentConfig
    out: Path
    plan: Plan
    held: "dict[Rows, NonlinearSolution]" = field(default_factory=dict)
    artifacts: list[str] = field(default_factory=list)
    flagged: dict[str, int] = field(default_factory=dict)
    verdicts: dict[str, str] = field(default_factory=dict)

    def add(self, name: str) -> Path:
        self.artifacts.append(name)
        return self.out / name

    def ensemble(self, want: Rows) -> PathEnsemble:
        """One stage's read of want, rows of the run's grid, as a path ensemble."""
        cfg = self.cfg
        if isinstance(cfg.model, NonlinearModel):  # config admits only X here
            return self.nonlinear(want).x
        values, flagged = self.plan.rows(want)
        return PathEnsemble(
            cfg.grid.subsampled(want.stride), want.label, values, flagged, cfg.master_seed
        )

    def nonlinear(self, want: Rows) -> NonlinearSolution:
        """The nonlinear solve of X at want's stride, made once per run."""
        cfg = self.cfg
        if want not in self.held:
            self.held[want] = solve_nonlinear(
                cfg.model, cfg.grid, cfg.master_seed, cfg.n_paths,
                save_every=want.stride, workers=cfg.workers,
            )
        return self.held[want]


def _reqs(cfg: ExperimentConfig, *names: str) -> list[EstimatorRequest]:
    return [r for r in cfg.estimators if r.name in names]


def moments_stride(req: EstimatorRequest, grid: TimeGrid) -> int:
    """Output stride of a moments request: its save_every, else about MOMENT_NODES nodes."""
    return int(req.get("save_every") or node_stride(grid.n_steps, MOMENT_NODES))


def _fit_window(
    req: EstimatorRequest, cfg: ExperimentConfig
) -> "tuple[TimeGrid, tuple[float, float]] | None":
    """The output grid and window on which req's stage fits, or None if it fits none."""
    window = req.get("window")
    if req.name == "moments" and window is not None and "json" in cfg.formats:
        return cfg.grid.subsampled(moments_stride(req, cfg.grid)), window
    if req.name == "beta":
        horizon, rows = _transition_rows(cfg, req)
        return rows.grid.subsampled(rows.stride), transition_window(horizon, window)
    if req.name == "dt_fit":
        return cfg.grid, window  # the integrated noise on the configured grid
    return None


def check_fit_windows(cfg: ExperimentConfig, names: "tuple[str, ...]") -> None:
    """Each fit window of the named estimators covers MIN_FIT_NODES nodes of its stage's grid.

    Checked for the estimators a run will use, before it writes anything,
    and only where the stage fits: a config that also serves a shorter
    simulate-only or CSV-only run (--t-max) stays valid.  A window reaching
    partly past the horizon is fitted on the nodes that exist.
    """
    for req in cfg.estimators:
        fit = _fit_window(req, cfg) if req.name in names else None
        if fit is None:
            continue
        grid, (lo, hi) = fit
        times = grid.times
        nodes = int(((times >= lo) & (times <= hi)).sum())
        if nodes < MIN_FIT_NODES:
            raise WindowTooShortError(
                f"{req.name}.window: [{lo}, {hi}] covers {nodes} nodes of its stage's grid"
                f" (step {times[1]:.6g}, horizon {times[-1]:.6g}), need {MIN_FIT_NODES}"
            )


def _check_reach(cfg: ExperimentConfig, names: "tuple[str, ...]") -> None:
    """The moments stride, converge times, green_kubo's lag and Hill's k fit the run.

    Checked before the fit windows, which subsample by the moments stride.
    A moments save_every must divide the grid steps (beta builds its own
    grid and rounds its step count up to a multiple of its save_every).
    Converge reads each time at the nearest saved node, so a time past the
    horizon would be read at the horizon; green_kubo's lag must span at
    least two steps and at most half the horizon (tail._green_kubo_lags).
    Hill's k must be usable on its n paths (tail.hill_k); flagged paths
    can still shrink the sample, which hill_estimator refuses at run time.
    """
    for req in cfg.estimators:
        if req.name not in names:
            continue
        save_every = req.get("save_every")
        if req.name == "moments" and save_every is not None and cfg.grid.n_steps % save_every:
            raise ConfigInvalidError(
                f"moments.save_every: {save_every} does not divide the {cfg.grid.n_steps}"
                " grid steps"
            )
        if req.name == "converge" and max(req.get("times")) > cfg.grid.horizon + 1e-12:
            raise ConfigInvalidError(
                f"converge.times: {max(req.get('times'))} is past the grid horizon"
                f" {cfg.grid.horizon:.6g}"
            )
        if req.name == "green_kubo":
            _green_kubo_lags(float(req.get("window")), cfg.grid)
        if req.name == "hill":
            try:
                hill_k(req.get("n") or cfg.n_paths, req.get("k"))
            except InsufficientTailError as exc:
                raise ConfigInvalidError(f"hill: {exc}") from exc


def _run_rows(cfg: ExperimentConfig, label: str, stride: int) -> Rows:
    """label's rows at stride on the run's own grid and seed: every path."""
    return Rows(cfg.master_seed, cfg.grid, cfg.n_paths, label, stride)


def _simulate_rows(cfg: ExperimentConfig) -> Rows:
    """The X rows simulate writes: about SIMULATE_NODES nodes of the run's grid."""
    return _run_rows(cfg, "X", node_stride(cfg.grid.n_steps, SIMULATE_NODES))


def _moments_rows(cfg: ExperimentConfig, req: EstimatorRequest) -> Rows:
    """The rows of a moments request's source at its output stride."""
    return _run_rows(cfg, req.get("source"), moments_stride(req, cfg.grid))


def _noise_rows(cfg: ExperimentConfig, req: EstimatorRequest) -> Rows:
    """The rows a green_kubo (zeta) or dt_fit (Y) request sums, at every node."""
    return _run_rows(cfg, "zeta" if req.name == "green_kubo" else "Y", 1)


def _converge_rows(cfg: ExperimentConfig) -> Rows:
    """The X rows converge reads its times from: about MOMENT_NODES nodes."""
    return _run_rows(cfg, "X", node_stride(cfg.grid.n_steps, MOMENT_NODES))


def _transition_rows(cfg: ExperimentConfig, req: EstimatorRequest) -> tuple[float, Rows]:
    """The horizon of a beta request, and the X rows of its curves on transition_grid."""
    horizon = float(req.get("horizon") or cfg.grid.horizon)
    grid, stride = transition_grid(cfg.model, horizon, save_every=req.get("save_every"))
    return horizon, Rows(cfg.master_seed, grid, cfg.n_paths, "X", stride)


def _stationary_rows(cfg: ExperimentConfig, req: EstimatorRequest) -> tuple[float, Rows]:
    """The horizon and stationary H rows of a hill or converge request.

    Hill keeps H at the nodes of its truncation bound, converge at the
    horizon alone; both read master_seed + 1.
    """
    t_star = req.get("t_star")
    if t_star is None and req.name == "hill":
        t_star = stationary_horizon(cfg.model, float(req.get("p_max")))
    t_star = float(t_star) if t_star is not None else 1.5 * cfg.grid.horizon
    n = int(req.get("n") or cfg.n_paths)
    return t_star, stationary_rows(t_star, n, cfg.master_seed + 1, req.name == "hill")


def _b_h_args(cfg: ExperimentConfig, req: EstimatorRequest) -> tuple[float, int, int]:
    """The horizon, rows per side and replicates of a b_equals_h request."""
    t, n = float(req.get("t") or cfg.grid.horizon), int(req.get("n") or cfg.n_paths)
    return t, n, int(req.get("replicates"))


def _planned_rows(
    cfg: ExperimentConfig, groups: "tuple[str, ...]"
) -> "list[tuple[Rows, Sink | None]]":
    """Every linear solve the run's stages read, in stage order, with its consumer (Plan).

    The run's own grid comes first: X for simulate, moments' sources and
    the noise fits' zeta and Y at every node.  Then the transition curves'
    X, the stationary H of Hill and converge, b_equals_h's B and H per
    replicate and converge's X.
    """
    if not isinstance(cfg.model, LinearModel):
        return []
    planned: "list[tuple[Rows, Sink | None]]" = []
    if "simulate" in groups:
        planned.append((_simulate_rows(cfg), None))
    if "moments" in groups:
        planned += [(_moments_rows(cfg, req), None) for req in _reqs(cfg, "moments")]
    if "beta" in groups:
        for req in _reqs(cfg, "green_kubo"):
            sums = green_kubo_sums(cfg.grid, float(req.get("window")), cfg.n_paths)
            planned.append((_noise_rows(cfg, req), sums))
        for req in _reqs(cfg, "dt_fit"):
            lo, hi = req.get("window")
            sums = dt_fit_sums(cfg.grid, (float(lo), float(hi)), cfg.n_paths)
            planned.append((_noise_rows(cfg, req), sums))
        for req in _reqs(cfg, "beta"):
            rows = _transition_rows(cfg, req)[1]
            times = rows.grid.subsampled(rows.stride).times
            p_grid = sorted(float(p) for p in req.get("p_grid"))
            planned.append((rows, CurveSums("X", p_grid, times, rows.n, rows.seed, 0.0)))
        planned += [(_stationary_rows(cfg, req)[1], None) for req in _reqs(cfg, "hill")]
    if "verify" in groups:
        for req in _reqs(cfg, "b_equals_h"):
            pairs = b_h_rows(cfg.model, *_b_h_args(cfg, req), cfg.master_seed)
            planned += [(rows, None) for pair in pairs for rows in pair]
    if "converge" in groups:
        for req in _reqs(cfg, "converge"):
            planned += [(_converge_rows(cfg), None), (_stationary_rows(cfg, req)[1], None)]
    return planned


def do_simulate(state: RunState) -> None:
    cfg = state.cfg
    ens = state.ensemble(_simulate_rows(cfg))
    state.flagged["simulate"] = ens.n_flagged
    if "csv" in cfg.formats:
        write_ensemble_csv(state.add("ensemble_X.csv"), ens)
    if "binary" in cfg.formats:
        write_ensemble_binary(state.add("ensemble_X.bin"), ens)
    if "json" in cfg.formats:
        record = {
            "label": ens.label,
            "n_paths": ens.n_paths,
            "n_flagged": ens.n_flagged,
            "dt": ens.grid.dt,
            "t_max": ens.grid.horizon,
            "master_seed": ens.master_seed,
        }
        if isinstance(cfg.model, NonlinearModel):
            solved = state.nonlinear(_simulate_rows(cfg))
            record.update(
                substeps=solved.substeps, step_bias=solved.step_bias, mc_se=solved.mc_se
            )
        write_json(state.add("simulate.json"), record)


def _curves_for(state: RunState, req: EstimatorRequest) -> MomentCurves:
    ensemble = state.ensemble(_moments_rows(state.cfg, req))
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
    out: dict = {}
    d_analytic = diffusion_constant(model.multiplicative)

    for req in _reqs(cfg, "beta"):
        horizon, rows = _transition_rows(cfg, req)
        window = req.get("window")
        if window is not None:
            window = (float(window[0]), float(window[1]))
        window = transition_window(horizon, window)
        report = moment_transition(state.plan.fed(rows).curves(), window, analytic=model.beta_c)
        out["moment_transition"] = _report_to_dict(report)

    for req in _reqs(cfg, "hill"):
        t_star, rows = _stationary_rows(cfg, req)
        sample = stationary_sample(
            model, t_star, rows.n, rows.seed, p_max=float(req.get("p_max")), plan=state.plan
        )
        # Heavy forcing sets the stationary tail when its index is the smaller
        # (Breiman); otherwise the multiplicative (Kesten) tail does.
        analytic = min(model.beta_c, tail_index(model.additive))
        report = hill_estimator(sample.values, req.get("k"), analytic=analytic)
        out["hill"] = _report_to_dict(report)
        out["hill"]["t_star"] = t_star
        out["hill"]["truncation_bound"] = sample.truncation_bound

    for fit, name in ((green_kubo_d, "green_kubo"), (dt_fit_d, "dt_fit")):
        for req in _reqs(cfg, name):
            sums = state.plan.fed(_noise_rows(cfg, req))
            report = fit(sums, sums.window, analytic=d_analytic)
            out[report.method] = _report_to_dict(report)

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
        t, n, replicates = _b_h_args(cfg, req)
        level = float(req.get("level"))
        reports = b_h_replicates(
            model, t, n, replicates, cfg.master_seed, level=level, plan=state.plan
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


def _trial_samples(
    master_seed: int, trial: int, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]:
    """U, V, f, g and alpha of one inequality trial, from the trial's own stream.

    Odd trials are heavy (lognormal magnitudes), even ones Gaussian.
    """
    g = path_stream(master_seed, trial, ROLE_GENERIC)
    if trial % 2 == 1:
        u = np.exp(g.standard_normal(n))
        v = np.exp(g.standard_normal(n))
        f = np.exp(g.standard_normal(n)) * g.choice([-1.0, 1.0], n)
        h = np.exp(g.standard_normal(n)) * g.choice([-1.0, 1.0], n)
    else:
        u = np.abs(g.standard_normal(n))
        v = np.abs(g.standard_normal(n))
        f = g.standard_normal(n)
        h = g.standard_normal(n)
    return u, v, f, h, float(g.uniform(-3.0, 3.0))


def _inequality_trials(master_seed: int, trials: int, n: int, ps: list[float]) -> int:
    """Randomized checks of the two measure-level inequalities: the failures.

    The trials are stacked in fixed groups whose check temporaries, three
    n-atom rows per trial, stay within BLOCK_CELLS // 4 cells, and each
    check is called once per order and group on the group's rows; every
    row decides as its own 1-D call would.
    """
    group = max(1, BLOCK_CELLS // 4 // (3 * n))
    failures = 0
    for lo in range(0, trials, group):
        ids = range(lo, min(lo + group, trials))
        u, v, f, h = np.empty((4, len(ids), n))
        alpha = np.empty(len(ids))
        for row, trial in enumerate(ids):
            u[row], v[row], f[row], h[row], alpha[row] = _trial_samples(master_seed, trial, n)
        for p in ps:
            if p <= 1.0:
                failures += int(np.count_nonzero(~jensen_check(u, v, p).passed))
            failures += int(np.count_nonzero(~quasi_triangle_check(f, h, alpha, p).passed))
    return failures


def do_converge(state: RunState) -> None:
    cfg = state.cfg
    model = cfg.model
    d = diffusion_constant(model.multiplicative)
    out: dict = {}
    for req in _reqs(cfg, "converge"):
        functions = req.get("functions")
        times = np.array([float(t) for t in req.get("times")])
        x = state.ensemble(_converge_rows(cfg))
        grid_times = x.grid.times
        node_idx = [int(np.argmin(np.abs(grid_times - t))) for t in times]
        snap_times = grid_times[node_idx]
        ok = ~x.flagged
        sample_sets = [x.values[ok, j] for j in node_idx]

        t_star, rows = _stationary_rows(cfg, req)
        stat = stationary_sample(model, t_star, rows.n, rows.seed, plan=state.plan)

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
    names = tuple(name for g in groups for name in STAGES[g])
    _check_reach(cfg, names)
    check_fit_windows(cfg, names)
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IOFailureError(f"cannot create output directory {out}: {exc}") from exc
    state = RunState(cfg, out, Plan(cfg.model, cfg.workers, _planned_rows(cfg, groups)))

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
