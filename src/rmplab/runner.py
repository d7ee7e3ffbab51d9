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
from typing import Callable

import numpy as np

from . import __version__
from .blocks import BLOCK_CELLS, DEFAULT_BLOCK_SIZE
from .config import EstimatorRequest, ExperimentConfig, config_hash
from .engine import (
    LinearModel,
    NonlinearModel,
    NonlinearSolution,
    PathEnsemble,
    RowSolve,
    _linear_rows,
    _solve_rows,
    solve_linear,
    solve_nonlinear,
    stationary_grid,
    stationary_horizon,
    stationary_sample,
)
from .errors import ConfigInvalidError, IOFailureError, RmplabError, WindowTooShortError
from .grid import TimeGrid, node_stride
from .metrics import (
    MIN_FIT_NODES,
    MomentCurves,
    ensemble_moment_curves,
    gamma_p,
    jensen_check,
    linear_moment_curves,
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
    BatchSums,
    _green_kubo_lags,
    b_h_grid,
    b_h_replicates,
    b_h_seeds,
    condition1_diagnostic,
    dt_fit_d,
    dt_fit_sums,
    green_kubo_d,
    green_kubo_sums,
    hill_estimator,
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
# Output nodes moments and converge keep when save_every is null.
MOMENT_NODES = 400


@dataclass(frozen=True)
class Rows:
    """Keyed rows a stage reads: label at stride on grid, for rows 0 .. n - 1 of seed's streams."""

    seed: int
    grid: TimeGrid
    n: int
    label: str
    stride: int

    def solve(self) -> RowSolve:
        """A held solve of these rows, with its own arrays for the label and the mask."""
        saved = np.empty((self.n, self.grid.n_steps // self.stride + 1))
        return RowSolve(
            self.grid, self.n, {self.label: self.stride}, {self.label: saved},
            np.empty(self.n, dtype=bool),
        )


def _loop_key(rows: Rows) -> object:
    """Rows with one key are solved in one block loop (engine._solve_rows).

    The H rows of one seed share their keyed normals.  A kernel keeping B
    needs every workspace slot, so B rows are solved alone, unless they
    ride on the transition curves' kernel of their seed and grid (do_beta).
    """
    return rows.seed if rows.label == "H" else rows


@dataclass
class RunState:
    """What one `run` carries from stage to stage.

    solved caches every solve by (label, output stride) for the length of
    the run: simulate, moments and converge all read X, and every stage
    asking for one label at one stride gets the one solve.  A nonlinear
    solve is kept as its NonlinearSolution, so simulate can report the
    substep count the solve chose.

    A linear run solves its model on its grid and seed in one state pass
    (state_pass), made by the first stage to read X, or by the beta stage
    when no stage before it does.  It holds X at that stage's stride, and
    feeds the zeta and Y of the same paths, kept at every node, to the
    sums of the beta stage's noise fits (fits: each fit, the label it
    reads and its sums, in report order), so the run draws and integrates
    that noise once.  The fits are set up before any stage runs, so an
    ensemble too small for their batches fails before any stage writes.
    They read no flag, so X's bytes and mask are those of a solve of X
    alone.  Every later solve of the run's grid, X at another stride
    included, is a solve of its own.
    Each held ensemble takes n_paths x n_saved x 8 bytes; moment curves
    reduce it in fixed 2,048-path groups, so their bytes do not depend on
    the block layout or --workers.  The beta stage holds no ensemble here:
    its moment curves reduce their solve a 2,048-path group at a time, and
    its noise fits hold their sums.

    planned lists the keyed rows the stages read off the run's grid
    (Rows): the stationary H of Hill and converge, and b_equals_h's B and
    H per replicate.  The first read of a Rows solves every planned Rows
    of its key in one block loop (_loop_key, engine._solve_rows): Hill,
    converge and replicate 0's H all read master_seed + 1, so each of
    their rows is drawn once, at the longest length.  Replicate 0's B
    reads master_seed on b_h_grid, which on C10 is the transition grid,
    so it rides on the beta stage's curve solve (do_beta), with B's own
    mask.  held keeps each solved Rows until its stage reads it, the
    horizon-only ones as one column, so a C10 run holds about 5,000
    floats of horizon samples between stages.  A run of fewer stages
    plans fewer rows and writes the same bytes.  The state is dropped when
    `run` returns, so nothing outlives a run.
    """

    cfg: ExperimentConfig
    out: Path
    fits: list[tuple[Callable, str, BatchSums]] = field(default_factory=list)
    planned: list[Rows] = field(default_factory=list)
    held: dict[Rows, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
    artifacts: list[str] = field(default_factory=list)
    flagged: dict[str, int] = field(default_factory=dict)
    verdicts: dict[str, str] = field(default_factory=dict)
    solved: dict[tuple[str, int], "PathEnsemble | NonlinearSolution"] = field(
        default_factory=dict
    )
    passed: bool = False

    def add(self, name: str) -> Path:
        self.artifacts.append(name)
        return self.out / name

    def solve(self, label: str, save_every: int) -> "PathEnsemble | NonlinearSolution":
        """The solve of label at output stride save_every, run once per run."""
        key = (label, save_every)
        if key not in self.solved:
            if label == "X" and not self.passed and isinstance(self.cfg.model, LinearModel):
                self.state_pass(save_every)
            else:
                self.solved[key] = _solve(self.cfg, label, save_every)
        return self.solved[key]

    def ensemble(self, label: str, save_every: int) -> PathEnsemble:
        """The ensemble of label at output stride save_every."""
        solved = self.solve(label, save_every)
        return solved.x if isinstance(solved, NonlinearSolution) else solved

    def noise_fits(self) -> list[tuple[Callable, str, BatchSums]]:
        """The noise fits, their labels and sums, fed every path by the state pass."""
        if self.fits and not self.passed:
            self.state_pass(None)
        return self.fits

    def rows(self, want: Rows) -> tuple[np.ndarray, np.ndarray]:
        """want's saved rows and mask, solved in one loop with the planned rows of its key."""
        if want not in self.held:
            cfg, key = self.cfg, _loop_key(want)
            solves = {
                r: r.solve()
                for r in dict.fromkeys([want, *self.planned])
                if _loop_key(r) == key and r not in self.held
            }
            for _ in _solve_rows(cfg.model, want.seed, list(solves.values()), cfg.workers):
                pass  # the rows land in the solves' own arrays
            self.keep(solves)
        return self.held.pop(want)

    def keep(self, solves: "dict[Rows, RowSolve]") -> None:
        """Hold the solved rows until their stage reads them: horizon-only rows as one column."""
        for r, solve in solves.items():
            values = solve.held[r.label]
            if r.stride == r.grid.n_steps:
                values = values[:, -1:].copy()
            self.held[r] = values, solve.flagged

    def state_pass(self, stride: "int | None") -> None:
        """Solve the linear model once: X at stride (none if None), the noise fed to the fits.

        X's rows are written straight into the held ensemble.  zeta and Y
        go to the fits' sums one group of DEFAULT_BLOCK_SIZE paths per
        worker at a time, in path order, so a group gives each worker a
        block on a 151-node grid, and they are never held whole; with no
        fit to feed, the pass is one group, as in solve_linear.  Their
        rows are those of a solve of zeta and Y alone at every node, and
        the sums are carried row by row, so the fits are those of the
        held noise ensembles.
        """
        cfg = self.cfg
        self.passed = True
        strides = {label: 1 for _, label, _ in self.fits}
        held = {}
        if stride is not None:
            strides["X"] = stride
            held["X"] = np.empty((cfg.n_paths, cfg.grid.n_steps // stride + 1))
        flags = []
        for values, flagged in _linear_rows(
            cfg.model, cfg.grid, cfg.master_seed, cfg.n_paths, strides=strides,
            workers=cfg.workers, group=DEFAULT_BLOCK_SIZE * cfg.workers if self.fits else None,
            held=held,
        ):
            for _, label, sums in self.fits:
                sums.add(values[label])
            flags.append(flagged.copy())
        if stride is not None:
            self.solved[("X", stride)] = PathEnsemble(
                grid=cfg.grid.subsampled(stride),
                label="X",
                values=held["X"],
                flagged=np.concatenate(flags),
                master_seed=cfg.master_seed,
            )


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
        horizon = float(req.get("horizon") or cfg.grid.horizon)
        fine, stride = transition_grid(cfg.model, horizon, save_every=req.get("save_every"))
        return fine.subsampled(stride), transition_window(horizon, window)
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
    """The moments stride, converge times and green_kubo's lag fit the run's grid.

    Checked before the fit windows, which subsample by the moments stride.
    A moments save_every must divide the grid steps (beta builds its own
    grid and rounds its step count up to a multiple of its save_every).
    Converge reads each time at the nearest saved node, so a time past the
    horizon would be read at the horizon; green_kubo's lag must span at
    least two steps and at most half the horizon (tail._green_kubo_lags).
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


def _noise_fits(cfg: ExperimentConfig) -> list[tuple[Callable, str, BatchSums]]:
    """The beta stage's noise fits: each fit, the label it reads and its sums, in report order."""
    return [
        (green_kubo_d, "zeta", green_kubo_sums(cfg.grid, float(req.get("window")), cfg.n_paths))
        for req in _reqs(cfg, "green_kubo")
    ] + [
        (dt_fit_d, "Y", dt_fit_sums(cfg.grid, (float(lo), float(hi)), cfg.n_paths))
        for lo, hi in (req.get("window") for req in _reqs(cfg, "dt_fit"))
    ]


def _stationary_rows(cfg: ExperimentConfig, req: EstimatorRequest) -> tuple[float, Rows]:
    """The horizon and stationary H rows of a hill or converge request.

    Hill keeps H at the stride of its truncation bound, converge at the
    horizon alone; both read master_seed + 1.
    """
    t_star = req.get("t_star")
    if t_star is None and req.name == "hill":
        t_star = stationary_horizon(cfg.model, float(req.get("p_max")))
    t_star = float(t_star) if t_star is not None else 1.5 * cfg.grid.horizon
    grid, stride = stationary_grid(t_star)
    stride = stride if req.name == "hill" else grid.n_steps
    return t_star, Rows(cfg.master_seed + 1, grid, int(req.get("n") or cfg.n_paths), "H", stride)


def _b_h_rows(cfg: ExperimentConfig, req: EstimatorRequest, seed: int, label: str) -> Rows:
    """The rows of a b_equals_h sample of label from seed: its horizon on b_h_grid."""
    grid = b_h_grid(cfg.model, float(req.get("t") or cfg.grid.horizon))
    return Rows(seed, grid, int(req.get("n") or cfg.n_paths), label, grid.n_steps)


def _planned_rows(cfg: ExperimentConfig, groups: "tuple[str, ...]") -> list[Rows]:
    """The keyed rows of the stationary samples and of b_equals_h that the run's stages read."""
    if not isinstance(cfg.model, LinearModel):
        return []
    planned = []
    if "beta" in groups:
        planned += [_stationary_rows(cfg, req)[1] for req in _reqs(cfg, "hill")]
    if "verify" in groups:
        for req in _reqs(cfg, "b_equals_h"):
            for seeds in b_h_seeds(cfg.master_seed, int(req.get("replicates"))):
                planned += [_b_h_rows(cfg, req, seed, label) for seed, label in zip(seeds, "BH")]
    if "converge" in groups:
        planned += [_stationary_rows(cfg, req)[1] for req in _reqs(cfg, "converge")]
    return planned


def _solve(
    cfg: ExperimentConfig, label: str, save_every: int
) -> "PathEnsemble | NonlinearSolution":
    problem = (cfg.model, cfg.grid, cfg.master_seed, cfg.n_paths)
    if isinstance(cfg.model, NonlinearModel):  # config admits only X here
        return solve_nonlinear(*problem, save_every=save_every, workers=cfg.workers)
    return solve_linear(*problem, (label,), save_every=save_every, workers=cfg.workers)[label]


def do_simulate(state: RunState) -> None:
    cfg = state.cfg
    stride = node_stride(cfg.grid.n_steps, 500)
    solved, ens = state.solve("X", stride), state.ensemble("X", stride)
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
        if isinstance(solved, NonlinearSolution):
            record.update(
                substeps=solved.substeps, step_bias=solved.step_bias, mc_se=solved.mc_se
            )
        write_json(state.add("simulate.json"), record)


def _curves_for(state: RunState, req: EstimatorRequest) -> MomentCurves:
    ensemble = state.ensemble(req.get("source"), moments_stride(req, state.cfg.grid))
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
        horizon = float(req.get("horizon") or cfg.grid.horizon)
        window = req.get("window")
        if window is not None:
            window = (float(window[0]), float(window[1]))
        grid, stride = transition_grid(model, horizon, save_every=req.get("save_every"))
        riders = {
            r: r.solve()
            for r in state.planned
            if (r.seed, r.grid, r.label) == (cfg.master_seed, grid, "B") and r.n <= cfg.n_paths
        }
        curves = linear_moment_curves(
            model,
            grid,
            cfg.master_seed,
            cfg.n_paths,
            sorted(float(p) for p in req.get("p_grid")),
            save_every=stride,
            workers=cfg.workers,
            riders=tuple(riders.values()),
        )
        state.keep(riders)
        window = transition_window(horizon, window)
        report = moment_transition(curves, window, analytic=model.beta_c)
        out["moment_transition"] = _report_to_dict(report)

    for req in _reqs(cfg, "hill"):
        t_star, rows = _stationary_rows(cfg, req)
        sample = stationary_sample(
            model, t_star, rows.n, rows.seed, p_max=float(req.get("p_max")),
            workers=cfg.workers, rows=state.rows(rows),
        )
        k = req.get("k")
        # Heavy forcing sets the stationary tail when its index is the smaller
        # (Breiman); otherwise the multiplicative (Kesten) tail does.
        analytic = min(model.beta_c, tail_index(model.additive))
        report = hill_estimator(sample.values, None if k is None else int(k), analytic=analytic)
        out["hill"] = _report_to_dict(report)
        out["hill"]["t_star"] = t_star
        out["hill"]["truncation_bound"] = sample.truncation_bound

    for fit, _, sums in state.noise_fits():
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
        t = float(req.get("t") or cfg.grid.horizon)
        n = int(req.get("n") or cfg.n_paths)
        replicates = int(req.get("replicates"))
        level = float(req.get("level"))

        def sample(seed: int, label: str) -> np.ndarray:
            values, flagged = state.rows(_b_h_rows(cfg, req, seed, label))
            return values[~flagged, -1]

        reports = b_h_replicates(
            model, t, n, replicates, cfg.master_seed, level=level, workers=cfg.workers,
            sample=sample,
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
        x = state.ensemble("X", node_stride(cfg.grid.n_steps, MOMENT_NODES))
        grid_times = x.grid.times
        node_idx = [int(np.argmin(np.abs(grid_times - t))) for t in times]
        snap_times = grid_times[node_idx]
        ok = ~x.flagged
        sample_sets = [x.values[ok, j] for j in node_idx]

        t_star, rows = _stationary_rows(cfg, req)
        stat = stationary_sample(
            model, t_star, rows.n, rows.seed, workers=cfg.workers, rows=state.rows(rows)
        )

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
    state = RunState(
        cfg=cfg,
        out=out,
        fits=_noise_fits(cfg) if "beta" in groups else [],
        planned=_planned_rows(cfg, groups),
    )

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
