"""Acceptance suite: ten end-to-end criteria, one test (and one
pass/fail line under -v) per criterion.

Every criterion runs against the OU benchmark with a=1 and D=1/2, so
the transition order is 2 and the closed forms
d(t) = t/2 - (1 - e^{-2t})/4 and gamma_p = min(1,p)(p/2 - 1) are exact.
Monte Carlo checks use one frozen master seed with pre-verified margin;
tolerances are fixed, not tuned per run.
"""
import time

import numpy as np
import pytest

from rmplab.blocks import block_ranges
from rmplab.config import config_from_dict
from rmplab.engine import (
    LinearModel,
    NonlinearModel,
    PathEnsemble,
    integrate_y,
    solve_linear,
    solve_nonlinear,
)
from rmplab.grid import TimeGrid
from rmplab.metrics import (
    ensemble_moment_curves,
    exact_propagator_quasi_norm,
    fit_rate,
    gamma_p,
    jensen_check,
    linear_moment_curves,
    quasi_triangle_check,
    resolvable_horizon,
)
from rmplab.noise import SHIPPED_GAUSSIAN_SPECS, NoiseSpec, sample_block
from rmplab.rng import ROLE_MULTIPLICATIVE
from rmplab.runner import run
from rmplab.tail import (
    b_h_replicates,
    condition1_diagnostic,
    moment_transition,
    transition_grid,
)
from held import dt_fit_of, green_kubo_of

MASTER_SEED = 20260825
OU = NoiseSpec.ou(1.0, 0.5)  # D = 1/2, so beta_c = 2 with a = 1


def d_closed(t: np.ndarray) -> np.ndarray:
    return 0.5 * t - 0.25 * (1.0 - np.exp(-2.0 * t))


def propagator_model() -> LinearModel:
    return LinearModel(a=1.0, x0=1.0, multiplicative=OU, additive=NoiseSpec.zero())


def test_c01_exponential_moment_oracle():
    """Path-MC E[exp(-Y_4/2)] matches exp(d(4)/4) within 3 SE, under 1 min."""
    t0 = time.monotonic()
    grid = TimeGrid(dt=0.005, n_steps=800)
    y = solve_linear(
        propagator_model(), grid, MASTER_SEED, 100_000, ("Y",), save_every=grid.n_steps
    )["Y"]
    w = np.exp(-0.5 * y.final_values[~y.flagged])
    estimate = float(w.mean())
    std_err = float(w.std(ddof=1) / np.sqrt(w.size))
    target = float(np.exp(0.25 * d_closed(np.array([4.0]))[0]))
    z = (estimate - target) / std_err
    elapsed = time.monotonic() - t0
    print(f"C1 exponential-moment oracle: est={estimate:.5f} target={target:.5f} "
          f"z={z:+.2f} ({elapsed:.0f}s)")
    assert abs(z) <= 3.0
    assert elapsed < 60.0


def test_c02_propagator_rate_law():
    """Fitted quasi-norm slopes match gamma_p within 10% for four orders."""
    t0 = time.monotonic()
    grid = TimeGrid(dt=0.01, n_steps=2000)
    curves = linear_moment_curves(
        propagator_model(), grid, MASTER_SEED, 50_000, (0.25, 0.5, 1.0),
        source="A", save_every=20,
    )
    lines = []
    for p in (0.25, 0.5, 1.0):
        # fit only where the order-p moment is finite-sample resolvable
        hi = min(20.0, resolvable_horizon(OU, p, 50_000, 20.0))
        fit = curves.fit(p, (5.0, hi))
        rate = gamma_p(1.0, 0.5, p)
        rel = abs(fit.slope - rate) / abs(rate)
        lines.append(f"p={p}: slope={fit.slope:+.4f} vs {rate:+.4f} ({100 * rel:.1f}%)")
        assert rel <= 0.10, lines[-1]
    # divergent side: p=3 via the exact Gaussian law of Y_t
    ts = np.linspace(5.0, 20.0, 31)
    exact = exact_propagator_quasi_norm(OU, 1.0, 3.0, ts)
    fit3 = fit_rate(ts, exact, (5.0, 20.0))
    rel3 = abs(fit3.slope - 0.5) / 0.5
    elapsed = time.monotonic() - t0
    print(f"C2 rate law: {'; '.join(lines)}; p=3 exact slope={fit3.slope:+.4f} "
          f"({100 * rel3:.1f}%) ({elapsed:.0f}s)")
    assert rel3 <= 0.10
    assert elapsed < 300.0


def test_c03_transition_order_recovery():
    """moment_transition on the forced model recovers 2.0 within 15%."""
    t0 = time.monotonic()
    model = LinearModel(
        a=1.0, x0=50.0, multiplicative=OU, additive=NoiseSpec.ou(0.5, 1.0)
    )
    grid, stride = transition_grid(model, 3.0, dt=0.01)
    curves = linear_moment_curves(
        model, grid, MASTER_SEED, 40_000, (1.0, 1.5, 2.0, 2.5, 3.0), save_every=stride
    )
    report = moment_transition(curves, (1.0, 3.0), analytic=model.beta_c)
    elapsed = time.monotonic() - t0
    print(f"C3 transition order: estimate={report.estimate:.3f} "
          f"ci=({report.ci_low:.3f}, {report.ci_high:.3f}) ({elapsed:.0f}s)")
    assert 1.7 <= report.estimate <= 2.3
    assert elapsed < 600.0


def test_c04_diffusion_estimators_agree():
    """Green-Kubo and variance-slope D on 1e4 paths: both near 1/2, mutually consistent."""
    grid = TimeGrid(dt=0.01, n_steps=1200)
    vals = np.concatenate(
        [sample_block(OU, grid, MASTER_SEED, idx, ROLE_MULTIPLICATIVE).T
         for idx in block_ranges(10_000, 2048)],
        axis=0,
    )
    zeta = PathEnsemble(grid=grid, label="zeta", values=vals,
                        flagged=np.zeros(10_000, dtype=bool), master_seed=MASTER_SEED)
    gk = green_kubo_of(zeta, 4.0, analytic=0.5)
    df = dt_fit_of(integrate_y(zeta), (4.0, 12.0), analytic=0.5)
    print(f"C4 diffusion constant: green_kubo={gk.estimate:.4f} "
          f"ci=({gk.ci_low:.3f}, {gk.ci_high:.3f}); dt_fit={df.estimate:.4f} "
          f"ci=({df.ci_low:.3f}, {df.ci_high:.3f})")
    assert 0.45 <= gk.estimate <= 0.55
    assert 0.45 <= df.estimate <= 0.55
    assert gk.ci_low <= df.estimate <= gk.ci_high
    assert df.ci_low <= gk.estimate <= df.ci_high


def test_c05_forced_response_time_reversal():
    """KS test of B_5 against H_5 (2e4 per side) passes in >= 9 of 10 replicates."""
    model = LinearModel(
        a=1.0, x0=1.0, multiplicative=OU, additive=NoiseSpec.ou(0.7, 0.8)
    )
    reports = b_h_replicates(model, 5.0, 20_000, 10, MASTER_SEED, dt=0.01, level=0.01)
    n_pass = sum(r.passed for r in reports)
    print(f"C5 time reversal: {n_pass}/10 KS passes at the 1% level, "
          f"p-values min={min(r.p_value for r in reports):.3f}")
    assert n_pass >= 9


def test_c06_finite_sample_inequalities():
    """Jensen and quasi-triangle checks: zero failures over 1000 random trials."""
    rng = np.random.default_rng(MASTER_SEED)
    failures = 0
    for trial in range(1000):
        if trial % 2 == 0:
            u, v = np.abs(rng.normal(size=256)), np.abs(rng.normal(size=256))
            f, g = rng.normal(size=256), rng.normal(size=256)
        else:
            u, v = rng.lognormal(sigma=2.0, size=256), rng.lognormal(sigma=2.0, size=256)
            f = rng.lognormal(sigma=2.0, size=256) - 1.0
            g = rng.lognormal(sigma=2.0, size=256) - 1.0
        alpha = float(rng.normal(scale=3.0))
        for p in (0.3, 0.7, 1.0, 2.0):
            if p <= 1.0 and not jensen_check(u, v, p).passed:
                failures += 1
            if not quasi_triangle_check(f, g, alpha, p).passed:
                failures += 1
    print(f"C6 inequalities: {failures} failures in 1000 trials x 4 orders")
    assert failures == 0


def test_c07_compensated_moment_boundedness():
    """r(t) ratio <= 1e3 on every shipped spec; OU envelope exact to 1e-6."""
    ts = np.linspace(0.0, 50.0, 26)
    worst = 0.0
    for name, spec in SHIPPED_GAUSSIAN_SPECS.items():
        for p in (0.25, 0.5, 1.0, 2.0):
            report = condition1_diagnostic(spec, p, ts, ratio_budget=1e3)
            worst = max(worst, report.ratio)
            assert report.passed, f"{name} p={p}: ratio {report.ratio:.3g}"
    fine = condition1_diagnostic(OU, 1.0, np.linspace(0.0, 50.0, 501))
    lo = float(np.exp(-0.25))
    print(f"C7 boundedness: worst ratio={worst:.1f}; OU p=1 envelope "
          f"[{fine.r_analytic.min():.6f}, {fine.r_analytic.max():.6f}]")
    assert abs(float(fine.r_analytic.min()) - lo) <= 1e-6
    assert float(fine.r_analytic.max()) <= 1.0 + 1e-12
    assert fine.r_analytic[0] == 1.0


def test_c08_unforced_state_decays_at_rate():
    """With zero forcing the state order-1/2 quasi-norm decays at gamma_{1/2}."""
    model = LinearModel(a=1.0, x0=2.0, multiplicative=OU, additive=NoiseSpec.zero())
    grid = TimeGrid(dt=0.01, n_steps=2000)
    curves = linear_moment_curves(
        model, grid, MASTER_SEED + 8, 30_000, (0.5,), source="X", save_every=20
    )
    fit = curves.fit(0.5, (5.0, 20.0))
    rate = gamma_p(1.0, 0.5, 0.5)
    rel = abs(fit.slope - rate) / abs(rate)
    print(f"C8 unforced decay: slope={fit.slope:+.4f} vs {rate:+.4f} ({100 * rel:.1f}%), "
          f"terminal value {curves.value[0, -1]:.2e}")
    assert rel <= 0.10
    assert curves.value[0, -1] < 1e-2 * curves.value[0, 0]


def test_c09_nonlinear_dichotomy():
    """sin-modulated forcing: no order-1/2 growth; order-3 grows from |x0|=1e3."""
    t0 = time.monotonic()
    stable = NonlinearModel(
        a=1.0, x0=1.0, multiplicative=OU,
        envelope=NoiseSpec.ou(0.5, 1.0), nonlinearity="sin_modulated",
    )
    sol = solve_nonlinear(stable, TimeGrid(dt=0.02, n_steps=2500), MASTER_SEED,
                          10_000, save_every=50)
    fit_low = ensemble_moment_curves(sol.x, (0.5,)).fit(0.5, (10.0, 50.0))

    divergent = NonlinearModel(
        a=1.0, x0=1000.0, multiplicative=OU,
        envelope=NoiseSpec.ou(0.5, 1.0), nonlinearity="sin_modulated",
    )
    solb = solve_nonlinear(divergent, TimeGrid(dt=0.01, n_steps=200), MASTER_SEED,
                           40_000, save_every=4)
    fit_high = ensemble_moment_curves(solb.x, (3.0,)).fit(3.0, (0.8, 2.0))
    elapsed = time.monotonic() - t0
    print(f"C9 nonlinear dichotomy: p=0.5 slope={fit_low.slope:+.4f} "
          f"(se {fit_low.slope_std_err:.4f}); p=3 slope={fit_high.slope:+.4f} "
          f"(se {fit_high.slope_std_err:.4f}) ({elapsed:.0f}s)")
    assert fit_low.slope <= 2.0 * fit_low.slope_std_err  # no growth within noise
    assert fit_high.slope - 2.0 * fit_high.slope_std_err > 0.0
    assert elapsed < 600.0


def _pipeline_raw(workers: int, out_dir: str) -> dict:
    return {
        "schema_version": 1,
        "model": {
            "kind": "linear", "a": 1.0, "x0": 50.0,
            "multiplicative": {"kind": "ou", "sigma": 1.0, "tau_c": 0.5},
            "additive": {"kind": "ou", "sigma": 0.5, "tau_c": 1.0},
        },
        "grid": {"t_max": 3.0, "dt": 0.02},
        "ensemble": {"n_paths": 5000, "master_seed": MASTER_SEED},
        "workers": workers,
        "outputs": {"directory": out_dir, "formats": ["csv", "json", "binary", "plotdata"]},
        "estimators": [
            {"name": "moments", "p": [0.5, 1.0], "window": [1.0, 3.0]},
            {"name": "beta", "p_grid": [1.0, 2.0, 3.0], "horizon": 1.5, "window": [0.5, 1.5]},
            {"name": "hill", "n": 4000, "k": 200, "p_max": 1.0},
            {"name": "green_kubo", "window": 1.5},
            {"name": "dt_fit", "window": [1.0, 3.0]},
            {"name": "condition1", "p": [0.5, 1.0]},
            {"name": "b_equals_h", "t": 1.5, "n": 1500, "replicates": 5},
            {"name": "inequalities", "trials": 200},
            {"name": "converge",
             "functions": [{"kind": "abs_power", "alpha": 0.5}],
             "times": [0.5, 1.0, 2.0], "n": 2000},
        ],
    }


def test_c10_worker_count_reproducibility(tmp_path):
    """Full pipeline rerun with 1, 4, and 8 workers: byte-identical artifacts."""
    digests = {}
    for workers in (1, 4, 8):
        out = tmp_path / f"w{workers}"
        cfg = config_from_dict(_pipeline_raw(workers, str(out)))
        manifest, code = run(cfg, subcommand="run")
        assert code == 0
        digests[workers] = {a["path"]: a["sha256"] for a in manifest["artifacts"]}
    print(f"C10 reproducibility: {len(digests[1])} artifacts, "
          f"checksums equal across workers 1/4/8")
    assert digests[1] == digests[4] == digests[8]
