"""Linear path solver against closed forms and exact identities.

Independent oracles: the deterministic ODE with constant forcing, the
double-integral variance of the stationary response, and the exact
Gaussian law of the integrated noise.  The kernel bytes themselves are
pinned by sha256 digests, so a change of array layout inside the kernels
cannot move a single output bit.
"""
import hashlib
import sys

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid as scipy_cumulative_trapezoid
from scipy.integrate import dblquad

from rmplab import blocks, engine, noise
from rmplab.blocks import NORMALS_CELLS
from rmplab.engine import (
    LOG_BUDGET,
    PROCESS_LABELS,
    LinearModel,
    PathEnsemble,
    gamma_rate,
    integrate_y,
    integrate_y_values,
    linear_block_arrays,
    sample_y_marginal,
    solve_linear,
    stationary_horizon,
    stationary_sample,
)
from rmplab.errors import SpecRejectedError, TruncationWarningError
from rmplab.grid import TimeGrid
from rmplab.noise import NoiseSpec, correlation, y_variance_half
from peaks import traced_peak

OU_HALF = NoiseSpec.ou(1.0, 0.5)
ADD = NoiseSpec.ou(0.3, 0.5)


def test_model_rejects_invalid_multiplicative():
    with pytest.raises(SpecRejectedError):
        LinearModel(a=1.0, multiplicative=NoiseSpec.constant(1.0), additive=ADD)
    with pytest.raises(SpecRejectedError):
        LinearModel(a=1.0, multiplicative=NoiseSpec.pareto_ou(0.5, 2.5), additive=ADD)


def test_beta_c_values():
    m = LinearModel(a=1.0, multiplicative=OU_HALF, additive=ADD)
    assert m.beta_c == pytest.approx(2.0)
    degenerate = LinearModel(a=1.0, multiplicative=NoiseSpec.zero(), additive=ADD)
    assert degenerate.beta_c == np.inf


def test_gamma_rate_pinned_values():
    assert gamma_rate(1.0, 0.5, 0.5) == pytest.approx(-0.375)
    assert gamma_rate(1.0, 0.5, 1.0) == pytest.approx(-0.5)
    assert gamma_rate(1.0, 0.5, 2.0) == pytest.approx(0.0)
    assert gamma_rate(1.0, 0.5, 3.0) == pytest.approx(0.5)


def test_integrate_constant_noise_is_exact():
    vals = np.full((11, 3), 2.0)
    y = integrate_y_values(vals, 0.1)
    expected = np.tile(2.0 * 0.1 * np.arange(11), (3, 1)).T
    np.testing.assert_allclose(y, expected, atol=1e-14)


def test_propagator_zero_noise_is_pure_decay():
    grid = TimeGrid(dt=0.01, n_steps=100)
    zero_noise = LinearModel(a=2.0, multiplicative=NoiseSpec.zero(), additive=NoiseSpec.zero())
    a_ens = solve_linear(zero_noise, grid, 0, 4, need=("A",))["A"]
    expected = np.tile(np.exp(-2.0 * grid.times), (4, 1))
    np.testing.assert_allclose(a_ens.values, expected, rtol=1e-12)
    assert a_ens.n_flagged == 0


def test_propagator_flags_exponent_budget():
    grid = TimeGrid(dt=1.0, n_steps=400)
    zero_noise = LinearModel(a=2.0, multiplicative=NoiseSpec.zero(), additive=NoiseSpec.zero())
    # log A falls to -800 < -LOG_BUDGET: A underflows to 0, which is exact
    a_ens = solve_linear(zero_noise, grid, 0, 2, need=("A",))["A"]
    assert np.abs(-2.0 * grid.times).max() > LOG_BUDGET
    assert a_ens.n_flagged == 0
    assert np.all(np.isfinite(a_ens.values)) and a_ens.values[:, -1].max() == 0.0
    # log A grows to 4,000 > LOG_BUDGET: A saturates, and both paths are flagged
    growing = LinearModel(a=-10.0, multiplicative=NoiseSpec.zero(), additive=NoiseSpec.zero())
    a_ens = solve_linear(growing, grid, 0, 2, need=("A",))["A"]
    assert a_ens.n_flagged == 2
    assert np.all(np.isfinite(a_ens.values))


def test_constant_forcing_matches_ode_closed_form():
    # zeta = 0, phi = c: X_t = c/a + (x0 - c/a) exp(-a t)
    a, c, x0 = 1.5, 2.0, 3.0
    model = LinearModel(
        a=a, multiplicative=NoiseSpec.zero(), additive=NoiseSpec.constant(c), x0=x0
    )

    def max_err(dt: float) -> float:
        n = int(round(4.0 / dt))
        sol = solve_linear(model, TimeGrid(dt=dt, n_steps=n), 0, 2)
        t = sol["X"].grid.times
        exact = c / a + (x0 - c / a) * np.exp(-a * t)
        return float(np.abs(sol["X"].values - exact[None, :]).max())

    e1, e2 = max_err(0.02), max_err(0.01)
    assert e1 < 5e-4
    assert e1 / e2 == pytest.approx(4.0, rel=0.2)  # trapezoid is second order


def test_solution_is_affine_in_x0():
    grid = TimeGrid(dt=0.01, n_steps=200)

    def xs(x0: float) -> np.ndarray:
        m = LinearModel(a=1.0, multiplicative=OU_HALF, additive=ADD, x0=x0)
        return solve_linear(m, grid, 3, 16)["X"].values

    x0_, x1, x2 = xs(0.0), xs(1.0), xs(2.0)
    np.testing.assert_allclose(x2 - x0_, 2.0 * (x1 - x0_), rtol=1e-12, atol=1e-13)
    np.testing.assert_array_equal(x0_, xs(0.0))  # zero start reproduces


def test_state_decomposition_and_reversed_response():
    model = LinearModel(a=1.0, multiplicative=OU_HALF, additive=ADD, x0=1.7)
    grid = TimeGrid(dt=0.01, n_steps=300)
    sol = solve_linear(model, grid, 11, 32, ("X", "Y", "A", "B"))
    np.testing.assert_allclose(
        sol["X"].values, model.x0 * sol["A"].values + sol["B"].values, rtol=1e-12, atol=1e-14
    )
    np.testing.assert_allclose(
        sol["A"].values, np.exp(-model.a * grid.times[None, :] - sol["Y"].values), rtol=1e-12
    )
    assert sol["B"].values[:, 0] == pytest.approx(0.0)

    h = solve_linear(model, grid, 11, 32, ("H",))["H"]
    assert h.label == "H"
    assert h.values.shape == (32, 301)
    assert h.values[:, 0] == pytest.approx(0.0)


def test_terminal_samples_match_full_solve():
    model = LinearModel(a=1.0, multiplicative=OU_HALF, additive=ADD)
    grid = TimeGrid(dt=0.01, n_steps=150)
    term = solve_linear(model, grid, 13, 40, ("B", "H", "Y"), save_every=grid.n_steps)
    sol = solve_linear(model, grid, 13, 40, ("B", "Y"))
    h = solve_linear(model, grid, 13, 40, ("H",))["H"]
    np.testing.assert_array_equal(term["B"].final_values, sol["B"].final_values)
    np.testing.assert_array_equal(term["Y"].final_values, sol["Y"].final_values)
    np.testing.assert_array_equal(term["H"].final_values, h.final_values)


def test_block_arrays_partition_invariance():
    model = LinearModel(a=1.0, multiplicative=OU_HALF, additive=ADD)
    grid = TimeGrid(dt=0.02, n_steps=50)
    full = linear_block_arrays(model, grid, 5, np.arange(8), strides={"X": 1, "H": 1})
    tail_part = linear_block_arrays(model, grid, 5, np.array([6, 7]), strides={"X": 1, "H": 1})
    np.testing.assert_array_equal(full["X"][6:], tail_part["X"])
    np.testing.assert_array_equal(full["H"][6:], tail_part["H"])


def _spy_blocks(monkeypatch) -> list:
    """Record the row count of every linear_block_arrays call."""
    rows = []
    real = engine.linear_block_arrays

    def spy(model, grid, master_seed, indices, **kwargs):
        rows.append(len(indices))
        return real(model, grid, master_seed, indices, **kwargs)

    monkeypatch.setattr(engine, "linear_block_arrays", spy)
    return rows


def test_unknown_need_fails_before_any_block(monkeypatch):
    rows = _spy_blocks(monkeypatch)
    model = LinearModel(a=1.0, multiplicative=OU_HALF, additive=ADD)
    with pytest.raises(ValueError, match="logA"):
        solve_linear(model, TimeGrid(dt=0.01, n_steps=1500), 0, 6000, need=("logA",))
    assert rows == []


def test_block_layout_does_not_change_the_bytes(monkeypatch):
    # 30,001 nodes of both roles' normals cap a block at 23 rows, so 27
    # paths take 2 blocks by default, 4 at block_size 7 and 27 at
    # block_size 1, each walked in tiles of its own length.
    model = LinearModel(a=1.0, multiplicative=OU_HALF, additive=ADD)
    grid = TimeGrid(dt=0.001, n_steps=30_000)
    cap = NORMALS_CELLS // (2 * grid.n_nodes)
    assert cap == 23
    rows = _spy_blocks(monkeypatch)
    default = solve_linear(model, grid, 21, 27, PROCESS_LABELS, save_every=10)
    assert rows == [23, 4]
    for block_size in (1, 7):
        rows.clear()
        other = solve_linear(
            model, grid, 21, 27, PROCESS_LABELS, save_every=10, block_size=block_size
        )
        assert max(rows) == block_size
        for label in PROCESS_LABELS:
            assert other[label].values.tobytes() == default[label].values.tobytes(), label
            assert other[label].flagged.tobytes() == default[label].flagged.tobytes()


def test_stationary_sample_memory_is_one_block():
    # The peak must not grow with n_paths x nodes: 1,000 paths on 1,505
    # nodes would be 12 MB per array, six of them at once without the cap.
    model = LinearModel(a=1.0, multiplicative=OU_HALF, additive=ADD)
    with traced_peak() as peak:
        stationary_sample(model, 15.0, 1000, 5, p_max=1.0)
    assert peak.bytes < 32 * 2**20


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts Linux minor faults")
def test_a_warm_stationary_sample_faults_in_no_block_arrays():
    # Hill's sample of the benchmark pipeline: 8 blocks of at most 510
    # paths x 1,385 nodes.  Allocating each block's arrays afresh faulted
    # in about 86,000 zeroed pages per call; a warm thread's workspace is
    # resident.
    resource = pytest.importorskip("resource")
    model = LinearModel(a=1.0, multiplicative=OU_HALF, additive=NoiseSpec.ou(0.5, 1.0), x0=50.0)
    stationary_sample(model, 13.8, 4000, 4)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    stationary_sample(model, 13.8, 4000, 4)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 5000


def _address(arr: np.ndarray) -> int:
    return arr.__array_interface__["data"][0]


def test_every_block_reuses_the_threads_workspace(monkeypatch):
    # 600 paths on 1,383 nodes are two blocks, of 510 and 90 rows
    model = LinearModel(a=1.0, multiplicative=OU_HALF, additive=ADD)
    grid = TimeGrid(dt=0.01, n_steps=1382)
    drawn = []
    draw = noise.draw_normals

    def recording_draw(*args, **kwargs):
        out = draw(*args, **kwargs)
        drawn.append((_address(out), out.size))
        return out

    monkeypatch.setattr(noise, "draw_normals", recording_draw)
    sol = solve_linear(model, grid, 3, 600, ("X", "H"))
    region = blocks.workspace()
    # each block's normals lie at the start of the region, zeta's then phi's
    assert drawn == [
        (_address(region) + 8 * offset, size)
        for n in (510, 90)
        for offset, size in ((0, n * grid.n_nodes), (n * grid.n_nodes, n * grid.n_nodes))
    ]
    for label in ("X", "H"):
        assert not np.shares_memory(sol[label].values, region)


def test_blocks_larger_than_a_slot_get_fresh_memory(monkeypatch):
    model = LinearModel(a=1.0, multiplicative=OU_HALF, additive=ADD)
    grid = TimeGrid(dt=0.01, n_steps=300)
    want = solve_linear(model, grid, 9, 50, PROCESS_LABELS)
    small = np.full(100, np.nan)
    monkeypatch.setattr(engine, "workspace", lambda: small)
    got = solve_linear(model, grid, 9, 50, PROCESS_LABELS)
    for label in PROCESS_LABELS:
        assert got[label].values.tobytes() == want[label].values.tobytes(), label
    assert got["X"].flagged.tobytes() == want["X"].flagged.tobytes()
    assert np.isnan(small).all()  # nothing was written there


def test_pool_threads_keep_their_own_workspaces():
    # 24 blocks on 8 threads, switching every microsecond:
    # a workspace shared between threads would mix their blocks' arrays.
    model = LinearModel(a=1.0, multiplicative=OU_HALF, additive=ADD)
    grid = TimeGrid(dt=0.01, n_steps=1382)
    want = solve_linear(model, grid, 5, 1500, ("X", "H"), block_size=64)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = solve_linear(model, grid, 5, 1500, ("X", "H"), workers=8, block_size=64)
    finally:
        sys.setswitchinterval(interval)
    for label in ("X", "H"):
        assert got[label].values.tobytes() == want[label].values.tobytes(), label
    assert got["X"].flagged.tobytes() == want["X"].flagged.tobytes()


def test_a_solve_holds_its_ensemble_and_one_block():
    # 3,000 paths on 301 nodes: blocks of 2,048 and 952 rows and a
    # 7.2 MB ensemble, which joining the blocks' own outputs held twice
    model = LinearModel(a=1.0, multiplicative=OU_HALF, additive=ADD)
    grid = TimeGrid(dt=0.005, n_steps=300)
    solve_linear(model, grid, 2, 3000)  # builds this thread's workspace
    with traced_peak() as peak:
        ensemble = solve_linear(model, grid, 2, 3000)["X"].values
    assert peak.bytes < 1.5 * ensemble.nbytes


def test_integrate_y_wraps_values():
    grid = TimeGrid(dt=0.5, n_steps=4)
    z = PathEnsemble(
        grid=grid, label="zeta", values=np.ones((2, 5)),
        flagged=np.zeros(2, dtype=bool), master_seed=0,
    )
    y = integrate_y(z)
    assert y.label == "Y"
    np.testing.assert_allclose(y.values[0], grid.times)


def test_growth_paths_are_flagged_and_saturated():
    # a < 0 drives log A past the exponent budget; rows must be flagged
    model = LinearModel(a=-10.0, multiplicative=OU_HALF, additive=ADD)
    grid = TimeGrid(dt=0.01, n_steps=8000)
    sol = solve_linear(model, grid, 1, 8, save_every=100)
    assert sol["X"].n_flagged == 8
    assert np.all(np.isfinite(sol["X"].values))


def test_stationary_horizon_value():
    model = LinearModel(a=1.0, multiplicative=OU_HALF, additive=ADD)
    # rate at p = 1 is -0.5, so the 1e-3 horizon is ln(1e3)/0.5
    assert stationary_horizon(model, 1.0) == pytest.approx(np.log(1e3) / 0.5)
    with pytest.raises(TruncationWarningError):
        stationary_horizon(model, 2.0)
    with pytest.raises(TruncationWarningError):
        stationary_horizon(model, 3.0)


def test_stationary_sample_variance_matches_double_integral():
    # zeta = 0 makes X an explicit linear filter of the forcing, whose
    # stationary variance is the double integral of exp(-a(u+v)) C(|u-v|).
    a = 1.0
    forcing = NoiseSpec.ou(0.7, 0.8)
    model = LinearModel(a=a, multiplicative=NoiseSpec.zero(), additive=forcing)
    oracle, err = dblquad(
        lambda v, u: np.exp(-a * (u + v)) * correlation(forcing, u - v),
        0.0, 40.0, 0.0, 40.0,
    )
    assert err < 1e-6

    sample = stationary_sample(model, 12.0, 20000, 91)
    assert sample.n_flagged == 0
    var = sample.values.var(ddof=1)
    se_var = var * np.sqrt(2.0 / (sample.values.size - 1))
    assert abs(var - oracle) < 5 * se_var
    assert abs(sample.values.mean()) < 5 * np.sqrt(var / sample.values.size)


def test_stationary_sample_truncation_bound():
    model = LinearModel(a=1.0, multiplicative=OU_HALF, additive=ADD)
    sample = stationary_sample(model, 10.0, 512, 3, p_max=1.0)
    assert sample.truncation_bound is not None
    assert 0.0 < sample.truncation_bound < 0.1  # e^{-0.5 t*} scale
    with pytest.raises(TruncationWarningError):
        stationary_sample(model, 10.0, 512, 3, p_max=2.5)


def test_stationary_sample_drops_only_saturated_draws():
    # sigma 200 drives some paths' log-propagator above the exponent
    # budget, whose capped draws would top the order statistics Hill
    # reads, and others below it, whose A underflows and leaves H exact
    model = LinearModel(a=0.1, multiplicative=NoiseSpec.ou(200.0, 1.0), additive=ADD)
    sample = stationary_sample(model, 2.0, 200, 5)
    grid = TimeGrid(0.01, 200)
    sol = solve_linear(model, grid, 5, 200, ("H", "Y"))
    log_a = -model.a * grid.times - sol["Y"].values
    grew = log_a.max(axis=1) > LOG_BUDGET
    decayed = log_a.min(axis=1) < -LOG_BUDGET
    assert grew.any() and (decayed & ~grew).any()
    assert sample.n_flagged == grew.sum()
    np.testing.assert_array_equal(sample.values, sol["H"].final_values[~grew])


def test_stationary_sample_keeps_draws_whose_propagator_only_decayed():
    # a t_star = 800 takes every log A below -LOG_BUDGET; H is still
    # exact, so the kernel flags no path and every draw is kept
    model = LinearModel(a=100.0, multiplicative=OU_HALF, additive=ADD)
    sample = stationary_sample(model, 8.0, 64, 5, p_max=1.0)
    h = solve_linear(model, TimeGrid(0.01, 800), 5, 64, ("H",), save_every=100)["H"]
    assert h.n_flagged == 0 and sample.n_flagged == 0
    np.testing.assert_array_equal(sample.values, h.final_values)
    assert np.all(np.isfinite(sample.values)) and np.isfinite(sample.truncation_bound)


def test_sample_y_marginal_has_exact_variance_law():
    ts = np.array([1.0, 4.0, 9.0])
    draws = sample_y_marginal(OU_HALF, ts, 40000, 17)
    assert draws.shape == (3, 40000)
    target = 2.0 * y_variance_half(OU_HALF, ts)
    for row, v in zip(draws, target):
        emp = row.var(ddof=1)
        assert abs(emp - v) < 5 * v * np.sqrt(2.0 / row.size)
    single = sample_y_marginal(OU_HALF, 4.0, 100, 17)
    assert single.shape == (100,)


def test_trapezoid_matches_scipy_including_overflow_rows():
    rng = np.random.default_rng(8)
    vals = rng.standard_normal((6, 1384)) * 10.0 ** rng.integers(-300, 300, (6, 1384))
    vals[1, 40] = np.inf  # inf from then on
    vals[2, 7] = -np.inf
    vals[2, 900] = np.inf  # inf - inf: nan from then on
    vals[3, 5] = np.nan
    vals[4, 100:] = 1.7e308  # the pair sum overflows
    for dt in (0.01, 0.1):
        with np.errstate(over="ignore", invalid="ignore"):
            got = engine.cumulative_trapezoid(vals.T, dt)
            want = scipy_cumulative_trapezoid(vals.T, dx=dt, axis=0, initial=0.0)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.isinf(got[-1, 1]) and np.isnan(got[-1, 2]) and np.isnan(got[-1, 3])
        assert np.isinf(got[-1, 4])
    one_d = rng.standard_normal(151)
    assert np.array_equal(
        engine.integrate_y_values(one_d, 0.02),
        scipy_cumulative_trapezoid(one_d, dx=0.02, initial=0.0),
    )


def _cumsum_trapezoid(values: np.ndarray, dt: float) -> np.ndarray:
    """The trapezoid rule with its steps summed by cumsum along time."""
    out = np.empty(values.shape)
    out[0] = 0.0
    steps = out[1:]
    np.add(values[1:], values[:-1], out=steps)
    np.multiply(dt, steps, out=steps)
    np.divide(steps, 2.0, out=steps)
    np.cumsum(steps, axis=0, out=steps)
    return out


@pytest.mark.parametrize(
    "shape",
    [(151, 2048), (40, engine.ROW_SUM_MIN_WIDTH), (60, 300), (300, 100),
     (25, engine.ROW_SUM_MIN_WIDTH - 1), (7, 1)],
)
def test_row_by_row_trapezoid_is_the_bytes_of_cumsum(shape):
    # Wide rows are summed by the row loop, narrow ones by cumsum; both
    # must give cumsum's bytes, signed zeros, subnormals and NaNs included.
    rng = np.random.default_rng(shape[0] * shape[1])
    vals = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
    special = [-0.0, 0.0, 5e-324, -2.5e-320, np.inf, -np.inf, np.nan, -np.nan]
    picks = rng.integers(0, vals.size, 4 * len(special))
    vals.flat[picks] = np.resize(special, picks.size)
    vals[:, 0] = -0.0  # a column of negative zeros stays -0.0 after its first node
    for dt in (0.02, 1e-310):
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            got = engine.cumulative_trapezoid(vals, dt)
            want = _cumsum_trapezoid(vals, dt)
        assert got.tobytes() == want.tobytes()


# Models whose every process is pinned: a stable one, one whose a = -10
# drives 13 of 16 rows past the exponent budget and saturates B on 4 of
# them, and Pareto and constant forcing.
KERNEL_CASES = {
    "stable": (LinearModel(a=1.0, multiplicative=OU_HALF, additive=ADD), TimeGrid(0.02, 150)),
    "growth": (LinearModel(a=-10.0, multiplicative=OU_HALF, additive=ADD), TimeGrid(0.05, 1410)),
    "pareto": (
        LinearModel(a=1.0, multiplicative=OU_HALF, additive=NoiseSpec.pareto_ou(0.5, 2.5)),
        TimeGrid(0.02, 150),
    ),
    "constant": (
        LinearModel(a=1.0, multiplicative=OU_HALF, additive=NoiseSpec.constant(0.7)),
        TimeGrid(0.02, 150),
    ),
}

KERNEL_DIGESTS = {
    ("constant", "1"): "4ead5d76f021d5a6df7c42fd995680844c36144b58d8e1b893fd94a60428fe65",
    ("constant", "10"): "2140fd11253fe91e4c58e2644c55f39df9eaad5850d64f25f2cab4934c5910f9",
    ("constant", "n_steps"): "2b3cebafda96f4aa42578487570765c70c82466de29de5206fd8c80d2080d841",
    ("growth", "1"): "94d979c453cee770d6d6aa43322900dc8be0a389901b32d40ce8363ac63548ab",
    ("growth", "10"): "f3f1c0a41d5460ee5a8cbd9226c9b4a762482f9964a1a98edcbd6d63c1463f17",
    ("growth", "n_steps"): "2395996d10296c1f55ac61924060dbf69560241b25e69672c2a16dbc5f95b606",
    ("pareto", "1"): "2b774233926b8b7d543d6c7f4374fa2889ec3fed2ff26b45e3b09ab3cca95a0a",
    ("pareto", "10"): "3e04e0428b79601278bfe1f23f77f7413fb24e30a0b33a3e4277fd6b11f91cdb",
    ("pareto", "n_steps"): "ee13eb76ba7f03621be3d6dba9ed177052625defb375e0d5ee30b0b4b4c60385",
    ("stable", "1"): "53be9f12556c42e73194810131ec4d17f339fb564e18b9f7191c14139502ba8b",
    ("stable", "10"): "370d8786a8e94a581c60fd3b3be5b80be04154e95f5e214e31c34655ed2a995d",
    ("stable", "n_steps"): "d287d70ba68426511ebd36645638edeef11a28cce970ff5c67c548e79b89af05",
}

STATIONARY_DIGEST = "5f2d6bf380a1ecd512461a3e9b2e2f519506a3495b56b816fe7f0f8b0228f4ed"


def _digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(repr((arr.dtype.str, arr.shape)).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def _kernel_digest(case: str, stride: str) -> str:
    model, grid = KERNEL_CASES[case]
    save_every = grid.n_steps if stride == "n_steps" else int(stride)
    sol = solve_linear(model, grid, 2, 16, PROCESS_LABELS, save_every=save_every)
    arrays = []
    for label in PROCESS_LABELS:
        assert sol[label].values.flags.c_contiguous
        arrays += [sol[label].values, sol[label].flagged]
    return _digest(*arrays)


def _stationary_digest() -> str:
    model = LinearModel(a=1.0, multiplicative=OU_HALF, additive=ADD)
    sample = stationary_sample(model, 5.0, 300, 3, p_max=1.0)
    return _digest(sample.values, np.array([sample.truncation_bound, sample.n_flagged]))


@pytest.mark.parametrize("stride", ["1", "10", "n_steps"])
@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_kernel_bytes_are_pinned(case, stride):
    assert _kernel_digest(case, stride) == KERNEL_DIGESTS[case, stride]


def test_stationary_sample_bytes_are_pinned():
    assert _stationary_digest() == STATIONARY_DIGEST
