"""Noise spec validation and the sampled laws against closed forms.

The integrated-noise variance oracle is independent quadrature of the
autocovariance over the time wedge; marginal laws of the transformed
kind are pinned against exact Pareto formulas.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.signal import lfilter
from scipy.special import ndtr

from rmplab import noise
from rmplab.blocks import BLOCK_CELLS
from rmplab.errors import SpecRejectedError, UnsupportedKindError
from rmplab.grid import TimeGrid
from rmplab.noise import (
    SHIPPED_GAUSSIAN_SPECS,
    NoiseSpec,
    correlation,
    diffusion_constant,
    require_multiplicative,
    sample_block,
    sample_chunks,
    stationary_moment,
    tail_index,
    y_variance_half,
)
from rmplab.rng import ROLE_ADDITIVE, ROLE_MULTIPLICATIVE, block_normals
from peaks import traced_peak


# ---------------------------------------------------------------- specs


def test_spec_invariants_rejected():
    with pytest.raises(ValueError):
        NoiseSpec.ou(0.0, 1.0)
    with pytest.raises(ValueError):
        NoiseSpec.ou(1.0, -0.5)
    with pytest.raises(ValueError):
        NoiseSpec.superposition([])
    with pytest.raises(ValueError):
        NoiseSpec.pareto_ou(0.5, 1.0)  # tail index must exceed 1
    with pytest.raises(ValueError):
        NoiseSpec.pareto_ou(0.5, 2.0, scale=0.0)
    with pytest.raises(ValueError):
        NoiseSpec(kind="weird")


def test_multiplicative_gate():
    for good in (
        NoiseSpec.ou(1.0, 0.5),
        NoiseSpec.superposition([(1, 1), (2, 0.25)]),
        NoiseSpec.zero(),  # degenerate (D = 0) but allowed
    ):
        assert require_multiplicative(good) is None

    for bad, reason in (
        (NoiseSpec.pareto_ou(0.5, 2.5), "heavy-tailed"),
        (NoiseSpec.constant(1.0), "not a centered Gaussian"),
    ):
        with pytest.raises(SpecRejectedError, match=reason):
            require_multiplicative(bad)


# ------------------------------------------------------- analytic layer


def test_correlation_values():
    spec = NoiseSpec.ou(1.0, 0.5)
    assert correlation(spec, 0.0) == pytest.approx(1.0)
    assert correlation(spec, 0.5) == pytest.approx(np.exp(-1.0))
    two = SHIPPED_GAUSSIAN_SPECS["two_scale"]
    assert correlation(two, 0.0) == pytest.approx(1.0 + 4.0)
    # even in the lag
    assert correlation(spec, -0.5) == correlation(spec, 0.5)


def test_diffusion_constants_of_shipped_specs():
    assert diffusion_constant(SHIPPED_GAUSSIAN_SPECS["ou_short"]) == pytest.approx(0.5)
    assert diffusion_constant(SHIPPED_GAUSSIAN_SPECS["ou_long"]) == pytest.approx(0.5)
    assert diffusion_constant(SHIPPED_GAUSSIAN_SPECS["two_scale"]) == pytest.approx(2.0)
    assert diffusion_constant(SHIPPED_GAUSSIAN_SPECS["three_scale"]) == pytest.approx(
        0.25 * 0.4 + 0.1225 * 1.2 + 0.0625 * 3.0
    )
    assert diffusion_constant(NoiseSpec.zero()) == 0.0


def test_gaussian_only_operations_reject_other_kinds():
    heavy = NoiseSpec.pareto_ou(0.5, 2.5)
    for fn in (correlation, y_variance_half):
        with pytest.raises(UnsupportedKindError):
            fn(heavy, 1.0)
    with pytest.raises(UnsupportedKindError):
        diffusion_constant(heavy)


def test_y_variance_half_closed_form_ou():
    # One component: D t - sigma^2 tau^2 (1 - exp(-t/tau)) with D = 0.5
    spec = NoiseSpec.ou(1.0, 0.5)
    expected = 0.5 * 10.0 - 0.25 * (1.0 - np.exp(-20.0))
    assert y_variance_half(spec, 10.0) == pytest.approx(expected, rel=1e-14)
    assert y_variance_half(spec, 0.0) == 0.0


@pytest.mark.parametrize("t", [0.3, 2.0, 10.0])
def test_y_variance_half_matches_quadrature(t):
    spec = SHIPPED_GAUSSIAN_SPECS["two_scale"]
    oracle, err = quad(lambda s: (t - s) * correlation(spec, s), 0.0, t)
    assert y_variance_half(spec, t) == pytest.approx(oracle, abs=max(1e-10, 10 * err))


def test_variance_deficit_is_bounded_and_monotone():
    spec = SHIPPED_GAUSSIAN_SPECS["three_scale"]
    d_const = diffusion_constant(spec)
    ts = np.linspace(0.0, 80.0, 400)
    deficit = d_const * ts - y_variance_half(spec, ts)
    cap = sum(s * s * t * t for s, t in spec.components)
    assert np.all(deficit >= -1e-12)
    assert np.all(np.diff(deficit) >= -1e-12)
    assert deficit[-1] == pytest.approx(cap, rel=1e-6)


@given(
    sigma=st.floats(0.1, 3.0),
    tau=st.floats(0.05, 4.0),
    t=st.floats(0.0, 50.0),
)
@settings(max_examples=60, deadline=None)
def test_y_variance_half_nonnegative_below_linear_bound(sigma, tau, t):
    spec = NoiseSpec.ou(sigma, tau)
    val = float(y_variance_half(spec, t))
    assert 0.0 <= val <= diffusion_constant(spec) * t + 1e-12


def test_tail_index_and_marginal_moments():
    heavy = NoiseSpec.pareto_ou(0.5, 3.0, scale=2.0)
    assert tail_index(heavy) == 3.0
    assert tail_index(NoiseSpec.ou(1, 1)) == np.inf
    # E phi^p = beta scale^p / (beta - p)
    assert stationary_moment(heavy, 1.0) == pytest.approx(3.0)
    assert stationary_moment(heavy, 2.0) == pytest.approx(12.0)
    with pytest.raises(ValueError):
        stationary_moment(heavy, 3.0)
    assert stationary_moment(NoiseSpec.zero(), 2.0) == 0.0
    assert stationary_moment(NoiseSpec.constant(-1.5), 2.0) == pytest.approx(2.25)
    with pytest.raises(UnsupportedKindError):
        stationary_moment(NoiseSpec.ou(1, 1), 2.0)


# ------------------------------------------------------------- sampling


def test_degenerate_kinds_sample_exactly():
    grid = TimeGrid(dt=0.1, n_steps=5)
    idx = np.arange(3)
    np.testing.assert_array_equal(
        sample_block(NoiseSpec.zero(), grid, 0, idx, ROLE_ADDITIVE).T, np.zeros((3, 6))
    )
    np.testing.assert_array_equal(
        sample_block(NoiseSpec.constant(2.5), grid, 0, idx, ROLE_ADDITIVE).T,
        np.full((3, 6), 2.5),
    )


def test_ou_block_is_stationary_with_exact_autocovariance():
    sigma, tau = 1.3, 0.5
    spec = NoiseSpec.ou(sigma, tau)
    grid = TimeGrid(dt=0.05, n_steps=40)
    vals = sample_block(spec, grid, 2024, np.arange(8000), ROLE_MULTIPLICATIVE).T

    var0 = vals[:, 0].var()
    var_end = vals[:, -1].var()
    se_var = sigma**2 * np.sqrt(2.0 / 8000)
    assert abs(var0 - sigma**2) < 5 * se_var
    assert abs(var_end - sigma**2) < 5 * se_var

    lag_nodes = int(tau / grid.dt)
    emp = np.mean(vals[:, 0] * vals[:, lag_nodes])
    assert abs(emp - sigma**2 * np.exp(-1.0)) < 5 * se_var


def test_pareto_block_has_exact_pareto_marginal():
    beta, scale = 3.0, 2.0
    spec = NoiseSpec.pareto_ou(0.5, beta, scale)
    grid = TimeGrid(dt=0.1, n_steps=10)
    vals = sample_block(spec, grid, 5, np.arange(8000), ROLE_ADDITIVE).T
    terminal = vals[:, -1]

    assert terminal.min() >= scale  # support is [scale, inf)
    mean = terminal.mean()
    se = terminal.std(ddof=1) / np.sqrt(terminal.size)
    assert abs(mean - stationary_moment(spec, 1.0)) < 5 * se
    # survival at x = 2 scale is 2^-beta
    emp_sf = np.mean(terminal > 2.0 * scale)
    assert abs(emp_sf - 2.0**-beta) < 5 * np.sqrt(2.0**-beta / terminal.size)


def test_block_rows_do_not_depend_on_partition():
    spec = SHIPPED_GAUSSIAN_SPECS["three_scale"]
    grid = TimeGrid(dt=0.1, n_steps=7)
    full = sample_block(spec, grid, 31, np.arange(6), ROLE_MULTIPLICATIVE).T
    part = sample_block(spec, grid, 31, np.array([4, 5]), ROLE_MULTIPLICATIVE).T
    np.testing.assert_array_equal(full[4:], part)


def _lfilter_block(spec: NoiseSpec, grid: TimeGrid, draws: np.ndarray) -> np.ndarray:
    """Path-major reference: each component's recursion through scipy's lfilter.

    draws is (n_paths, n_nodes, n_components): a row's normals node by node.
    """
    out = np.zeros((draws.shape[0], grid.n_nodes))
    for j, (sigma, tau) in enumerate(spec.components):
        r = np.exp(-grid.dt / tau)
        s = sigma * np.sqrt(-np.expm1(-2.0 * grid.dt / tau))
        xi = draws[:, :, j]
        g0 = sigma * xi[:, 0]
        rest, _ = lfilter([1.0], [1.0, -r], s * xi[:, 1:], axis=1, zi=(r * g0)[:, None])
        out[:, 0] += g0
        out[:, 1:] += rest
    if spec.kind == "pareto_transformed_ou":
        out = spec.scale * ndtr(-out) ** (-1.0 / spec.tail_index)
    return out


@pytest.mark.parametrize(
    "spec,n_paths,n_steps",
    [
        (NoiseSpec.ou(1.0, 0.5), 2048, 150),
        (NoiseSpec.ou(1.0, 0.5), 223, 1383),
        (NoiseSpec.ou(0.5, 2.0), 1, 400),
        (SHIPPED_GAUSSIAN_SPECS["three_scale"], 300, 200),
        (NoiseSpec.pareto_ou(0.5, 3.0, 2.0), 50, 100),
        # several time chunks per block, and a superposition past the cell budget
        (NoiseSpec.ou(1.0, 0.5), 300, 1500),
        (SHIPPED_GAUSSIAN_SPECS["three_scale"], 2048, 300),
    ],
)
def test_recursion_equals_lfilter_bit_for_bit(spec, n_paths, n_steps):
    grid = TimeGrid(dt=0.01, n_steps=n_steps)
    idx = np.arange(n_paths) + 17
    block = sample_block(spec, grid, 9, idx, ROLE_MULTIPLICATIVE)
    draws = block_normals(9, idx, ROLE_MULTIPLICATIVE, (grid.n_nodes, len(spec.components)))
    assert block.shape == (grid.n_nodes, n_paths) and block.flags.c_contiguous
    assert np.array_equal(block, _lfilter_block(spec, grid, draws).T)


def _count_draw_calls(monkeypatch) -> list:
    calls = []
    real = noise.block_normals

    def counted(master_seed, path_indices, role, shape_per_path, *args):
        calls.append(len(path_indices) * int(np.prod(shape_per_path)))
        return real(master_seed, path_indices, role, shape_per_path, *args)

    monkeypatch.setattr(noise, "block_normals", counted)
    return calls


@pytest.mark.parametrize(
    "spec,n_paths,n_steps",
    [
        (NoiseSpec.ou(1.0, 0.5), 2048, 150),
        (NoiseSpec.ou(1.0, 0.5), 2, 2500),
        (SHIPPED_GAUSSIAN_SPECS["three_scale"], 600, 150),
    ],
)
def test_block_within_the_cell_budget_draws_once(monkeypatch, spec, n_paths, n_steps):
    grid = TimeGrid(dt=0.02, n_steps=n_steps)
    assert n_paths * len(spec.components) * grid.n_nodes <= BLOCK_CELLS
    calls = _count_draw_calls(monkeypatch)
    sample_block(spec, grid, 3, np.arange(n_paths), ROLE_MULTIPLICATIVE)
    assert len(calls) == 1


def test_large_block_draws_in_chunks_within_the_budget(monkeypatch):
    grid = TimeGrid(dt=0.02, n_steps=2500)
    calls = _count_draw_calls(monkeypatch)
    sample_block(NoiseSpec.ou(1.0, 0.5), grid, 3, np.arange(2048), ROLE_MULTIPLICATIVE)
    assert len(calls) > 1
    assert max(calls) <= BLOCK_CELLS
    assert sum(calls) == 2048 * grid.n_nodes


def test_empty_block_checks_its_keys():
    grid = TimeGrid(dt=0.02, n_steps=10)
    empty = np.array([], dtype=np.int64)
    block = sample_block(NoiseSpec.ou(1.0, 0.5), grid, 3, empty, ROLE_MULTIPLICATIVE)
    assert block.shape == (grid.n_nodes, 0)
    with pytest.raises(ValueError):
        sample_block(NoiseSpec.ou(1.0, 0.5), grid, -1, empty, ROLE_MULTIPLICATIVE)


def test_sample_block_holds_one_full_size_array():
    # the path-major draws, a separate sum and a scratch copy would each
    # add a full result's bytes to the peak
    grid = TimeGrid(dt=0.02, n_steps=2500)
    idx = np.arange(2048)
    with traced_peak() as peak:
        block = sample_block(NoiseSpec.ou(1.0, 0.5), grid, 5, idx, ROLE_MULTIPLICATIVE)
    assert peak.bytes < 1.25 * block.nbytes


CHUNK_GRID = TimeGrid(dt=0.05, n_steps=30)


@pytest.mark.parametrize("steps", [1, 2, 7, CHUNK_GRID.n_nodes])
@pytest.mark.parametrize(
    "spec",
    [
        NoiseSpec.ou(1.0, 0.5),
        NoiseSpec.pareto_ou(0.5, 3.0, 2.0),
        NoiseSpec.zero(),
        NoiseSpec.constant(-1.5),
        SHIPPED_GAUSSIAN_SPECS["three_scale"],
    ],
    ids=["ou", "pareto", "zero", "constant", "three_scale"],
)
def test_chunks_join_to_the_block_bit_for_bit(monkeypatch, spec, steps):
    idx = np.array([5, 0, 9, 2, 5, 300])
    whole = sample_block(spec, CHUNK_GRID, 7, idx, ROLE_ADDITIVE)
    assert len(idx) * CHUNK_GRID.n_nodes <= BLOCK_CELLS  # one chunk
    monkeypatch.setattr(noise, "BLOCK_CELLS", len(idx) * (steps + 1))
    chunks = [c.copy() for c in sample_chunks(spec, CHUNK_GRID, 7, idx, ROLE_ADDITIVE)]
    n_steps = CHUNK_GRID.n_steps
    assert [len(c) - 1 for c in chunks] == [min(steps, n_steps - k) for k in range(0, n_steps, steps)]
    for before, after in zip(chunks, chunks[1:]):
        assert after[0].tobytes() == before[-1].tobytes()  # the one-row overlap
    joined = np.concatenate([chunks[0]] + [c[1:] for c in chunks[1:]])
    assert joined.tobytes() == whole.tobytes()


def test_chunks_draw_each_normal_once_and_hold_one_chunk(monkeypatch):
    grid = TimeGrid(dt=0.02, n_steps=2500)
    idx = np.arange(2048)
    drawn = []
    real = noise.block_normals

    def counted(*args):
        out = real(*args)
        drawn.append(out.size)
        return out

    monkeypatch.setattr(noise, "block_normals", counted)
    with traced_peak() as peak:
        for chunk in sample_chunks(NoiseSpec.ou(1.0, 0.5), grid, 5, idx, ROLE_ADDITIVE):
            pass
    assert sum(drawn) == len(idx) * grid.n_nodes and len(drawn) == 17
    # the chunk buffer, one chunk's draws and a generator per row (under
    # 1 KiB each): not the 41 MB of whole paths
    chunk_bytes = 8 * len(idx) * 151
    assert peak.bytes < 2 * chunk_bytes + len(idx) * 1024 + 2**20


@pytest.mark.parametrize(
    "spec,n_paths,n_steps",
    [(NoiseSpec.ou(1.0, 0.5), 2048, 150), (NoiseSpec.pareto_ou(0.5, 3.0, 2.0), 3, 2500)],
)
def test_one_chunk_draws_reset_instead_of_building_generators(monkeypatch, spec, n_paths, n_steps):
    grid = TimeGrid(dt=0.02, n_steps=n_steps)
    streams = []
    real = noise.block_normals

    def counted(*args):
        streams.append(args[4:])
        return real(*args)

    monkeypatch.setattr(noise, "block_normals", counted)
    chunks = list(sample_chunks(spec, grid, 5, np.arange(n_paths), ROLE_ADDITIVE))
    assert len(chunks) == 1 and chunks[0].shape == (grid.n_nodes, n_paths)
    assert streams == [(None,)]
