"""Nonlinear solver: degenerate reductions and the envelope sandwich.

The solver's bytes are pinned by sha256 digests, so a rewrite of the RK4
kernel's buffering cannot move a single output bit.
"""
import hashlib
import tracemalloc

import numpy as np
import pytest

from rmplab import engine
from rmplab.engine import (
    CLIPPED,
    ENVELOPE_ITSELF,
    SIN_MODULATED,
    LinearModel,
    NonlinearModel,
    solve_linear,
    solve_nonlinear,
)
from rmplab.errors import SpecRejectedError
from rmplab.grid import TimeGrid
from rmplab.noise import NoiseSpec

MULT = NoiseSpec.ou(1.0, 0.5)
ENV = NoiseSpec.pareto_ou(0.5, 2.5)  # positive support, |phi| = phi


def test_nonlinear_model_validation():
    with pytest.raises(ValueError):
        NonlinearModel(a=1.0, multiplicative=MULT, envelope=ENV, nonlinearity="cubic")
    with pytest.raises(SpecRejectedError):
        NonlinearModel(
            a=1.0, multiplicative=NoiseSpec.constant(2.0), envelope=ENV,
            nonlinearity=SIN_MODULATED,
        )


def test_envelope_itself_reduces_to_linear():
    grid = TimeGrid(dt=0.01, n_steps=300)
    nl = NonlinearModel(
        a=1.0, multiplicative=MULT, envelope=ENV, nonlinearity=ENVELOPE_ITSELF, x0=1.0
    )
    lin = LinearModel(a=1.0, multiplicative=MULT, additive=ENV, x0=1.0)
    xs_nl = solve_nonlinear(nl, grid, 3, 256, save_every=3).x.values
    xs_lin = solve_linear(lin, grid, 3, 256, save_every=3)["X"].values
    # same noise realizations, different integrators: O(dt^2) apart
    assert np.abs(xs_nl - xs_lin).max() < 5e-3


def test_zero_start_fixed_point_stays_zero():
    grid = TimeGrid(dt=0.02, n_steps=100)
    for kind in (SIN_MODULATED, CLIPPED):
        model = NonlinearModel(
            a=1.0, multiplicative=MULT, envelope=ENV, nonlinearity=kind, x0=0.0
        )
        sol = solve_nonlinear(model, grid, 9, 64)
        np.testing.assert_array_equal(sol.x.values, np.zeros_like(sol.x.values))


def test_envelope_sandwich_bounds_the_forced_part():
    # |psi| <= phi implies |X - x0 A| <= response driven by phi itself
    grid = TimeGrid(dt=0.01, n_steps=400)
    x0 = 0.8
    nl = NonlinearModel(
        a=1.0, multiplicative=MULT, envelope=ENV, nonlinearity=SIN_MODULATED, x0=x0
    )
    lin = LinearModel(a=1.0, multiplicative=MULT, additive=ENV, x0=x0)
    sol_nl = solve_nonlinear(nl, grid, 21, 128, save_every=4)
    sol_lin = solve_linear(lin, grid, 21, 128, ("A", "B"), save_every=4)
    forced = np.abs(sol_nl.x.values - x0 * sol_lin["A"].values)
    assert np.all(forced <= sol_lin["B"].values + 5e-3)


def test_refinement_history_settles():
    grid = TimeGrid(dt=0.2, n_steps=20)  # deliberately coarse
    model = NonlinearModel(
        a=1.0, multiplicative=MULT, envelope=ENV, nonlinearity=SIN_MODULATED, x0=1.0
    )
    sol = solve_nonlinear(model, grid, 4, 128, rel_tol=1e-3)
    assert len(sol.refinement) >= 2
    assert sol.substeps == sol.refinement[-1][0]
    q_last, q_prev = sol.refinement[-1][1], sol.refinement[-2][1]
    assert abs(q_last - q_prev) <= 1e-3 * abs(q_prev)


def test_solution_shape_respects_save_every():
    grid = TimeGrid(dt=0.05, n_steps=60)
    model = NonlinearModel(
        a=1.0, multiplicative=MULT, envelope=ENV, nonlinearity=CLIPPED, x0=1.0
    )
    sol = solve_nonlinear(model, grid, 2, 16, save_every=6)
    assert sol.x.values.shape == (16, 11)
    assert sol.x.grid.horizon == pytest.approx(3.0)


def _counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("dt,n_steps", [(0.05, 40), (0.2, 20)])
def test_noise_is_drawn_once_per_block_per_pass(monkeypatch, dt, n_steps):
    from rmplab import noise

    calls = _counting(monkeypatch, noise, "sample_block")
    model = NonlinearModel(
        a=1.0, multiplicative=MULT, envelope=ENV, nonlinearity=SIN_MODULATED, x0=1.0
    )
    sol = solve_nonlinear(
        model, TimeGrid(dt=dt, n_steps=n_steps), 4, 40, block_size=16, rel_tol=1e-3
    )
    # pass 1 integrates substeps 1 and 2, every later pass one new count
    passes = len(sol.refinement) - 1
    assert [s for s, _ in sol.refinement] == [2**i for i in range(len(sol.refinement))]
    assert len(calls) == 2 * 3 * passes  # one zeta and one phi draw per block
    if dt == 0.05:
        assert passes == 1


def test_refinement_respects_max_refines(monkeypatch):
    from rmplab import engine

    model = NonlinearModel(
        a=1.0, multiplicative=MULT, envelope=ENV, nonlinearity=CLIPPED, x0=1.0
    )
    grid = TimeGrid(dt=0.05, n_steps=40)
    calls = _counting(monkeypatch, engine, "_rk4_block")
    with pytest.raises(RuntimeError):
        solve_nonlinear(model, grid, 4, 32, max_refines=0)
    assert [c[5] for c in calls] == [1]  # substep counts integrated
    calls.clear()
    with pytest.raises(RuntimeError):
        solve_nonlinear(model, grid, 4, 32, max_refines=1, rel_tol=0.0)
    assert [c[5] for c in calls] == [1, 2]


def test_blocks_and_workers_do_not_change_the_solution():
    model = NonlinearModel(
        a=1.0, multiplicative=MULT, envelope=ENV, nonlinearity=SIN_MODULATED, x0=1.0
    )
    grid = TimeGrid(dt=0.05, n_steps=40)
    one = solve_nonlinear(model, grid, 8, 40, save_every=4)
    split = solve_nonlinear(model, grid, 8, 40, save_every=4, block_size=16)
    pooled = solve_nonlinear(model, grid, 8, 40, save_every=4, block_size=16, workers=2)
    for sol in (split, pooled):
        np.testing.assert_array_equal(one.x.values, sol.x.values)
        np.testing.assert_array_equal(one.x.flagged, sol.x.flagged)
    # the horizon quasi-norm sums block partials, so only the worker count is free
    assert split.refinement == pooled.refinement


def _nl(kind: str, a: float = 1.0) -> NonlinearModel:
    return NonlinearModel(a=a, multiplicative=MULT, envelope=ENV, nonlinearity=kind, x0=1.0)


# 2,048 paths make the kernel's coefficient rows span several time chunks,
# with a partial last one; "coarse" refines to 4 substeps; "saturated" has
# a = -20 drive 31 of 40 paths past overflow, so saturated values and
# flags are pinned too (rel_tol 1.0 stops it after three counts).
NONLINEAR_CASES = {
    **{
        f"{kind}-{save_every}": (
            lambda kind=kind, save_every=save_every: solve_nonlinear(
                _nl(kind), TimeGrid(0.05, 45), 11, 2048, save_every=save_every
            )
        )
        for kind in (SIN_MODULATED, CLIPPED, ENVELOPE_ITSELF)
        for save_every in (1, 5)
    },
    "coarse": lambda: solve_nonlinear(
        _nl(SIN_MODULATED), TimeGrid(0.4, 15), 4, 2048, save_every=3, rel_tol=1e-4
    ),
    "saturated": lambda: solve_nonlinear(
        _nl(CLIPPED, a=-20.0), TimeGrid(0.05, 710), 5, 40, save_every=10, rel_tol=1.0
    ),
}

NONLINEAR_DIGESTS = {
    "clipped-1": "3a4b23c501ee3453470f09ae1b058ffe4644bfcceb9658ecd1892dfa9504dba9",
    "clipped-5": "0f851bad48f08b805553d20e3edee6423609166607d8f0d580c9a4d9a509bde3",
    "coarse": "04cab99e786339a14a0bbdc78576442c325c4cfc21f7c4eba383dce28ebf536b",
    "envelope_itself-1": "38f5daf9e13aeeeb18c7118f08d43cb20341668453a915a60eba5d003420dc8e",
    "envelope_itself-5": "f187d17ec602bb539199b08e793421f6cc0b97f0a5238ae16748bab24f60cede",
    "saturated": "c00edb005ab08cc9fa5549aa5caf723176c88cb47b14c7ba5f6dc6e7b3652512",
    "sin_modulated-1": "3b91d963e38f07ec7fbf55e5dfa677327be702f910d53b09169d156df6e1a898",
    "sin_modulated-5": "29b3d2bea10e8ee333569169832d2c157a929b508247cb382ccc647ef47e724d",
}


def _solution_digest(sol) -> str:
    h = hashlib.sha256()
    for arr in (sol.x.values, sol.x.flagged, np.array(sol.refinement, dtype=np.float64)):
        h.update(repr((arr.dtype.str, arr.shape)).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(NONLINEAR_CASES))
def test_nonlinear_bytes_are_pinned(case):
    sol = NONLINEAR_CASES[case]()
    if case == "coarse":
        assert sol.substeps >= 4
    if case == "saturated":
        assert 0 < sol.x.n_flagged < sol.x.n_paths
        assert np.any(sol.x.values == 1e300)
    assert _solution_digest(sol) == NONLINEAR_DIGESTS[case]


def test_rk4_block_memory_stays_near_its_output():
    # The nonlinear workload's block: the time chunk's coefficient rows, the
    # stage vectors and the flag scan add at most 1.5 MiB to the saved states.
    model = NonlinearModel(
        a=1.0, multiplicative=MULT, envelope=NoiseSpec.ou(0.5, 1.0),
        nonlinearity=SIN_MODULATED,
    )
    grid = TimeGrid(0.02, 2500)
    zeta, phi = engine._block_noise(model, grid, 3, np.arange(2048))
    psi = engine._psi_function(model.nonlinearity)
    tracemalloc.start()
    try:
        saved = engine._rk4_block(model, grid, zeta, phi, psi, 2, 5)["X"]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert saved.shape == (2048, 501)
    assert peak < saved.nbytes + 1.5 * 2**20
