"""Nonlinear solver: degenerate reductions, the envelope sandwich and the
pilot that chooses the RK4 substep count.

The solver's bytes are pinned by sha256 digests, so a rewrite of the RK4
kernel's buffering cannot move a single output bit.
"""
import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from rmplab.noise import SHIPPED_GAUSSIAN_SPECS, NoiseSpec
from peaks import traced_peak

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
    # the pilot stops at the smallest count within the bias budget
    grid = TimeGrid(dt=0.2, n_steps=20)  # deliberately coarse
    model = NonlinearModel(
        a=1.0, multiplicative=MULT, envelope=ENV, nonlinearity=SIN_MODULATED, x0=1.0
    )
    sol = solve_nonlinear(model, grid, 4, 512)
    counts = [s for s, _ in sol.refinement]
    assert counts == [2**i for i in range(len(counts))]
    assert sol.substeps == counts[-2] >= 2
    # the pilot's verdict at every doubling, recomputed from one sweep of its counts
    tail, runs, spread = _pilot_runs(model, grid, 4, 512, tuple(counts))
    verdicts = [
        engine._step_bias(c, f, spread, 0.5, 512, tail.size) for c, f in zip(runs, runs[1:])
    ]
    assert [v[2] for v in verdicts] == [False] * (len(counts) - 2) + [True]
    assert (sol.step_bias, sol.mc_se) == verdicts[-1][:2]
    assert 0.0 < sol.step_bias <= engine.BIAS_SE_FRACTION * sol.mc_se


def test_ensembles_without_spread_get_a_count():
    # One path: the pilot's keyed paths still measure the spread, so the
    # one path's Monte Carlo error is that spread, and count 1 stands.
    grid = TimeGrid(dt=0.4, n_steps=15)
    one = solve_nonlinear(_nl(CLIPPED), grid, 3, 1)
    assert one.substeps == 1 and one.x.values.shape == (1, 16)
    assert 0.0 < one.step_bias <= engine.BIAS_SE_FRACTION * one.mc_se
    # No noise at all: every path is the same, its spread is rounding, so
    # the error is MC_SE_FLOOR of the moment and the count is refined until
    # the relative bias is at most BIAS_SE_FRACTION * MC_SE_FLOOR.
    for envelope in (NoiseSpec.zero(), NoiseSpec.constant(0.5)):
        still = NonlinearModel(
            a=1.0, multiplicative=NoiseSpec.zero(), envelope=envelope,
            nonlinearity=SIN_MODULATED, x0=1.0,
        )
        sol = solve_nonlinear(still, grid, 3, 64)
        x = sol.x.values[:, -1]
        assert np.all(x == x[0]) and sol.substeps >= 2
        # refinement[0] is the pilot's E|X_T|^0.5 at count 1, as is the spread
        assert sol.mc_se == pytest.approx(engine.MC_SE_FLOOR * sol.refinement[0][1], rel=1e-9)
        assert sol.step_bias <= engine.BIAS_SE_FRACTION * sol.mc_se


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

    drawn = []
    real = noise.block_normals

    def counted(*args):
        out = real(*args)
        drawn.append(out.size)
        return out

    model = NonlinearModel(
        a=1.0, multiplicative=MULT, envelope=ENV, nonlinearity=SIN_MODULATED, x0=1.0
    )
    grid = TimeGrid(dt=dt, n_steps=n_steps)
    # 7-step time chunks in the 16-path blocks, shorter ones in the pilot
    # of 24 keyed paths and its tail, so the draws come in pieces
    monkeypatch.setattr(noise, "BLOCK_CELLS", 16 * (7 + 1))
    monkeypatch.setattr(engine, "PILOT_PATHS", 24)
    pilot = 24 + _pilot_runs(model, grid, 4, 40, (1,))[0].size
    monkeypatch.setattr(noise, "block_normals", counted)
    sol = solve_nonlinear(model, grid, 4, 40, block_size=16)
    # the production pass integrates count 1, and again the chosen count if
    # that is higher; the pilot reads count 1 from it, and every pilot pass
    # integrates one doubled count
    passes = len(sol.refinement) - 1
    productions = 1 + (sol.substeps > 1)
    assert [s for s, _ in sol.refinement] == [2**i for i in range(len(sol.refinement))]
    # zeta and phi, once per pilot pass over the pilot and once per
    # production pass over every block
    assert sum(drawn) == 2 * grid.n_nodes * (pilot * passes + 40 * productions)
    assert len(drawn) > 2 * 3 * (passes + productions)
    assert passes == (1 if dt == 0.05 else 2)


def test_refinement_respects_max_refines(monkeypatch):
    # "coarse" needs substeps 2 and "saturated" 8 (test_nonlinear_bytes_are_pinned)
    coarse, saturated = NONLINEAR_CASES["coarse"], NONLINEAR_CASES["saturated"]
    calls = _counting(monkeypatch, engine, "_rk4_sweep")

    def sweeps():  # (paths, substep count, save_every) of each sweep since the last call
        out = [(len(c[3]), c[5], c[6]) for c in calls]
        calls.clear()
        return out

    # the pilot reads count 1 from the production sweep and keeps only the horizon
    monkeypatch.setattr(engine, "MAX_REFINES", 1)
    with pytest.raises(RuntimeError, match="did not settle"):
        coarse()
    done = sweeps()
    pilot = done[1][0]  # the keyed 128 and the tail
    assert pilot > 128
    assert done == [(2048, 1, 3), (pilot, 2, 15)]
    monkeypatch.setattr(engine, "MAX_REFINES", 2)
    assert coarse().substeps == 2
    assert sweeps() == [(2048, 1, 3), (pilot, 2, 15), (pilot, 4, 15), (2048, 2, 3)]
    monkeypatch.setattr(engine, "MAX_REFINES", 3)
    with pytest.raises(RuntimeError, match="did not settle"):
        saturated()
    # 40 paths: the pilot is the keyed 128 alone, and keyed paths 40 .. 127
    # get a count-1 sweep of their own
    assert sweeps() == [(40, 1, 10), (88, 1, 710), (128, 2, 710), (128, 4, 710), (128, 8, 710)]


def test_a_stride_that_does_not_divide_the_steps_is_refused_before_any_sweep(monkeypatch):
    calls = _counting(monkeypatch, engine, "_rk4_sweep")
    with pytest.raises(ValueError, match="stride"):
        solve_nonlinear(_nl(CLIPPED), TimeGrid(0.05, 45), 1, 8, save_every=7)
    assert calls == []


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
        # the pilot is keyed paths, so the layout cannot move the choice
        assert (sol.substeps, sol.refinement, sol.step_bias, sol.mc_se) == (
            one.substeps, one.refinement, one.step_bias, one.mc_se
        )


def _nl(kind: str, a: float = 1.0) -> NonlinearModel:
    return NonlinearModel(a=a, multiplicative=MULT, envelope=ENV, nonlinearity=kind, x0=1.0)


# 2,048 paths make the kernel's coefficient rows span several time chunks,
# with a partial last one; "coarse" refines to 2 substeps; "saturated" has
# a = -20 drive 32 of 40 paths past overflow, so saturated values and
# flags are pinned too, and its unflagged states near 1e305 refine to 8
# substeps; "three_scale" draws a superposition beside a plain OU envelope.
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
        _nl(SIN_MODULATED), TimeGrid(0.4, 15), 4, 2048, save_every=3
    ),
    "saturated": lambda: solve_nonlinear(
        _nl(CLIPPED, a=-20.0), TimeGrid(0.05, 710), 5, 40, save_every=10
    ),
    "three_scale": lambda: solve_nonlinear(
        NonlinearModel(
            a=1.0, multiplicative=SHIPPED_GAUSSIAN_SPECS["three_scale"],
            envelope=NoiseSpec.ou(0.5, 1.0), nonlinearity=SIN_MODULATED, x0=1.0,
        ),
        TimeGrid(0.05, 45), 12, 2048, save_every=5,
    ),
}

NONLINEAR_DIGESTS = {
    "clipped-1": "dfe469900d481f3c1179635e3d4489ad8322ae9dfe459217a637b4d1429ed071",
    "clipped-5": "049d0aa58cd0d4bba3b9dcd3e7002444bd19758a132911e2af1bb7aa01c7e96d",
    "coarse": "4bd9ae9495670f1e305e2420a20ae37983761f118780b7249747e64e7771d777",
    "envelope_itself-1": "8b504df0fd2696f3e5f1973a892a31ab2bd92ffc6e5dc793cac87bf84da1d4ec",
    "envelope_itself-5": "11fd7715240015423b0c0da54a0c324e7c3076686be6f33426e4eaea876a2160",
    "saturated": "aaf9db20d7c5d5ae29e2d368ba47b42958881a99170660704c49ccc2487d7cda",
    "sin_modulated-1": "94ff3b27aa2c575792cda3a271043fec700a4f41520d659be64ab4ebe4bf73a5",
    "sin_modulated-5": "59a06d6083917f61615d218ae2043a03baefaf3afb9d9ed4b8c37a1162314079",
    "three_scale": "7a72aafefaf659ecb95e47fb5e4c902ea458c0ea4ffa924c8b1df1a87b9ccc24",
}


def _solution_digest(sol) -> str:
    h = hashlib.sha256()
    choice = np.array([sol.substeps, sol.step_bias, sol.mc_se], dtype=np.float64)
    for arr in (sol.x.values, sol.x.flagged, np.array(sol.refinement, dtype=np.float64), choice):
        h.update(repr((arr.dtype.str, arr.shape)).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(NONLINEAR_CASES))
def test_nonlinear_bytes_are_pinned(case):
    sol = NONLINEAR_CASES[case]()
    if case == "coarse":
        assert sol.substeps >= 2
    if case == "saturated":
        assert 0 < sol.x.n_flagged < sol.x.n_paths
        assert np.any(sol.x.values == 1e300)
    assert _solution_digest(sol) == NONLINEAR_DIGESTS[case]


@pytest.mark.parametrize("steps", [3, 7])
@pytest.mark.parametrize("case", sorted(NONLINEAR_CASES))
def test_time_chunks_do_not_change_the_bytes(monkeypatch, case, steps):
    from rmplab import noise

    # steps-step time chunks in the 2,048-path blocks, longer ones in "saturated"'s 40
    monkeypatch.setattr(noise, "BLOCK_CELLS", 2048 * (steps + 1))
    assert _solution_digest(NONLINEAR_CASES[case]()) == NONLINEAR_DIGESTS[case]


def _horizon(model, grid, seed, indices, s):
    """(x, flagged) at the horizon of the given paths at s substeps."""
    psi = engine._psi_function(model.nonlinearity)
    saved, flagged, _ = engine._rk4_sweep(model, grid, seed, indices, psi, s, grid.n_steps)
    return saved[:, -1], flagged


def _pilot_runs(model, grid, seed, n_paths, counts):
    """The solve's pilot, rebuilt: the tail (ensemble paths stiffer or larger
    at count 1 than every keyed pilot path), the pilot's horizon runs at
    counts and the count-1 horizon states of keyed paths
    0 .. max(n_paths, PILOT_PATHS) - 1."""
    psi = engine._psi_function(model.nonlinearity)
    n, keyed = max(n_paths, engine.PILOT_PATHS), engine.PILOT_PATHS
    saved, flagged, stiffness = engine._rk4_sweep(model, grid, seed, np.arange(n), psi, 1, grid.n_steps)
    spread = (saved[:, -1], flagged)
    size = np.where(spread[1], 0.0, np.abs(spread[0]))
    outside = slice(keyed, n_paths)
    tail = keyed + np.flatnonzero(
        (stiffness[outside] > stiffness[:keyed].max()) | (size[outside] > size[:keyed].max())
    )
    pilot = np.concatenate([np.arange(engine.PILOT_PATHS), tail])
    return tail, [_horizon(model, grid, seed, pilot, s) for s in counts], spread


def _gaps(runs) -> tuple[np.ndarray, np.ndarray]:
    """Per-path gaps |x_2s|^0.5 - |x_s|^0.5 of two horizon runs, and where
    both are unflagged."""
    (xs, fs), (xf, ff) = runs
    return np.abs(xf) ** 0.5 - np.abs(xs) ** 0.5, ~(fs | ff)


def test_pilot_chooses_what_the_whole_ensemble_would():
    # The rule, run with all 2,048 paths as its pilot, rejects count s / 2
    # and accepts the count s the pilot chose.
    sol = NONLINEAR_CASES["coarse"]()
    s = sol.substeps
    assert s >= 2  # the coarse grid still refines past count 1
    model, grid = _nl(SIN_MODULATED), TimeGrid(0.4, 15)
    tail, runs, spread = _pilot_runs(model, grid, 4, 2048, (s, 2 * s))
    assert sol.step_bias == engine._step_bias(*runs, spread, 0.5, 2048, tail.size)[0]
    for count, verdict in ((s // 2, False), (s, True)):
        whole = [_horizon(model, grid, 4, np.arange(2048), c) for c in (count, 2 * count)]
        assert engine._step_bias(*whole, spread, 0.5, 2048, 0)[2] is verdict


@pytest.mark.parametrize(
    "model,grid,seed,carrier",
    [
        # one stiff path of 2,048 (gap -0.84) carries the whole-ensemble
        # mean; the keyed 128 alone miss it by 5.8 of their SEs
        (_nl(SIN_MODULATED), TimeGrid(0.4, 15), 4, 1993),
        # the nonlinear benchmark's model: the few states that have not
        # decayed carry the gap; the keyed 128 and the stiff tail alone
        # miss it by 38 SEs
        (
            NonlinearModel(
                a=1.0, multiplicative=MULT, envelope=NoiseSpec.ou(0.5, 1.0),
                nonlinearity=SIN_MODULATED,
            ),
            TimeGrid(0.02, 2500), 3, 772,
        ),
    ],
    ids=["coarse", "workload"],
)
def test_pilot_gap_agrees_with_the_whole_ensemble(model, grid, seed, carrier):
    # The pilot's coupled gap from the chosen count s to 2s agrees, within
    # 3 of its standard errors, with the gap over all 2,048 paths: the
    # path that carries the most of it is in the tail, counted path by path.
    s = solve_nonlinear(model, grid, seed, 2048, save_every=grid.n_steps).substeps
    tail, runs, _ = _pilot_runs(model, grid, seed, 2048, (s, 2 * s))
    assert carrier in tail
    gap, ok = _gaps(runs)
    keyed = engine.PILOT_PATHS
    bulk, rest = gap[:keyed][ok[:keyed]], gap[keyed:][ok[keyed:]]
    w = tail.size / 2048
    estimate = (1 - w) * bulk.mean() + w * rest.mean()
    gap, ok = _gaps([_horizon(model, grid, seed, np.arange(2048), c) for c in (s, 2 * s)])
    assert abs(gap[ok]).argmax() == carrier
    assert abs(estimate - gap[ok].mean()) <= 3.0 * (1 - w) * bulk.std() / np.sqrt(bulk.size)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


def _columns(rows, n):
    return [np.array(col) for col in zip(*rows)] if rows else [np.empty(0)] * n


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(st.tuples(_FINITE, _FINITE, st.booleans(), st.booleans()), max_size=40),
    spread=st.lists(st.tuples(_FINITE, st.booleans()), max_size=40),
    p=st.sampled_from([0.5, 1.0, 3.0]),
    n_paths=st.integers(1, 10**6),
    n_tail=st.integers(0, 40),
)
@example(  # all flagged
    rows=[(1e300, 1e300, True, False)] * 9, spread=[(1e300, True)] * 9, p=0.5, n_paths=40, n_tail=0
)
@example(  # zero-start fixed point
    rows=[(0.0, 0.0, False, False)] * 9, spread=[(0.0, False)] * 9, p=0.5, n_paths=64, n_tail=0
)
@example(  # constant, SD 0, no gap
    rows=[(2.5, 2.5, False, False)] * 9, spread=[(2.5, False)] * 9, p=3.0, n_paths=64, n_tail=0
)
@example(  # identical paths, SD 0, a gap: held to MC_SE_FLOOR
    rows=[(2.5, 2.6, False, False)] * 9, spread=[(2.5, False)] * 9, p=3.0, n_paths=1, n_tail=0
)
@example(  # a one-path tail
    rows=[(2.5, 2.5, False, False)] * 8 + [(9.0, 3.0, False, False)], spread=[(2.5, False)] * 9,
    p=0.5, n_paths=2048, n_tail=1,
)
@example(
    rows=[(5e-324, 1e-320, False, False), (0.0, 2e-323, False, False)], spread=[(5e-324, False)],
    p=3.0, n_paths=2, n_tail=1,
)
@example(
    rows=[(1.7e308, -1.6e308, False, False), (1e300, 1e305, False, False)],
    spread=[(1.7e308, False), (-1e-300, False)], p=3.0, n_paths=9, n_tail=0,
)
def test_step_bias_is_always_defined(rows, spread, p, n_paths, n_tail):
    xs, xf, fs, ff = _columns(rows, 4)
    xu, fu = _columns(spread, 2)
    fs, ff, fu = fs.astype(bool), ff.astype(bool), fu.astype(bool)
    n_tail = min(n_tail, len(rows), n_paths)
    bias, se, settled = engine._step_bias((xs, fs), (xf, ff), (xu, fu), p, n_paths, n_tail)
    assert isinstance(settled, bool)
    assert bias >= 0.0 and se >= 0.0  # neither is NaN
    ok = ~(fs | ff)
    if not np.any(np.concatenate([xs[ok], xf[ok], xu[~fu]])):
        assert (bias, se, settled) == (0.0, 0.0, True)  # nothing to measure: count s stands
    elif np.array_equal(np.abs(xs[ok]), np.abs(xf[ok])):
        assert (bias, settled) == (0.0, True)


@pytest.mark.parametrize("gap,settled", [(1e-9, True), (1e-3, False)])
def test_identical_paths_hold_the_gap_to_the_floor(gap, settled):
    # no spread, so the Monte Carlo error is MC_SE_FLOOR of the moment and
    # count s stands when the relative gap is at most 0.1 of that
    x, none = np.full(9, 2.5), np.zeros(9, dtype=bool)
    bias, se, verdict = engine._step_bias((x, none), (x * (1.0 + gap), none), (x, none), 1.0, 1, 0)
    assert se == pytest.approx(engine.MC_SE_FLOOR * 2.5)
    assert bias == pytest.approx(2.5 * gap)
    assert verdict is settled


def _solve_peak(t_max: float, save_every: int, multiplicative=MULT) -> tuple[int, int]:
    """tracemalloc peak of a solve of the nonlinear workload's 2,048-path block."""
    model = NonlinearModel(
        a=1.0, multiplicative=multiplicative, envelope=NoiseSpec.ou(0.5, 1.0),
        nonlinearity=SIN_MODULATED,
    )
    with traced_peak() as peak:
        sol = solve_nonlinear(
            model, TimeGrid(0.02, round(t_max / 0.02)), 3, 2048, save_every=save_every
        )
    return peak.bytes, sol.x.values.nbytes


def test_rk4_block_memory_stays_near_its_output():
    # The workload's block, 2,501 nodes saved every 5th: one time chunk of
    # noise per role, a generator per row and role, the coefficient rows,
    # the stage vectors and the ensemble's copy of the saved states stay
    # within 20 MiB of the saved states (whole noise paths were 82 MB).
    peak, saved = _solve_peak(50.0, 5)
    assert saved == 2048 * 501 * 8
    assert peak < saved + 20 * 2**20


def test_solve_memory_does_not_grow_with_the_horizon():
    # Four times the horizon at four times the output stride saves as many
    # states; only the number of noise chunks grows.  (t_max 50 -> 200
    # runs 16 s under tracemalloc, so the pair starts at t_max 10.)
    peak, saved = _solve_peak(10.0, 1)
    longer, same = _solve_peak(40.0, 4)
    assert same == saved
    assert longer < peak + 2 * 2**20


def test_superposition_solve_memory_does_not_grow_with_the_horizon():
    # A superposition streams through time like one OU component: it holds
    # one time chunk's K component draws and one scratch chunk, never its
    # whole paths.
    three_scale = SHIPPED_GAUSSIAN_SPECS["three_scale"]
    peak, saved = _solve_peak(10.0, 1, three_scale)
    longer, same = _solve_peak(40.0, 4, three_scale)
    assert same == saved
    assert longer < peak + 2 * 2**20
