"""Quasi-norm estimators, rate fits, and finite-sample inequalities.

Numeric pins are hand-computed; the inequalities are theorems for any
empirical measure, so randomized inputs must never produce a failure.
"""
import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rmplab import metrics
from rmplab.blocks import BLOCK_CELLS
from rmplab.engine import LinearModel, PathEnsemble, solve_linear
from rmplab.errors import (
    DNonpositiveError,
    EmptyInputError,
    LengthMismatchError,
    NonpositiveValueError,
    RmplabError,
    WindowTooShortError,
)
from rmplab.grid import TimeGrid
from rmplab.metrics import (
    ensemble_moment_curves,
    exact_propagator_quasi_norm,
    fit_rate,
    fractional_moment,
    gamma_p,
    jensen_check,
    linear_moment_curves,
    quasi_norm,
    quasi_triangle_check,
    resolvable_horizon,
    sigma_p,
)
from rmplab.noise import NoiseSpec, y_variance_half
from rmplab.runner import _inequality_trials, _trial_samples
from peaks import traced_peak

finite_arrays = arrays(
    np.float64,
    st.integers(2, 40),
    elements=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)
positive_arrays = arrays(
    np.float64,
    st.integers(2, 40),
    elements=st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False),
)


def test_sigma_p():
    assert sigma_p(0.3) == 0.3
    assert sigma_p(1.0) == 1.0
    assert sigma_p(4.0) == 1.0


def test_quasi_norm_pinned_values():
    # p >= 1: usual L^p norm. E|f|^2 = 12.5 here.
    est = quasi_norm(np.array([3.0, 4.0]), 2.0)
    assert est.value == pytest.approx(np.sqrt(12.5))
    # p < 1: the moment itself, no outer power
    est_half = quasi_norm(np.array([4.0, 9.0]), 0.5)
    assert est_half.value == pytest.approx(0.5 * (2.0 + 3.0))
    assert est_half.sigma_p == 0.5


def test_quasi_norm_flag_handling_and_errors():
    x = np.array([1.0, 2.0, 1e9])
    est = quasi_norm(x, 1.0, flagged=np.array([False, False, True]))
    assert est.value == pytest.approx(1.5)
    assert est.flagged_excluded == 1
    with pytest.raises(EmptyInputError):
        quasi_norm(np.array([]), 1.0)
    with pytest.raises(LengthMismatchError):
        quasi_norm(x, 1.0, flagged=np.array([True]))
    with pytest.raises(ValueError):
        quasi_norm(x, 0.0)


def test_quasi_norm_kurtosis_instability_flag():
    calm = np.ones(1000) + 1e-3 * np.sin(np.arange(1000))
    spiked = np.ones(1000)
    spiked[0] = 1e6
    assert not quasi_norm(calm, 2.0).unstable
    assert quasi_norm(spiked, 2.0).unstable


def test_quasi_norm_survives_underflow_and_overflow():
    # |x|^2 underflows to 0 and overflows to inf in linear units
    tiny = quasi_norm(np.array([1e-162, 2e-162]), 2.0)
    assert tiny.value == pytest.approx(np.sqrt(2.5) * 1e-162, rel=1e-14)
    assert tiny.std_err == pytest.approx(
        quasi_norm(np.array([1.0, 2.0]), 2.0).std_err * 1e-162, rel=1e-14
    )
    huge = quasi_norm(np.array([1e155, 1e155]), 2.0)
    assert huge.value == pytest.approx(1e155, rel=1e-15)
    assert huge.std_err == 0.0
    spiked = np.ones(1000)
    spiked[0] = 1e6
    assert quasi_norm(1e-300 * spiked, 2.0).unstable
    assert quasi_norm(np.zeros(3), 0.5).value == 0.0


def test_fractional_moment_complex_shift():
    est = fractional_moment(np.array([1.0, -1.0]), 2.0, z=1j)
    assert est.value == pytest.approx(2.0)  # |1+i|^2 = |-1+i|^2 = 2
    assert est.raw_moment


def test_gamma_p_pinned_values_and_errors():
    assert gamma_p(1.0, 0.5, 0.5) == pytest.approx(-0.375)
    assert gamma_p(1.0, 0.5, 3.0) == pytest.approx(0.5)
    with pytest.raises(DNonpositiveError):
        gamma_p(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        gamma_p(1.0, 0.5, -1.0)


def test_exact_propagator_quasi_norm_formula():
    spec = NoiseSpec.ou(1.0, 0.5)
    ts = np.array([0.0, 2.0, 7.0])
    got = exact_propagator_quasi_norm(spec, 1.0, 2.0, ts)
    log_m = -2.0 * ts + 4.0 * y_variance_half(spec, ts)
    np.testing.assert_allclose(got, np.exp(0.5 * log_m), rtol=1e-13)
    assert got[0] == 1.0


def test_resolvable_horizon_matches_closed_form():
    # d(t) = 0.5 t - 0.25 (1 - e^{-2t}); budget ln(n/30)/p^2 binds at
    # t* with d(t*) = budget, i.e. t* ~ 2 budget + 0.5 once e^{-2t} dies.
    spec = NoiseSpec.ou(1.0, 0.5)
    n = 50_000
    t_cap = resolvable_horizon(spec, 1.0, n, 40.0)
    budget = np.log(n / 30.0)
    assert abs(0.5 * t_cap - 0.25 * (1 - np.exp(-2 * t_cap)) - budget) < 1e-9
    # passthrough when the whole range is resolvable
    assert resolvable_horizon(spec, 0.25, n, 20.0) == 20.0
    # monotone: smaller samples and higher orders see less
    assert resolvable_horizon(spec, 1.0, 1000, 40.0) < t_cap
    assert resolvable_horizon(spec, 2.0, n, 40.0) < t_cap
    with pytest.raises(ValueError):
        resolvable_horizon(spec, 0.0, n, 40.0)
    with pytest.raises(EmptyInputError):
        resolvable_horizon(spec, 1.0, 10, 40.0)


@given(c=st.floats(-50.0, 50.0), p=st.floats(0.1, 4.0))
@settings(max_examples=60, deadline=None)
def test_quasi_norm_scaling_law(c, p):
    x = np.array([0.3, -1.2, 5.0, 2.2])
    lhs = quasi_norm(c * x, p).value
    rhs = abs(c) ** sigma_p(p) * quasi_norm(x, p).value
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


@given(x=finite_arrays, p=st.floats(0.1, 1.0), q=st.floats(1.0, 4.0))
@settings(max_examples=60, deadline=None)
def test_raw_moments_are_lyapunov_ordered(x, p, q):
    # (E|f|^p)^(1/p) <= (E|f|^q)^(1/q) for p <= q
    mp = fractional_moment(x, p).value ** (1.0 / p)
    mq = fractional_moment(x, q).value ** (1.0 / q)
    assert mp <= mq * (1.0 + 1e-9) + 1e-12


def test_fit_rate_recovers_exact_exponential():
    t = np.linspace(0.0, 10.0, 21)
    v = np.exp(1.3 - 0.7 * t)
    fit = fit_rate(t, v)
    assert fit.slope == pytest.approx(-0.7, abs=1e-12)
    assert fit.intercept == pytest.approx(1.3, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0)
    assert not fit.weighted


def test_fit_rate_weighting_suppresses_noise_drowned_nodes():
    t = np.linspace(0.0, 10.0, 21)
    v = np.exp(-0.5 * t)
    se = 0.01 * v
    # corrupt the late tail exactly where the error bars blow up
    v_bad = v.copy()
    v_bad[-6:] *= np.exp(np.linspace(0.5, 3.0, 6))
    se_bad = se.copy()
    se_bad[-6:] = 50.0 * v_bad[-6:]
    weighted = fit_rate(t, v_bad, std_errs=se_bad)
    unweighted = fit_rate(t, v_bad)
    assert abs(weighted.slope + 0.5) < 0.01
    assert abs(unweighted.slope + 0.5) > 0.05
    assert weighted.weighted


@settings(max_examples=300, deadline=None)
@given(
    t0=st.floats(0.0, 100.0),
    step=st.floats(1e-3, 10.0),
    rows=st.lists(
        st.tuples(st.floats(min_value=5e-324, max_value=np.finfo(np.float64).max), st.floats()),
        min_size=3,
        max_size=30,
    ),
    weighted=st.booleans(),
)
@example(  # every weight (1 / 5e-324)^2 overflows
    t0=0.0, step=1.0, rows=[(float(np.exp(-k)), 5e-324) for k in range(6)], weighted=True
)
@example(  # values near 1e308 over an SE of 1e-10
    t0=0.0, step=1.0, rows=[(1e308 / 2.0**k, 1e-10) for k in range(6)], weighted=True
)
@example(  # weights near 1e-320: the weighted slope variance overflows
    t0=0.0, step=1.0, rows=[(1e-160 / 2.0**k, 1.0) for k in range(6)], weighted=True
)
def test_fit_rate_refuses_or_returns_a_finite_fit(t0, step, rows, weighted):
    # On a uniform time grid, any positive values and any per-node errors
    # give a finite slope and SE with r_squared <= 1, or an RmplabError;
    # errors the weights cannot use give the unweighted fit.
    v, se = (np.array(col) for col in zip(*rows))
    t = t0 + step * np.arange(v.size)
    try:
        fit = fit_rate(t, v, std_errs=se if weighted else None)
    except RmplabError:
        return
    assert np.isfinite(fit.slope) and np.isfinite(fit.slope_std_err)
    assert fit.r_squared <= 1.0
    if not fit.weighted:
        assert fit == fit_rate(t, v)


def test_fit_rate_window_and_input_errors():
    t = np.linspace(0.0, 10.0, 21)
    v = np.exp(-t)
    with pytest.raises(WindowTooShortError):
        fit_rate(t, v, (9.2, 10.0))
    with pytest.raises(NonpositiveValueError):
        fit_rate(t, 0.0 * v)
    with pytest.raises(LengthMismatchError):
        fit_rate(t, v[:-1])


@given(u=positive_arrays, p=st.floats(0.05, 1.0))
@example(u=np.array([5e-324, 5e-324]), p=0.5)  # mean(u*v) underflowed to 0
@settings(max_examples=80, deadline=None)
def test_jensen_inequality_never_fails(u, p):
    v = np.abs(np.sin(u)) + 0.1  # arbitrary positive companion
    assert jensen_check(u, v, p).passed


def test_jensen_equality_at_p_one():
    u = np.array([1.0, 2.0, 3.0])
    v = np.array([2.0, 0.5, 1.0])
    rep = jensen_check(u, v, 1.0)
    assert rep.passed and rep.lhs == pytest.approx(rep.rhs, rel=1e-14)
    with pytest.raises(ValueError):
        jensen_check(u, v, 1.5)
    with pytest.raises(ValueError):
        jensen_check(-u, v, 0.5)


def test_jensen_survives_underflow_after_scaling():
    # E[UV] underflows even once U and V are divided by their maxima
    assert jensen_check(np.array([1.0, 5e-324]), np.array([0.0, 1.0]), 0.05).passed


def test_jensen_equality_at_p_one_near_underflow():
    u = np.array([1.0, 2.0, 3.0]) * 1e-300
    v = np.array([2.0, 0.5, 1.0])
    rep = jensen_check(u, v, 1.0)
    assert rep.passed and rep.lhs == rep.rhs
    assert rep.lhs == pytest.approx(2e-300, rel=1e-12)


@pytest.mark.parametrize(
    "f, g, alpha, p",
    [
        ([1e-162], [1e-162], 1.0, 2.0),  # rhs underflowed to 0
        ([1.0], [1e-162], 1e-162, 2.0),  # fails with one scale shared by f and g
        ([1e154], [1e154], 1.0, 2.0),  # lhs overflowed to inf
        ([3e-162], [0.0], 1e-162, 0.1),  # alpha f rounds in the subnormal range
    ],
)
def test_quasi_triangle_survives_underflow_and_overflow(f, g, alpha, p):
    rep = quasi_triangle_check(np.array(f), np.array(g), alpha, p)
    assert rep.passed
    assert np.isfinite(rep.lhs) and rep.lhs > 0.0


def test_inequality_checks_reject_non_finite_input():
    x = np.array([1.0, np.inf])
    with pytest.raises(ValueError):
        jensen_check(x, np.ones(2), 0.5)
    with pytest.raises(ValueError):
        quasi_triangle_check(x, np.ones(2), 1.0, 2.0)
    with pytest.raises(ValueError):
        quasi_triangle_check(np.ones(2), np.ones(2), np.nan, 2.0)


@given(
    f=finite_arrays,
    alpha=st.floats(-20.0, 20.0),
    p=st.floats(0.1, 3.0),
)
@settings(max_examples=80, deadline=None)
def test_quasi_triangle_never_fails(f, alpha, p):
    g = np.cos(f) * 3.0  # paired companion of the same length
    assert quasi_triangle_check(f, g, alpha, p).passed


# Trial 3 of the verify stage's trials at master seed 3: heavy, alpha = 0.0464,
# max|alpha f| = 0.78 against max|g| = 10.27.  At p = 300 a frame shared by
# both sides underflowed ||alpha f||_p and read lhs 10.169 > rhs 10.085.
_, _, TRIAL_3_F, TRIAL_3_G, TRIAL_3_ALPHA = _trial_samples(3, 3, 256)

paired_arrays = st.integers(1, 40).flatmap(
    lambda n: st.tuples(
        *[arrays(np.float64, n, elements=st.floats(-1e6, 1e6, allow_nan=False))] * 2
    )
)


@given(fg=paired_arrays, alpha=st.floats(-20.0, 20.0), p=st.floats(1.0, 1e4))
@example(fg=(TRIAL_3_F, TRIAL_3_G), alpha=TRIAL_3_ALPHA, p=300.0)
@settings(max_examples=80, deadline=None)
def test_minkowski_holds_at_high_orders(fg, alpha, p):
    f, g = fg
    assert quasi_triangle_check(f, g, alpha, p).passed


def test_verify_trials_pass_at_high_orders():
    # the shared frame failed 5, 52 and 88 of these 200 trials at p = 300, 500 and 1000
    for p in (300.0, 500.0, 1000.0, 1e4):
        assert _inequality_trials(3, 200, 256, [p]) == 0


@pytest.mark.parametrize("master_seed", range(5))
def test_verify_trials_pass_at_the_default_request(master_seed):
    # the C10 default: 1,000 trials of 256 atoms at orders 0.3, 0.7, 1 and 2
    assert _inequality_trials(master_seed, 1000, 256, [0.3, 0.7, 1.0, 2.0]) == 0


# Magnitudes the checks must keep exact: subnormals, the ends of the float
# range and the scales where squares under- or overflow.
EDGES = [5e-324, 1e-310, 1e-300, 1e-162, 1.0, 1e162, 1e300, 1.7e308]


@st.composite
def paired_batches(draw):
    """(f, g, alpha) with f, g of shape (k, n) and one alpha per row.

    Each row is drawn free, constant, zero in f or g, or with f and g on
    disjoint supports; alpha is 0 on some rows.
    """
    k, n = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    value = st.one_of(st.sampled_from(EDGES), st.floats(0.0, 1e6))
    signed = st.builds(lambda x, s: s * x, value, st.sampled_from([1.0, -1.0]))
    f, g = (draw(arrays(np.float64, (k, n), elements=signed)) for _ in range(2))
    for row in range(k):
        shape = draw(st.sampled_from(["free", "constant", "zero f", "zero g", "disjoint"]))
        if shape == "constant":
            f[row] = f[row, 0]
        elif shape == "zero f":
            f[row] = 0.0
        elif shape == "zero g":
            g[row] = 0.0
        elif shape == "disjoint":
            g[row, f[row] != 0.0] = 0.0
    alpha = draw(arrays(np.float64, k, elements=st.one_of(st.just(0.0), signed)))
    return f, g, alpha


def _sides(report, row=None):
    """lhs and rhs as bytes, so -0.0 and 0.0 differ, and passed."""
    lhs, rhs, passed = report.lhs, report.rhs, report.passed
    if row is not None:
        lhs, rhs, passed = lhs[row], rhs[row], passed[row]
    return np.array([lhs, rhs]).tobytes(), bool(passed)


@given(
    batch=paired_batches(),
    p=st.one_of(st.sampled_from([0.01, 0.3, 1.0, 2.0, 300.0]), st.floats(0.01, 1e3)),
)
@settings(max_examples=150, deadline=None)
def test_batched_checks_decide_every_row_as_the_one_dimensional_call(batch, p):
    f, g, alpha = batch
    triangle = quasi_triangle_check(f, g, alpha, p)
    jensen = jensen_check(np.abs(f), np.abs(g), min(p, 1.0))
    assert triangle.passed.shape == jensen.passed.shape == alpha.shape
    for row in range(len(f)):
        one = quasi_triangle_check(f[row], g[row], float(alpha[row]), p)
        assert type(one.lhs) is float and type(one.passed) is bool
        assert _sides(one) == _sides(triangle, row)
        one = jensen_check(np.abs(f[row]), np.abs(g[row]), min(p, 1.0))
        assert _sides(one) == _sides(jensen, row)
    assert triangle.passed.all() and jensen.passed.all()


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, -1.0])
def test_a_bad_row_fails_the_batch_as_its_one_dimensional_call(bad):
    ok = np.ones((3, 4))
    x = ok.copy()
    x[1, 2] = bad
    with pytest.raises(ValueError) as one:
        jensen_check(x[1], ok[1], 0.5)
    with pytest.raises(one.type):
        jensen_check(x, ok, 0.5)
    if bad == -1.0:  # the triangle bound takes signed samples
        assert quasi_triangle_check(x, ok, 1.0, 2.0).passed.all()
        return
    with pytest.raises(ValueError) as one:
        quasi_triangle_check(ok[1], x[1], 1.0, 2.0)
    with pytest.raises(one.type):
        quasi_triangle_check(ok, x, 1.0, 2.0)
    with pytest.raises(one.type):
        quasi_triangle_check(ok, ok, np.array([1.0, bad, 1.0]), 2.0)


def test_batched_checks_refuse_mismatched_shapes():
    with pytest.raises(LengthMismatchError):
        jensen_check(np.ones((2, 3)), np.ones((3, 2)), 0.5)
    with pytest.raises(LengthMismatchError):
        quasi_triangle_check(np.ones((2, 3)), np.ones((2, 3)), np.ones(3), 2.0)
    with pytest.raises(EmptyInputError):
        quasi_triangle_check(np.ones((2, 0)), np.ones((2, 0)), 1.0, 2.0)


def test_moment_curves_match_direct_estimates():
    model = LinearModel(
        a=1.0, multiplicative=NoiseSpec.ou(1.0, 0.5), additive=NoiseSpec.ou(0.3, 0.5)
    )
    grid = TimeGrid(dt=0.01, n_steps=200)
    curves = linear_moment_curves(model, grid, 7, 700, [0.5, 2.0], save_every=10)
    sol = solve_linear(model, grid, 7, 700, save_every=10, block_size=256)

    for p in (0.5, 2.0):
        direct = quasi_norm(sol["X"].values[:, -1], p, flagged=sol["X"].flagged)
        times, vals, ses = curves.curve(p)
        assert vals[-1] == pytest.approx(direct.value, rel=1e-12)
        assert ses[-1] == pytest.approx(direct.std_err, rel=1e-9)
    assert curves.n == 700
    est = curves.estimate(2.0, 0)
    assert est.value == pytest.approx(abs(model.x0))


# More than 2,048 paths, so the power sums span three fixed path groups.
GROUPED_MODEL = LinearModel(
    a=1.0, multiplicative=NoiseSpec.ou(1.0, 0.5), additive=NoiseSpec.ou(0.3, 0.5)
)
GROUPED_GRID = TimeGrid(dt=0.02, n_steps=40)
GROUPED_DIGEST = "c9a0b6c483c36fc6cf3aa0ed0a6347c85e9baaa6eec296dea9c67b71ba5a189a"


def _curve_digest(curves) -> str:
    h = hashlib.sha256()
    for arr in (curves.value, curves.std_err, curves.unstable):
        h.update(repr((arr.dtype.str, arr.shape)).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def test_grouped_moment_curve_bytes_are_pinned():
    curves = linear_moment_curves(
        GROUPED_MODEL, GROUPED_GRID, 11, 4500, [0.5, 2.0], save_every=4
    )
    assert _curve_digest(curves) == GROUPED_DIGEST


# Every 7th path flagged and a complex shift z, on 11 saved nodes.
SHIFTED_DIGEST = "fcb15232d475d926ab2851a00240c6726be6ea75fb5676cf92db3fbf102cd037"


def _whole_power_sums(vals, p_values, z):
    """Reference: the power sums of one group over all its nodes at once."""
    out = np.empty((len(p_values), 4, vals.shape[1]))
    base = np.abs(vals + z) if z else np.abs(vals)
    for i, p in enumerate(p_values):
        w = base**p
        out[i] = [w.sum(axis=0), (w * w).sum(axis=0), (w * w * w).sum(axis=0),
                  ((w * w) * (w * w)).sum(axis=0)]
    return out


@pytest.mark.parametrize("cells", [1, 3 * 2048, 7 * 2048, 10**9])
def test_column_slices_keep_the_curve_bytes(monkeypatch, cells):
    # Slices 2, about 3, about 7 columns wide and whole: a one-column slice
    # would be summed pairwise and move bits, so none is ever made.  The
    # slices take BLOCK_CELLS // 4 cells.
    x = solve_linear(GROUPED_MODEL, GROUPED_GRID, 11, 4500, save_every=4)["X"]
    flagged = x.flagged.copy()
    flagged[::7] = True
    ens = PathEnsemble(grid=x.grid, label="X", values=x.values, flagged=flagged, master_seed=11)
    monkeypatch.setattr(metrics, "BLOCK_CELLS", 4 * cells)
    z = 0.25 + 0.5j
    for lo in (0, 2048, 4096):
        rows = np.flatnonzero(~flagged[lo : lo + 2048]) + lo
        sums = metrics._power_sums(ens.values, rows, (0.5, 2.0), z)
        assert sums.tobytes() == _whole_power_sums(ens.values[rows], (0.5, 2.0), z).tobytes()
    assert _curve_digest(ensemble_moment_curves(ens, [0.5, 2.0], z=z)) == SHIFTED_DIGEST


def test_power_sums_hold_under_one_workspace_slot():
    # A 2,048-path group on 301 nodes at three orders: four arrays of a
    # BLOCK_CELLS // 4 slice, where five of BLOCK_CELLS each held 12 MB.
    x = np.random.default_rng(3).lognormal(size=(2048, 301))
    with traced_peak() as peak:
        metrics._power_sums(x, np.arange(2048), (1.0, 2.0, 3.0), 0.0)
    assert peak.bytes < 1.1 * 8 * BLOCK_CELLS


def test_ensemble_moment_curves_agree_with_streaming():
    # The path groups are fixed, so neither the block layout nor the
    # worker count of the solve moves a bit of the curves.
    streamed = linear_moment_curves(
        GROUPED_MODEL, GROUPED_GRID, 11, 4500, [0.5, 2.0], save_every=4
    )
    for layout in ({"block_size": 7}, {"workers": 2}):
        sol = solve_linear(GROUPED_MODEL, GROUPED_GRID, 11, 4500, save_every=4, **layout)
        from_ens = ensemble_moment_curves(sol["X"], [0.5, 2.0])
        for name in ("value", "std_err", "unstable"):
            assert np.array_equal(getattr(from_ens, name), getattr(streamed, name))
        assert (from_ens.n, from_ens.excluded) == (streamed.n, streamed.excluded)


def test_streamed_curves_refuse_an_all_flagged_ensemble():
    # a < 0 drives every path past the exponent budget
    model = LinearModel(
        a=-10.0, multiplicative=NoiseSpec.ou(1.0, 0.5), additive=NoiseSpec.ou(0.3, 0.5)
    )
    grid = TimeGrid(dt=0.01, n_steps=8000)
    with pytest.raises(EmptyInputError, match="every path is flagged"):
        linear_moment_curves(model, grid, 1, 8, [0.5, 1.0], save_every=100)


def test_moment_curves_drop_flagged_paths():
    grid = TimeGrid(dt=0.5, n_steps=2)
    values = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1e308, 1e308]])
    ens = PathEnsemble(
        grid=grid, label="X", values=values,
        flagged=np.array([False, False, True]), master_seed=0,
    )
    curves = ensemble_moment_curves(ens, [2.0])
    assert curves.excluded == 1
    np.testing.assert_allclose(curves.value[0], np.ones(3))
