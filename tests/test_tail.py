"""Exponent and diffusion estimators against synthetic ground truth.

Hill gets an exact inverse-CDF Pareto sample; the diffusion estimators
get both a noiseless synthetic ensemble (exact recovery) and simulated
noise paths (statistical agreement).  The boundedness diagnostic is
pinned against the closed-form envelope of its compensated moment.
"""
import numpy as np
import pytest
import scipy.special
import scipy.stats

from hypothesis import given, settings
from hypothesis import strategies as st

from rmplab import blocks
from rmplab.engine import LinearModel, PathEnsemble, integrate_y
from rmplab.errors import (
    InsufficientTailError,
    NoSignChangeError,
    SameSeedError,
    WindowTooLongError,
    WindowTooShortError,
)
from rmplab.grid import TimeGrid
from rmplab.metrics import _line_fit, linear_moment_curves
from rmplab.noise import NoiseSpec, sample_block
from rmplab.rng import ROLE_MULTIPLICATIVE
from rmplab.tail import (
    _T975,
    FLAG_NONSTABLE,
    KS_EXACT_MAX_N,
    _batch_ci,
    b_equals_h_test,
    b_h_replicates,
    condition1_diagnostic,
    dt_fit_d,
    dt_fit_sums,
    green_kubo_d,
    green_kubo_sums,
    hill_estimator,
    hill_k,
    moment_transition,
    transition_grid,
)
from held import dt_fit_of, green_kubo_of
from peaks import traced_peak

OU_HALF = NoiseSpec.ou(1.0, 0.5)
ADD = NoiseSpec.ou(0.3, 0.5)


def _noise_ensemble(spec, grid, seed, n):
    vals = sample_block(spec, grid, seed, np.arange(n), ROLE_MULTIPLICATIVE)
    return PathEnsemble(
        grid=grid, label="zeta", values=np.ascontiguousarray(vals.T),
        flagged=np.zeros(n, dtype=bool), master_seed=seed,
    )


# ------------------------------------------------------------------ hill


def test_hill_recovers_pareto_index():
    rng = np.random.Generator(np.random.Philox(key=np.array([7, 0], dtype=np.uint64)))
    samples = rng.uniform(size=100000) ** (-1.0 / 2.0)  # exact Pareto, alpha = 2
    report = hill_estimator(samples, k=1000, analytic=2.0)
    assert report.ci_low <= 2.0 <= report.ci_high
    assert abs(report.estimate - 2.0) < 0.2
    assert FLAG_NONSTABLE not in report.flags
    assert report.n_effective == 1000


def test_hill_flags_distribution_without_power_tail():
    rng = np.random.Generator(np.random.Philox(key=np.array([8, 0], dtype=np.uint64)))
    samples = rng.exponential(size=100000)
    report = hill_estimator(samples)
    assert FLAG_NONSTABLE in report.flags


def test_hill_default_k_and_input_guards():
    assert hill_k(100000, None) == int(np.ceil(100000**0.6))
    with pytest.raises(InsufficientTailError):
        hill_estimator(np.ones(10))
    with pytest.raises(InsufficientTailError):
        hill_estimator(np.arange(1.0, 101.0), k=5)
    with pytest.raises(InsufficientTailError):
        hill_estimator(np.arange(1.0, 101.0), k=60)
    with pytest.raises(InsufficientTailError):
        hill_estimator(np.ones(1000), k=50)  # all order statistics equal


def _pareto_with_ties(n_tied: int) -> np.ndarray:
    x = np.random.default_rng(3).pareto(2.0, 1000) + 1.0
    x[:n_tied] = x.max()
    return x


def test_hill_scan_point_with_tied_maxima_flags_nonstable():
    # 17 tied maxima make the scan point k = 16 degenerate; k = 64 and
    # the other scan points are fine and mutually consistent.
    report = hill_estimator(_pareto_with_ties(17))
    assert report.details["k"] == 64 and np.isfinite(report.estimate)
    assert [kk for kk, _ in report.details["k_scan"]] == [32, 64, 128, 256]
    assert FLAG_NONSTABLE in report.flags


def test_hill_ties_at_k_itself_raise():
    with pytest.raises(InsufficientTailError, match="degenerate"):
        hill_estimator(_pareto_with_ties(80))  # k = 64


@pytest.mark.parametrize("value, k", [(3.0, 20), (1e-300, 20), (1e300, 50)])
def test_hill_on_a_constant_sample_raises(value, k):
    # the mean of k equal logs rounds, so h read about 2e-16 where it is 0
    with pytest.raises(InsufficientTailError, match="degenerate"):
        hill_estimator(np.full(200, value), k)


# ----------------------------------------------------------- diffusion D


def test_green_kubo_on_zero_noise_is_zero():
    grid = TimeGrid(dt=0.05, n_steps=200)
    ens = _noise_ensemble(NoiseSpec.zero(), grid, 0, 64)
    report = green_kubo_of(ens, 2.0)
    assert report.estimate == 0.0


def test_green_kubo_recovers_ou_diffusion():
    grid = TimeGrid(dt=0.02, n_steps=500)
    ens = _noise_ensemble(OU_HALF, grid, 42, 4000)
    report = green_kubo_of(ens, 3.0, analytic=0.5)
    assert abs(report.estimate - 0.5) < 0.08
    assert report.ci_low < 0.5 < report.ci_high


def test_green_kubo_window_guard():
    grid = TimeGrid(dt=0.05, n_steps=100)
    ens = _noise_ensemble(OU_HALF, grid, 1, 40)
    with pytest.raises(WindowTooLongError):
        green_kubo_of(ens, 4.0)  # horizon is 5, cap is 2.5


def test_dt_fit_exact_on_synthetic_variance():
    # Y with E[Y^2]/2 = D t exactly: rows +-sqrt(2 D t)
    d_true = 0.37
    grid = TimeGrid(dt=0.1, n_steps=100)
    base = np.sqrt(2.0 * d_true * grid.times)
    values = np.vstack([base, -base] * 20)
    y = PathEnsemble(
        grid=grid, label="Y", values=values,
        flagged=np.zeros(40, dtype=bool), master_seed=0,
    )
    report = dt_fit_of(y, (2.0, 10.0))
    assert report.estimate == pytest.approx(d_true, abs=1e-12)


def test_dt_fit_recovers_ou_diffusion():
    grid = TimeGrid(dt=0.02, n_steps=1000)
    zeta = _noise_ensemble(OU_HALF, grid, 9, 4000)
    report = dt_fit_of(integrate_y(zeta), (8.0, 20.0), analytic=0.5)
    # a 95% CI is allowed to miss; closeness is the stable check here
    assert abs(report.estimate - 0.5) < 0.08
    assert report.ci_high - report.ci_low < 0.2


def test_dt_fit_window_guard():
    grid = TimeGrid(dt=0.1, n_steps=100)
    y = _noise_ensemble(OU_HALF, grid, 2, 40)
    with pytest.raises(WindowTooShortError):
        dt_fit_of(y, (9.8, 10.0))


def _fed(grid, zeta, y, sizes):
    """Green-Kubo's and dt_fit's sums fed the paths of zeta and y in groups of the given sizes."""
    lag_sums = green_kubo_sums(grid, 2.0, zeta.n_paths)
    squares = dt_fit_sums(grid, (2.0, 10.0), y.n_paths)
    lo = 0
    for size in sizes:
        lag_sums.add(zeta.values[lo : lo + size], zeta.flagged[lo : lo + size])
        squares.add(y.values[lo : lo + size], y.flagged[lo : lo + size])
        lo += size
    return lag_sums, squares


@st.composite
def _splits(draw, n=300):
    """Group sizes that split n paths at distinct cut points."""
    cuts = draw(st.lists(st.integers(1, n - 1), unique=True, max_size=40))
    return np.diff([0, *sorted(cuts), n]).tolist()


def _assert_fed_fits_are_one_feeds(sizes):
    # 15-path batches: groups end inside batches and may hold a single
    # path; the sums carried over them keep every bit.
    grid = TimeGrid(dt=0.1, n_steps=100)
    zeta = _noise_ensemble(OU_HALF, grid, 6, 300)
    y = integrate_y(zeta)
    lag_sums, squares = _fed(grid, zeta, y, sizes)
    assert green_kubo_d(lag_sums, 2.0, analytic=0.5) == green_kubo_of(zeta, 2.0, analytic=0.5)
    assert dt_fit_d(squares, (2.0, 10.0)) == dt_fit_of(y, (2.0, 10.0))


@pytest.mark.parametrize(
    "sizes", [[300], [7, 1, 150, 142], [1] * 300], ids=["one", "uneven", "rows"]
)
def test_fits_fed_in_groups_are_the_fits_of_the_held_ensemble(sizes):
    _assert_fed_fits_are_one_feeds(sizes)


@given(sizes=_splits())
@settings(max_examples=40, deadline=None)
def test_any_split_of_the_fed_paths_gives_the_fits_of_one_feed(sizes):
    _assert_fed_fits_are_one_feeds(sizes)


def test_dt_fit_node_means_are_row_by_row_sums_of_the_squares():
    # Each node's mean of Y^2 adds the paths' squares row after row and
    # divides by n, whatever the memory layout of the rows it is fed.
    grid = TimeGrid(dt=0.1, n_steps=100)
    y = integrate_y(_noise_ensemble(OU_HALF, grid, 6, 1200))
    window = (2.0, 10.0)
    nodes = (grid.times >= window[0]) & (grid.times <= window[1])
    total = np.zeros(int(nodes.sum()))
    for row in y.values[:, nodes]:
        total = total + row * row
    means = total / 1200
    want = _line_fit(grid.times[nodes], 0.5 * means, None)[0]
    for values in (y.values, np.asfortranarray(y.values)):
        sums = dt_fit_sums(grid, window, 1200)
        sums.add(values, y.flagged)
        seen = []
        sums.estimate(window, lambda mean: seen.append(mean.tobytes()) or 0.0)
        assert means.tobytes() in seen
        fed = PathEnsemble(grid, "Y", values, y.flagged, 6)
        assert dt_fit_of(fed, window).estimate == want


def test_fed_fits_refuse_another_window_or_missing_paths():
    grid = TimeGrid(dt=0.1, n_steps=100)
    zeta = _noise_ensemble(OU_HALF, grid, 6, 300)
    y = integrate_y(zeta)
    lag_sums, squares = _fed(grid, zeta, y, [300])
    with pytest.raises(ValueError, match="window"):
        green_kubo_d(lag_sums, 3.0)
    with pytest.raises(ValueError, match="window"):
        dt_fit_d(squares, (2.0, 9.0))
    lag_sums, squares = _fed(grid, zeta, y, [150])
    with pytest.raises(ValueError, match="150 paths fed, 300 announced"):
        green_kubo_d(lag_sums, 2.0)
    with pytest.raises(ValueError, match="150 paths fed, 300 announced"):
        dt_fit_d(squares, (2.0, 10.0))


# --------------------------------------------------- moment transition


def _transition(model, p_grid, horizon, n_paths, seed, window, dt=None):
    """moment_transition of the state's curves on the transition grid of horizon."""
    grid, stride = transition_grid(model, horizon, dt=dt)
    curves = linear_moment_curves(model, grid, seed, n_paths, p_grid, save_every=stride)
    return moment_transition(curves, window, analytic=model.beta_c)


def test_moment_transition_memory_does_not_grow_with_the_paths():
    # X is reduced a 2,048-path group at a time as it is solved, so three
    # times the paths peak as high.
    model = LinearModel(a=1.0, multiplicative=OU_HALF, additive=NoiseSpec.ou(0.5, 1.0), x0=50.0)
    blocks.workspace()  # this thread's, built before the trace
    peaks = []
    for n_paths in (4096, 12288):
        with traced_peak() as peak:
            _transition(model, [1.0, 2.0, 3.0], 1.5, n_paths, 3, (0.5, 1.5))
        peaks.append(peak.bytes)
    assert peaks[1] < 1.15 * peaks[0]


def test_moment_transition_brackets_the_exponent():
    model = LinearModel(a=1.0, multiplicative=OU_HALF, additive=ADD, x0=20.0)
    report = _transition(model, [1.0, 1.5, 2.0, 2.5, 3.0], 3.0, 20000, 77, (1.0, 3.0), dt=0.01)
    assert 1.6 < report.estimate < 2.4
    assert report.analytic == pytest.approx(2.0)
    slopes = report.details["slopes"]
    assert slopes[0] < 0.0 < slopes[-1]


def test_moment_transition_requires_sign_change():
    model = LinearModel(a=1.0, multiplicative=OU_HALF, additive=ADD, x0=20.0)
    with pytest.raises(NoSignChangeError):
        _transition(model, [0.2, 0.4], 3.0, 2000, 5, (1.5, 3.0), dt=0.01)


@pytest.mark.parametrize("p_grid", [[1.0], [3.0, 1.0]])
def test_moment_transition_takes_two_or_more_ascending_orders(p_grid):
    model = LinearModel(a=1.0, multiplicative=OU_HALF, additive=ADD, x0=20.0)
    curves = linear_moment_curves(model, TimeGrid(0.1, 30), 5, 64, p_grid)
    with pytest.raises(ValueError, match="ascending"):
        moment_transition(curves, (1.5, 3.0), analytic=model.beta_c)


# ----------------------------------------------------------- condition 1


def test_condition1_matches_closed_form_envelope():
    # r(t) = exp(d(t) - 0.5 t) = exp(-0.25 (1 - e^{-2t})) for this spec
    ts = np.linspace(0.0, 50.0, 26)
    report = condition1_diagnostic(OU_HALF, 1.0, ts)
    assert report.r_analytic[0] == pytest.approx(1.0)
    expected = np.exp(-0.25 * (1.0 - np.exp(-2.0 * ts)))
    np.testing.assert_allclose(report.r_analytic, expected, atol=1e-12)
    assert report.r_analytic.min() == pytest.approx(np.exp(-0.25), abs=1e-6)
    assert report.ratio == pytest.approx(np.exp(0.25), rel=1e-9)
    assert report.passed


def test_condition1_ratio_budget_verdict():
    ts = np.linspace(0.0, 50.0, 26)
    tight = condition1_diagnostic(OU_HALF, 1.0, ts, ratio_budget=1.0001)
    assert not tight.passed and tight.verdict == "UNBOUNDED"


def test_condition1_monte_carlo_cross_check():
    # keep t small enough that the lognormal mean is resolvable at this n
    ts = np.linspace(0.5, 8.0, 14)
    report = condition1_diagnostic(OU_HALF, 0.5, ts, n=40000, master_seed=12)
    assert report.mc_consistent
    assert report.mc_max_z is not None and report.mc_max_z <= 3.0
    np.testing.assert_allclose(report.r_mc, report.r_analytic, rtol=0.05)


# -------------------------------------------------- distribution identity


def test_b_equals_h_needs_independent_seeds():
    x = np.random.default_rng(0).normal(size=100)
    with pytest.raises(SameSeedError):
        b_equals_h_test(x, x, seed_b=5, seed_h=5)


def test_b_equals_h_replicates_mostly_pass():
    model = LinearModel(a=1.0, multiplicative=OU_HALF, additive=ADD)
    reports = b_h_replicates(model, 2.0, 1500, 6, 42, dt=0.01)
    assert sum(r.passed for r in reports) >= 5
    for r in reports:
        assert r.n_first == 1500 and r.n_second == 1500


def test_b_equals_h_detects_distinct_laws():
    rng = np.random.default_rng(3)
    rep = b_equals_h_test(rng.normal(size=5000), rng.normal(1.0, 1.0, size=5000))
    assert not rep.passed


def _ks_cases():
    rng = np.random.default_rng(13)
    x300 = rng.normal(size=300)
    with_nan = rng.normal(size=200)
    with_nan[17] = np.nan
    return {
        "equal-1": ([0.0], [1.0]),
        "equal-1-tied": ([2.0], [2.0]),
        "equal-300": (x300, rng.normal(0.1, 1.0, size=300)),
        "equal-10000": (rng.normal(size=10_000), rng.normal(0.02, 1.0, size=10_000)),
        "unequal-gcd-1": (rng.normal(size=701), rng.normal(0.1, 1.0, size=500)),
        "unequal-gcd-300": (rng.normal(size=900), rng.normal(0.1, 1.0, size=600)),
        "ties-equal": (rng.integers(0, 5, size=1000), rng.integers(0, 5, size=1000)),
        "ties-unequal": (rng.integers(0, 5, size=800), rng.integers(0, 6, size=640)),
        "identical": (x300, x300.copy()),
        "nan": (with_nan, rng.normal(size=150)),
        "above-exact-limit": (rng.normal(size=KS_EXACT_MAX_N + 1), rng.normal(size=700)),
    }


@pytest.mark.parametrize("case", list(_ks_cases()))
def test_ks_matches_scipy_bit_for_bit(case):
    x, y = _ks_cases()[case]
    rep = b_equals_h_test(x, y)
    want = scipy.stats.ks_2samp(np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64))
    got = (rep.statistic, rep.p_value)
    assert [v.hex() for v in got] == [float(want.statistic).hex(), float(want.pvalue).hex()]
    assert type(rep.statistic) is float and type(rep.p_value) is float


def test_ks_cases_reach_every_route():
    cases = _ks_cases()
    assert b_equals_h_test(*cases["identical"]).p_value == 1.0
    assert np.isnan(b_equals_h_test(*cases["nan"]).p_value)


def test_t_quantile_table_is_scipys():
    assert len(_T975) == 19
    for df, q in enumerate(_T975, start=1):
        assert q.hex() == float(scipy.special.stdtrit(df, 0.975)).hex()
        assert q.hex() == float(scipy.stats.t.ppf(0.975, df)).hex()


@pytest.mark.parametrize("b", [2, 20])
def test_batch_ci_matches_scipy_t_interval(b):
    vals = np.random.default_rng(b).normal(size=b)
    half = float(scipy.stats.t.ppf(0.975, b - 1) * vals.std(ddof=1) / np.sqrt(b))
    mean = float(vals.mean())
    assert _batch_ci(vals) == (mean - half, mean + half)
