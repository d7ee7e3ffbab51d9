"""Test-function classes, weighted-sup norms, and convergence tracking."""
import numpy as np
import pytest

from rmplab.errors import ClassMismatchError, EmptyInputError, LengthMismatchError
from rmplab.weak import (
    MODE_CONVERGENCE,
    MODE_DIVERGENCE,
    TestFunction,
    convergence_diagnostic,
    default_eval_grid,
    expectation_functional,
    p_gamma_norm,
)


def test_function_validation():
    with pytest.raises(ValueError):
        TestFunction(kind="abs_power", alpha=0.0)
    with pytest.raises(ValueError):
        TestFunction(kind="lipschitz_table", xs=(0.0,), ys=(1.0,))
    with pytest.raises(ValueError):
        TestFunction(kind="lipschitz_table", xs=(0.0, 0.0), ys=(1.0, 2.0))
    with pytest.raises(ValueError):
        TestFunction(kind="bounded_continuous", xs=(0.0, 1.0), ys=(1.0, float("nan")))
    with pytest.raises(ValueError):
        TestFunction(kind="polynomial")


def test_abs_power_evaluation_and_class():
    f = TestFunction(kind="abs_power", alpha=0.5, z=1j)
    x = np.array([0.0, -1.0, 3.0])
    np.testing.assert_allclose(f(x), np.abs(x + 1j) ** 0.5)
    assert f.gamma_class == 0.5


def test_lipschitz_table_extrapolates_with_edge_slopes():
    f = TestFunction(kind="lipschitz_table", xs=(-1.0, 0.0, 2.0), ys=(1.0, 0.0, 4.0))
    assert f(np.array([-3.0]))[0] == pytest.approx(3.0)  # slope -1 on the left
    assert f(np.array([4.0]))[0] == pytest.approx(8.0)  # slope 2 on the right
    assert f(np.array([1.0]))[0] == pytest.approx(2.0)
    assert f.gamma_class == 1.0


def test_flat_edged_table_is_growth_free():
    f = TestFunction(kind="lipschitz_table", xs=(-1.0, 0.0, 1.0, 2.0), ys=(0.0, 1.0, 1.0, 1.0))
    # left edge slope is 1, so the class is still linear growth
    assert f.gamma_class == 1.0
    flat = TestFunction(kind="lipschitz_table", xs=(-1.0, 0.0, 1.0), ys=(2.0, 2.0, 2.0))
    assert flat.gamma_class == 0.0


def test_bounded_continuous_clamps():
    f = TestFunction(kind="bounded_continuous", xs=(-1.0, 0.0, 1.0), ys=(0.2, 1.0, 0.1))
    assert f(np.array([-50.0]))[0] == pytest.approx(0.2)
    assert f(np.array([50.0]))[0] == pytest.approx(0.1)
    assert f.gamma_class == 0.0


def test_p_gamma_norm_of_matching_power_is_one():
    f = TestFunction(kind="abs_power", alpha=0.7)
    report = p_gamma_norm(f, 0.7)
    assert 1.0 - 1e-3 <= report.value <= 1.0 + 1e-12
    assert not report.not_in_class


def test_p_gamma_norm_flags_excess_growth():
    f = TestFunction(kind="abs_power", alpha=1.2)
    report = p_gamma_norm(f, 0.7)
    assert report.not_in_class
    assert abs(report.argmax_x) == pytest.approx(np.abs(default_eval_grid()).max())


def test_p_gamma_norm_bounded_function():
    f = TestFunction(kind="bounded_continuous", xs=(-1.0, 1.0), ys=(0.3, 0.8))
    report = p_gamma_norm(f, 0.0)
    assert report.value == pytest.approx(0.8)
    assert not report.not_in_class
    with pytest.raises(ValueError):
        p_gamma_norm(f, -0.5)


def test_expectation_functional_mean_and_flags():
    f = TestFunction(kind="abs_power", alpha=1.0)
    est = expectation_functional(np.array([1.0, -3.0, 5.0]), f)
    assert est.value == pytest.approx(3.0)
    est2 = expectation_functional(
        np.array([1.0, -3.0, 1e6]), f, flagged=np.array([False, False, True])
    )
    assert est2.value == pytest.approx(2.0) and est2.n == 2
    with pytest.raises(LengthMismatchError):
        expectation_functional(np.ones(3), f, flagged=np.ones(2, dtype=bool))
    with pytest.raises(EmptyInputError):
        expectation_functional(np.array([]), f)


def _synthetic_sets(rng, times, limit, amp, rate, n=4000):
    sets = []
    for t in times:
        sets.append(rng.normal(limit + amp * np.exp(rate * t), 1.0, size=n))
    return sets


def test_convergence_diagnostic_recovers_decay_rate():
    rng = np.random.default_rng(11)
    times = np.linspace(1.0, 8.0, 8)
    # identity-like Lipschitz function: E f(X_t) tracks the drifting mean
    f = TestFunction(kind="lipschitz_table", xs=(-1.0, 1.0), ys=(-1.0, 1.0))
    sets = _synthetic_sets(rng, times, limit=5.0, amp=3.0, rate=-0.6)
    stationary = rng.normal(5.0, 1.0, size=200000)
    report = convergence_diagnostic(times, sets, stationary, f, a=1.0, d=0.5)
    assert report.mode == MODE_CONVERGENCE
    assert report.verdict == "CONVERGED"
    assert report.rate_fit is not None
    assert report.rate_fit.slope == pytest.approx(-0.6, abs=0.1)
    assert report.predicted_rate == pytest.approx(-0.5)  # rate at order 1


def test_convergence_diagnostic_divergence_mode():
    rng = np.random.default_rng(13)
    times = np.linspace(1.0, 8.0, 8)
    f = TestFunction(kind="abs_power", alpha=3.0)  # class above beta_c = 2
    sets = [rng.normal(np.exp(0.5 * t), 0.1, size=2000) ** (1.0 / 3.0) for t in times]
    stationary = rng.normal(1.0, 0.1, size=2000)
    report = convergence_diagnostic(times, sets, stationary, f, a=1.0, d=0.5)
    assert report.mode == MODE_DIVERGENCE
    assert report.verdict == "DIVERGING"
    assert report.rate_fit.slope > 0.0


def test_convergence_diagnostic_mode_contradictions():
    rng = np.random.default_rng(17)
    times = np.linspace(1.0, 4.0, 5)
    sets = [rng.normal(size=100) for _ in times]
    stationary = rng.normal(size=1000)
    heavy = TestFunction(kind="abs_power", alpha=3.0)
    light = TestFunction(kind="abs_power", alpha=0.5)
    with pytest.raises(ClassMismatchError):
        convergence_diagnostic(
            times, sets, stationary, heavy, a=1.0, d=0.5, mode=MODE_CONVERGENCE
        )
    with pytest.raises(ClassMismatchError):
        convergence_diagnostic(
            times, sets, stationary, light, a=1.0, d=0.5, mode=MODE_DIVERGENCE
        )


def test_convergence_diagnostic_flags_gap_below_noise():
    rng = np.random.default_rng(19)
    times = np.linspace(1.0, 4.0, 6)
    f = TestFunction(kind="lipschitz_table", xs=(-1.0, 1.0), ys=(-1.0, 1.0))
    # already stationary: every gap is sampling noise
    sets = [rng.normal(2.0, 1.0, size=500) for _ in times]
    stationary = rng.normal(2.0, 1.0, size=500)
    report = convergence_diagnostic(times, sets, stationary, f, a=1.0, d=0.5)
    assert "DELTA_BELOW_NOISE" in report.flags
    assert report.verdict == "CONVERGED"
