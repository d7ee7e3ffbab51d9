"""Numeric edge cases of the noise fits and the raw moment, by property.

Each estimator fed subnormals, values near the top of float64, constant
samples or an all-flagged ensemble either returns a finite estimate or
raises a named rmplab error; it never returns inf or nan.  The examples
are derandomized (conftest), and each input that once broke the property
is pinned by @example.
"""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rmplab.errors import RmplabError
from rmplab.grid import TimeGrid
from rmplab.metrics import fractional_moment
from rmplab.tail import dt_fit_d, dt_fit_sums, green_kubo_d, green_kubo_sums

GRID = TimeGrid(0.1, 40)
N_ROWS = 24
# subnormal, tiny, order one, and near the largest float64, of both signs
SCALES = [5e-324, 1e-310, 2.2e-308, 1e-150, 1.0, 1e150, 1e300, 1e307]


def _rows(scale: float, constant: bool, seed: int) -> np.ndarray:
    """N_ROWS paths on GRID: one value everywhere, or normals times scale."""
    if constant:
        return np.full((N_ROWS, GRID.n_nodes), scale)
    return np.random.default_rng(seed).standard_normal((N_ROWS, GRID.n_nodes)) * scale


def _finite_or_named(call) -> None:
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        try:
            value = call()
        except RmplabError:
            return
    assert np.isfinite(value).all(), value


inputs = dict(
    scale=st.sampled_from(SCALES),
    sign=st.sampled_from([1.0, -1.0]),
    constant=st.booleans(),
    flagged=st.booleans(),
    seed=st.integers(0, 3),
)


@given(**inputs)
@settings(max_examples=60, deadline=None)
@example(scale=1e300, sign=1.0, constant=True, flagged=False, seed=0)  # zeta_0 zeta_k overflowed
@example(scale=1e307, sign=-1.0, constant=False, flagged=True, seed=1)
def test_green_kubo_is_finite_or_refused(scale, sign, constant, flagged, seed):
    rows = sign * _rows(scale, constant, seed)

    def fit():
        sums = green_kubo_sums(GRID, 1.0, N_ROWS)
        sums.add(rows, np.full(N_ROWS, flagged))
        report = green_kubo_d(sums, 1.0)
        return [report.estimate, report.ci_low, report.ci_high]

    _finite_or_named(fit)


@given(**inputs)
@settings(max_examples=60, deadline=None)
@example(scale=1e300, sign=1.0, constant=False, flagged=False, seed=0)  # Y^2 overflowed
@example(scale=1e150, sign=1.0, constant=False, flagged=True, seed=2)
def test_dt_fit_is_finite_or_refused(scale, sign, constant, flagged, seed):
    rows = sign * _rows(scale, constant, seed)

    def fit():
        sums = dt_fit_sums(GRID, (1.0, 4.0), N_ROWS)
        sums.add(rows, np.full(N_ROWS, flagged))
        report = dt_fit_d(sums, (1.0, 4.0))
        return [report.estimate, report.ci_low, report.ci_high]

    _finite_or_named(fit)


@given(**inputs, p=st.sampled_from([0.1, 0.5, 1.0, 2.0, 4.0]))
@settings(max_examples=80, deadline=None)
@example(scale=1e300, sign=1.0, constant=True, flagged=False, seed=0, p=2.0)  # |x|^p overflowed
@example(scale=1e150, sign=1.0, constant=False, flagged=False, seed=0, p=2.0)  # its variance did
@example(scale=5e-324, sign=-1.0, constant=False, flagged=True, seed=3, p=0.1)
def test_fractional_moment_is_finite_or_refused(scale, sign, constant, flagged, seed, p):
    # fractional_moment takes no mask; an all-flagged ensemble is one
    # with nothing left, which must be refused
    samples = sign * _rows(scale, constant, seed)[:, -1]
    if flagged:
        samples = samples[:0]

    def moment():
        est = fractional_moment(samples, p)
        return [est.value, est.std_err]

    _finite_or_named(moment)


def test_an_overflowed_moment_is_refused_by_name():
    with pytest.raises(RmplabError, match="overflowed") as err:
        fractional_moment(np.array([1e300, -1e300]), 2.0)
    assert err.value.code == "NONFINITE"
