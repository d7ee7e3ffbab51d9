"""Test functions of controlled growth and convergence diagnostics.

A function of growth class gamma is one with |f(x)| / (1 + |x|)^gamma
vanishing at infinity.  Expectations of such functions against the state
converge to their stationary values precisely when gamma sits below the
transition order, so probing a model with a ladder of growth classes
localizes the transition in a distribution-level sense.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ClassMismatchError, DNonpositiveError, LengthMismatchError
from .metrics import RateFit, _usable_samples, fit_rate, gamma_p

ABS_POWER = "abs_power"
LIPSCHITZ_TABLE = "lipschitz_table"
BOUNDED_CONTINUOUS = "bounded_continuous"

TEST_FUNCTION_KINDS = (ABS_POWER, LIPSCHITZ_TABLE, BOUNDED_CONTINUOUS)

MODE_AUTO = "auto"
MODE_CONVERGENCE = "convergence"
MODE_DIVERGENCE = "divergence"
MODES = (MODE_AUTO, MODE_CONVERGENCE, MODE_DIVERGENCE)


@dataclass(frozen=True)
class TestFunction:
    """One evaluatable test function with a declared growth class.

    abs_power is |x + z|^alpha with a complex shift (the shift keeps the
    function strictly positive when z has an imaginary part, which makes
    log-domain rate fits safe).  The table kinds interpolate linearly
    between breakpoints; lipschitz_table extrapolates with the edge
    slopes while bounded_continuous clamps to the edge values.
    """

    __test__ = False  # keep pytest from collecting this as a test class

    kind: str
    alpha: float = 1.0
    z: complex = 0.0
    xs: tuple[float, ...] = ()
    ys: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in TEST_FUNCTION_KINDS:
            raise ValueError(f"unknown test function kind: {self.kind!r}")
        if self.kind == ABS_POWER:
            if not (self.alpha > 0.0):
                raise ValueError("alpha must be positive")
        else:
            if len(self.xs) < 2 or len(self.xs) != len(self.ys):
                raise ValueError("table kinds need matching xs/ys with >= 2 breakpoints")
            if not all(b > a for a, b in zip(self.xs, self.xs[1:])):
                raise ValueError("breakpoints must be strictly increasing")
            if not all(np.isfinite(v) for v in self.ys):
                raise ValueError("table values must be finite")

    @property
    def gamma_class(self) -> float:
        """Infimum growth class; the class itself is open at this value."""
        if self.kind == ABS_POWER:
            return self.alpha
        if self.kind == LIPSCHITZ_TABLE:
            xs, ys = np.array(self.xs), np.array(self.ys)
            left = (ys[1] - ys[0]) / (xs[1] - xs[0])
            right = (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])
            return 1.0 if (left != 0.0 or right != 0.0) else 0.0
        return 0.0

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if self.kind == ABS_POWER:
            return np.abs(x + self.z) ** self.alpha
        xs = np.array(self.xs)
        ys = np.array(self.ys)
        out = np.interp(x, xs, ys)
        if self.kind == LIPSCHITZ_TABLE:
            left = (ys[1] - ys[0]) / (xs[1] - xs[0])
            right = (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])
            below = x < xs[0]
            above = x > xs[-1]
            out = np.where(below, ys[0] + left * (x - xs[0]), out)
            out = np.where(above, ys[-1] + right * (x - xs[-1]), out)
        return out


def default_eval_grid() -> np.ndarray:
    """Signed log-spaced grid, 200 magnitudes per sign in [1e-3, 1e6], plus 0."""
    mags = np.geomspace(1e-3, 1e6, 200)
    return np.concatenate([-mags[::-1], [0.0], mags])


@dataclass(frozen=True)
class PGammaNormReport:
    value: float
    argmax_x: float
    not_in_class: bool


def p_gamma_norm(f: TestFunction, gamma: float) -> PGammaNormReport:
    """Supremum of |f(x)| / (1 + |x|)^gamma over default_eval_grid.

    If the ratio still grows across the outermost decade of the grid the
    supremum is an artifact of the grid extent and the report is flagged
    not_in_class.
    """
    if gamma < 0.0:
        raise ValueError("gamma must be nonnegative")
    x = default_eval_grid()
    vals = np.abs(f(x)) / (1.0 + np.abs(x)) ** gamma
    if not np.all(np.isfinite(vals)):
        raise ValueError("test function produced non-finite values on the grid")
    i = int(np.argmax(vals))
    value = float(vals[i])
    extent = np.abs(x).max()
    outer = np.abs(x) >= extent / 10.0
    inner = ~outer
    not_in_class = bool(
        inner.any() and outer.any() and vals[outer].max() > 1.1 * vals[inner].max()
    )
    return PGammaNormReport(value=value, argmax_x=float(x[i]), not_in_class=not_in_class)


@dataclass(frozen=True)
class FunctionalEstimate:
    value: float
    std_err: float
    n: int


def expectation_functional(
    samples: np.ndarray,
    f: TestFunction,
    *,
    flagged: "np.ndarray | None" = None,
) -> FunctionalEstimate:
    """Sample mean of f over an ensemble with its standard error."""
    x, _ = _usable_samples(samples, flagged)
    w = f(x)
    se = float(w.std(ddof=1) / np.sqrt(x.size)) if x.size > 1 else 0.0
    return FunctionalEstimate(value=float(w.mean()), std_err=se, n=int(x.size))


@dataclass(frozen=True)
class ConvergenceReport:
    """Expectation trajectory of one test function against its limit."""

    mode: str
    times: np.ndarray
    values: np.ndarray
    std_errs: np.ndarray
    limit: float
    delta: np.ndarray
    gamma_class: float
    beta_c: float
    predicted_rate: "float | None"
    rate_fit: "RateFit | None"
    verdict: str
    flags: tuple[str, ...] = ()


def convergence_diagnostic(
    times: np.ndarray,
    sample_sets: "list[np.ndarray]",
    stationary_samples: np.ndarray,
    f: TestFunction,
    a: float,
    d: float,
    *,
    mode: str = MODE_AUTO,
) -> ConvergenceReport:
    """Track E f(X_t) toward (or away from) its stationary value.

    In convergence mode the gap |E f(X_t) - E f(X_inf)| is fitted for an
    exponential rate, over every time where it stands above its noise,
    and compared with the rate predicted at order gamma_class; in
    divergence mode the expectation itself is fitted for growth, over
    every time.  Forcing convergence mode on a function whose growth class
    reaches the transition order raises CLASS_MISMATCH.
    """
    ts = np.asarray(times, dtype=np.float64).ravel()
    if len(sample_sets) != ts.size:
        raise LengthMismatchError("one sample set per time is required")
    if ts.size < 2:
        raise ValueError("need at least two times")
    if not (d > 0.0):
        raise DNonpositiveError("diffusion constant must be positive")
    beta_c = a / d
    gamma = f.gamma_class
    converges = gamma < beta_c
    if mode == MODE_AUTO:
        mode = MODE_CONVERGENCE if converges else MODE_DIVERGENCE
    elif mode == MODE_CONVERGENCE and not converges:
        raise ClassMismatchError(
            f"growth class {gamma} is not below the transition order {beta_c}"
        )
    elif mode == MODE_DIVERGENCE and converges:
        raise ClassMismatchError(
            f"growth class {gamma} sits below the transition order {beta_c}; "
            "expectations converge"
        )
    elif mode not in (MODE_CONVERGENCE, MODE_DIVERGENCE):
        raise ValueError(f"unknown mode: {mode!r}")

    ests = [expectation_functional(s, f) for s in sample_sets]
    values = np.array([e.value for e in ests])
    std_errs = np.array([e.std_err for e in ests])
    limit_est = expectation_functional(stationary_samples, f)
    delta = np.abs(values - limit_est.value)

    predicted = None
    if gamma > 0.0:
        predicted = gamma_p(a, d, gamma)

    flags: list[str] = []
    rate = None
    if mode == MODE_CONVERGENCE:
        gap_se = np.sqrt(std_errs**2 + limit_est.std_err**2)
        usable = delta > 2.0 * gap_se
        if usable.sum() >= 5:
            rate = fit_rate(
                ts[usable], delta[usable], std_errs=gap_se[usable], predicted=predicted
            )
        else:
            flags.append("DELTA_BELOW_NOISE")
        final_gap = float(delta[-1])
        final_tol = 3.0 * float(gap_se[-1])
        decayed = final_gap <= max(final_tol, 0.05 * float(delta.max()))
        verdict = "CONVERGED" if decayed or (rate is not None and rate.slope < 0.0) else "NOT_CONVERGED"
    else:
        rate = fit_rate(ts, np.maximum(values, 1e-300), std_errs=std_errs, predicted=predicted)
        verdict = "DIVERGING" if rate.slope > 0.0 else "NOT_DIVERGING"

    return ConvergenceReport(
        mode=mode,
        times=ts,
        values=values,
        std_errs=std_errs,
        limit=limit_est.value,
        delta=delta,
        gamma_class=gamma,
        beta_c=beta_c,
        predicted_rate=predicted,
        rate_fit=rate,
        verdict=verdict,
        flags=tuple(flags),
    )
