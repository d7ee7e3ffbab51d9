"""Fractional-moment quasi-norms, growth-rate fits, and inequality checks.

For p >= 1 the quasi-norm is the usual L^p norm; for p in (0, 1) it is
(E|f|^p) itself, i.e. the p-th moment without the 1/p power.  Both cases
are covered by the exponent sigma_p/p with sigma_p = min(1, p); the
scaling rule is then |c f| -> |c|^{sigma_p} |f| uniformly in p.

Error bars use the delta method on the sample mean of |f|^p.  When that
mean is dominated by a handful of extreme samples its error bar is
meaningless, so estimates also carry a stability flag driven by the
empirical kurtosis of |f|^p.
"""
from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np

from .blocks import BLOCK_CELLS, block_ranges, pairwise_sum
from .blocks import run_blocks  # noqa: F401  (rmpbench traces it here)
from .engine import LinearModel, PathEnsemble, Plan, Rows
from .engine import linear_block_arrays  # noqa: F401  (rmpbench traces it here)
from .errors import (
    DNonpositiveError,
    EmptyInputError,
    LengthMismatchError,
    NonfiniteEstimateError,
    NonpositiveValueError,
    WindowTooShortError,
)
from .grid import TimeGrid
from .noise import NoiseSpec, y_variance_half

KURTOSIS_THRESHOLD = 100.0
MIN_FIT_NODES = 5


def sigma_p(p: float) -> float:
    return min(1.0, p)


@dataclass(frozen=True)
class QuasiNormEstimate:
    """Point estimate of a fractional-moment quasi-norm.

    value is (E|f|^p)^(sigma_p/p) unless raw_moment is set, in which
    case it is the plain moment E|f|^p.  flagged_excluded counts paths
    removed by the overflow guard before averaging.
    """

    p: float
    sigma_p: float
    value: float
    n: int
    std_err: float
    flagged_excluded: int = 0
    unstable: bool = False
    raw_moment: bool = False


@dataclass(frozen=True)
class RateFit:
    """Least-squares slope of log(value) against time."""

    slope: float
    intercept: float
    window: tuple[float, float]
    r_squared: float
    slope_std_err: float
    weighted: bool
    predicted: float | None = None


@dataclass(frozen=True)
class InequalityReport:
    """One check's sides and verdict: scalars for a 1-D sample, arrays over its batch axes."""

    name: str
    p: float
    lhs: "float | np.ndarray"
    rhs: "float | np.ndarray"
    n: int
    passed: "bool | np.ndarray"


def _moment_stats(weights: np.ndarray) -> tuple[float, float, bool]:
    """Mean, standard error, and kurtosis instability of a weight sample."""
    n = weights.size
    m = float(weights.mean())
    if n < 2:
        return m, 0.0, False
    var = float(weights.var(ddof=1))
    se = np.sqrt(var / n)
    unstable = False
    if var > 0.0 and n >= 4:
        centered = weights - m
        m2 = float(np.mean(centered**2))
        m4 = float(np.mean(centered**4))
        # m2^2 can underflow for tiny samples even when var > 0
        if m2 * m2 > 0.0:
            unstable = bool(m4 / (m2 * m2) > KURTOSIS_THRESHOLD)
    return m, float(se), unstable


def _usable_samples(samples: np.ndarray, flagged: "np.ndarray | None") -> tuple[np.ndarray, int]:
    """The samples, flattened, without the flagged ones, and how many those were."""
    x = np.asarray(samples, dtype=np.float64).ravel()
    excluded = 0
    if flagged is not None:
        mask = np.asarray(flagged, dtype=bool).ravel()
        if mask.shape != x.shape:
            raise LengthMismatchError("flag mask must match the sample count")
        excluded = int(mask.sum())
        x = x[~mask]
    if x.size == 0:
        raise EmptyInputError("no usable samples")
    return x, excluded


def quasi_norm(
    samples: np.ndarray,
    p: float,
    *,
    flagged: "np.ndarray | None" = None,
) -> QuasiNormEstimate:
    """Empirical quasi-norm of a sample set with delta-method error bar.

    The moment is taken of the samples divided by their largest magnitude
    mx and the result rescaled, value = mx^sigma_p qn(x / mx), and the
    error bar with it; the kurtosis flag does not depend on the scale.
    So a finite sample gives a finite, nonzero quasi-norm whenever the
    true one is representable, with no underflow or overflow of |x|^p.
    """
    if p <= 0.0:
        raise ValueError("order p must be positive")
    x, excluded = _usable_samples(samples, flagged)
    mx = float(np.max(np.abs(x)))
    scale = mx if 0.0 < mx < np.inf else 1.0
    w = np.abs(x / scale) ** p
    m, se_m, unstable = _moment_stats(w)
    s = sigma_p(p)
    if m == 0.0:
        return QuasiNormEstimate(p, s, 0.0, x.size, 0.0, excluded, unstable)
    expo = s / p
    factor = scale**s
    value = factor * m**expo
    std_err = factor * expo * m ** (expo - 1.0) * se_m
    return QuasiNormEstimate(p, s, float(value), x.size, float(std_err), excluded, unstable)


def fractional_moment(
    samples: np.ndarray,
    p: float,
    z: complex = 0.0,
) -> QuasiNormEstimate:
    """Raw moment E|x + z|^p with a complex shift, no quasi-norm power.

    The moment is returned in linear units, so it underflows or overflows
    wherever the raw moment itself lies outside float64: for x = [1e-200]
    and p = 2 the true value 1e-400 comes back as 0.  Use quasi_norm for
    a scale-safe summary.  A moment or error bar that overflowed raises
    NonfiniteEstimateError.
    """
    if p <= 0.0:
        raise ValueError("order p must be positive")
    x, _ = _usable_samples(samples, None)
    with np.errstate(over="ignore", invalid="ignore"):
        w = np.abs(x + z) ** p
        m, se_m, unstable = _moment_stats(w)
    if not (np.isfinite(m) and np.isfinite(se_m)):
        raise NonfiniteEstimateError(f"order-{p} moment {m} or its error {se_m} overflowed")
    return QuasiNormEstimate(p, sigma_p(p), m, x.size, se_m, 0, unstable, raw_moment=True)


def gamma_p(a: float, d: float, p: float) -> float:
    """Rate sigma_p D (p - a/D) of the quasi-norm of the propagator."""
    if p <= 0.0:
        raise ValueError("order p must be positive")
    if not (d > 0.0):
        raise DNonpositiveError("diffusion constant must be positive")
    return sigma_p(p) * (d * p - a)


def resolvable_horizon(spec: NoiseSpec, p: float, n: int, t_max: float) -> float:
    """Largest t <= t_max where the order-p propagator moment is resolvable.

    E[|A_t|^p] is a lognormal mean with log-variance p^2 2 d(t); once that
    passes 2 ln(n / 30) the heaviest sampled quantile no longer covers
    the mass carrying the mean, and the empirical estimate is biased low
    no matter how the fit is weighted.
    """
    if p <= 0.0:
        raise ValueError("order p must be positive")
    if n <= 30:
        raise EmptyInputError("sample too small for any resolvable horizon")
    budget = math.log(n / 30.0) / (p * p)  # d(t) budget
    if float(y_variance_half(spec, np.array([t_max]))[0]) <= budget:
        return float(t_max)
    lo, hi = 0.0, float(t_max)
    for _ in range(80):  # d is monotone; plain bisection
        mid = 0.5 * (lo + hi)
        if float(y_variance_half(spec, np.array([mid]))[0]) <= budget:
            lo = mid
        else:
            hi = mid
    return lo


def exact_propagator_quasi_norm(
    spec: NoiseSpec, a: float, p: float, ts: np.ndarray
) -> np.ndarray:
    """Quasi-norm of A_t from the exact Gaussian law of Y_t.

    E|A_t|^p = exp(-p a t + p^2 d(t)); the quasi-norm applies the
    sigma_p/p power.  No sampling error, usable at any order.
    """
    if p <= 0.0:
        raise ValueError("order p must be positive")
    t = np.asarray(ts, dtype=np.float64)
    log_moment = -p * a * t + p * p * y_variance_half(spec, t)
    return np.exp((sigma_p(p) / p) * log_moment)


def _line_fit(
    t: np.ndarray, y: np.ndarray, w: "np.ndarray | None"
) -> tuple[float, float, float, float]:
    """Least-squares line y = intercept + slope * t: (slope, intercept, r_squared, slope_var).

    With weights w, the inverse variances of y, the fit is known-variance
    WLS, its slope variance inflated by reduced chi^2 when the model
    under-fits; node errors share paths so this is a lower bound.
    Without, every weight is 1 and the variance is the residual one.
    """
    weighted = w is not None
    if w is None:
        w = np.ones_like(y)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        wsum = w.sum()
        t_bar = float((w * t).sum() / wsum)
        y_bar = float((w * y).sum() / wsum)
        dt = t - t_bar
        s_tt = float((w * dt * dt).sum())
        if s_tt <= 0.0:
            raise WindowTooShortError("window has no time spread")
        slope = float((w * dt * (y - y_bar)).sum() / s_tt)
        intercept = y_bar - slope * t_bar
        resid = y - (intercept + slope * t)
        rss = float((w * resid * resid).sum())
        tss = float((w * (y - y_bar) ** 2).sum())
        chi2_red = rss / max(t.size - 2, 1)
        slope_var = (max(chi2_red, 1.0) if weighted else chi2_red) / s_tt
    r_squared = 1.0 - rss / tss if tss > 0.0 else 1.0
    return slope, intercept, r_squared, slope_var


def fit_rate(
    times: np.ndarray,
    values: np.ndarray,
    window: "tuple[float, float] | None" = None,
    *,
    std_errs: "np.ndarray | None" = None,
    predicted: "float | None" = None,
) -> RateFit:
    """Fit log(values) = intercept + slope * t on a time window.

    When per-node standard errors are supplied the fit is weighted by
    the implied variance of log(value); nodes where the estimate has
    O(1) relative error then contribute almost nothing, which keeps
    tail-dominated late-time nodes from bending the fit.  Errors that are
    not all positive and finite, or weights whose fit leaves the float
    range, give the unweighted fit.
    """
    t = np.asarray(times, dtype=np.float64).ravel()
    v = np.asarray(values, dtype=np.float64).ravel()
    if t.shape != v.shape:
        raise LengthMismatchError("times and values must have equal length")
    if window is None:
        window = (float(t[0]), float(t[-1]))
    lo, hi = window
    mask = (t >= lo) & (t <= hi)
    if mask.sum() < MIN_FIT_NODES:
        raise WindowTooShortError(
            f"window [{lo}, {hi}] covers {int(mask.sum())} nodes, need {MIN_FIT_NODES}"
        )
    t = t[mask]
    v = v[mask]
    if np.any(v <= 0.0) or not np.all(np.isfinite(v)):
        raise NonpositiveValueError("rate fit needs strictly positive finite values")
    y = np.log(v)

    w = None
    if std_errs is not None:
        se = np.asarray(std_errs, dtype=np.float64).ravel()
        if se.shape != mask.shape:
            raise LengthMismatchError("std_errs must match times")
        se = se[mask]
        if np.all(np.isfinite(se)) and np.all(se > 0.0):
            with np.errstate(over="ignore"):
                w = (v / se) ** 2
    fit = _line_fit(t, y, w) if w is not None else None
    weighted = fit is not None and all(map(np.isfinite, fit))
    if not weighted:
        # no usable errors, or weights or weighted sums past the float range
        fit = _line_fit(t, y, None)
    slope, intercept, r_squared, slope_var = fit
    return RateFit(
        slope=slope,
        intercept=intercept,
        window=(float(lo), float(hi)),
        r_squared=float(r_squared),
        slope_std_err=float(np.sqrt(slope_var)),
        weighted=weighted,
        predicted=predicted,
    )


def _tolerance_factor(n: int) -> float:
    return 1.0 + n * np.finfo(np.float64).eps


def _paired_rows(x, y, names: str) -> tuple[np.ndarray, np.ndarray]:
    """Two finite samples of one shape (..., n), as C-ordered float64 arrays.

    In C order every row along the last axis is contiguous, so each row's
    elementwise results and last-axis reductions are those of the row
    taken alone, and a batch decides every row as the 1-D call does.
    """
    xx = np.ascontiguousarray(x, dtype=np.float64)
    yy = np.ascontiguousarray(y, dtype=np.float64)
    if xx.size == 0:
        raise EmptyInputError("empty sample")
    if xx.shape != yy.shape:
        raise LengthMismatchError(f"{names} must have equal length")
    if not (np.isfinite(xx).all() and np.isfinite(yy).all()):
        raise ValueError(f"{names} must be finite")
    return xx, yy


def _report(
    name: str, p: float, lhs: np.ndarray, rhs: np.ndarray, n: int, passed: np.ndarray, shape: tuple
) -> InequalityReport:
    """Per-row results as arrays of the batch shape, or Python scalars for a 1-D sample."""
    if not shape:
        return InequalityReport(name, p, float(lhs[0]), float(rhs[0]), n, bool(passed[0]))
    return InequalityReport(
        name, p, lhs.reshape(shape), rhs.reshape(shape), n, passed.reshape(shape)
    )


def jensen_check(u: np.ndarray, v: np.ndarray, p: float) -> InequalityReport:
    """Check E[U^p V] <= (E[U V])^p (E V)^(1-p) on empirical measures.

    u and v have shape (..., n): each row along the last axis is one
    measure of n atoms, and all rows are checked in one pass.  A 1-D pair
    gives a report of Python scalars; a batch gives lhs, rhs and passed as
    arrays of its batch shape.  Every maximum, log-sum and reduction is
    taken per row along the contiguous last axis, so each row's entries
    equal the 1-D call's on that row bit for bit.

    Requires p in (0, 1] and finite nonnegative U, V.  Both sides scale as
    c^p when U is multiplied by c and linearly in V, so U and V are scaled
    by their maxima in log space (log u - log max u, which is exactly 0 at
    the maximum), and `passed` is decided on logarithms of the scaled sums:

        log sum U^p V - log sum V <= p (log sum U V - log sum V) + log(1 + n eps).

    Each log-sum is shifted by its largest term, so no product over- or
    underflows and the check holds for any such sample; equality-breaking
    noise at machine precision is absorbed by the factor (1 + n eps).
    A row where U V vanishes everywhere passes with lhs = rhs = 0.
    lhs and rhs are reported in the caller's units, as the
    exponential of the log values rescaled by the maxima; they read 0 or
    inf where the true value lies outside the float range.
    """
    if not (0.0 < p <= 1.0):
        raise ValueError("p must lie in (0, 1]")
    uu, vv = _paired_rows(u, v, "U and V")
    if (uu < 0.0).any() or (vv < 0.0).any():
        raise ValueError("U and V must be nonnegative")
    shape, n = uu.shape[:-1], uu.shape[-1]
    uu, vv = uu.reshape(-1, n), vv.reshape(-1, n)
    u_max, v_max = uu.max(axis=1), vv.max(axis=1)
    with np.errstate(divide="ignore"):
        log_u_max = np.log(np.where(u_max > 0.0, u_max, 1.0))
        log_v_max = np.log(np.where(v_max > 0.0, v_max, 1.0))
        log_u = np.log(uu) - log_u_max[:, None]
        log_v = np.log(vv) - log_v_max[:, None]
    terms = np.stack([p * log_u + log_v, log_u + log_v, log_v], axis=1)
    top = terms.max(axis=2)
    live = top[:, 1] > -math.inf  # else U V vanishes everywhere, and so does U^p V
    top[~live] = 0.0
    terms -= top[:, :, None]
    with np.errstate(divide="ignore"):
        log_sums = top + np.log(np.exp(terms, out=terms).sum(axis=2))
    log_sums[~live] = 0.0
    log_lhs, log_uv, log_v_sum = log_sums.T
    passed = log_lhs - log_v_sum <= p * (log_uv - log_v_sum) + math.log(
        _tolerance_factor(n)
    )
    shift = p * log_u_max + log_v_max - math.log(n)
    with np.errstate(over="ignore"):
        lhs = np.where(live, np.exp(log_lhs + shift), 0.0)
        rhs = np.where(live, np.exp(p * log_uv + (1.0 - p) * log_v_sum + shift), 0.0)
    return _report("jensen", p, lhs, rhs, n, passed, shape)


def quasi_triangle_check(
    f: np.ndarray, g: np.ndarray, alpha: "float | np.ndarray", p: float
) -> InequalityReport:
    """Check the scaled triangle bound on paired empirical samples.

    quasi_norm(alpha f + g) <= |alpha|^sigma_p quasi_norm(f) + quasi_norm(g).

    f and g have shape (..., n), one paired sample per row along the last
    axis, and alpha is one number or one per row (the batch shape); all
    rows are checked in one pass.  A 1-D pair gives a report of Python
    scalars; a batch gives lhs, rhs and passed as arrays of its batch
    shape, each row's entries equal to the 1-D call's bit for bit, since
    every maximum, frame and reduction is taken per row.

    Requires finite f, g and alpha.  Both sides are unchanged when f is
    multiplied by c and alpha divided by c, and both scale as |c|^sigma_p
    when alpha and g are multiplied by c.  With c a power of two these maps
    are exact, so the scale is factored out first: f is brought to
    max|f| in [1/2, 1), then alpha and g are scaled together so that the
    larger of |alpha| max|f| and max|g| lies in [1/4, 1).  In that frame
    the product alpha f is formed once and used on both sides (by the
    scaling law its quasi-norm is |alpha|^sigma_p quasi_norm(f) up to that
    one rounding); where alpha f falls in the subnormal range, it is
    formed in the frame and keeps full precision.

    `passed` is decided on the frame's quasi-norms with the factor
    (1 + n eps) for rounding.  For p < 1 they are the means of |x|^p;
    frame values lie below 2 in magnitude and the largest is at least
    1/4, and this frame, not one per argument, keeps the two sides'
    rounding alike for samples with disjoint supports.  For p >= 1 each
    norm is taken at its own maximum m, m mean((|x| / m)^p)^(1/p): the
    largest term is exactly 1, so no order underflows the smaller side's
    norm, which a shared frame does once p reaches some hundreds.
    lhs and rhs are reported in the caller's units, the frame values
    times 2^(k sigma_p) for the frame exponent k; they read 0 or inf where
    the true value lies outside the float range.
    """
    if p <= 0.0:
        raise ValueError("order p must be positive")
    ff, gg = _paired_rows(f, g, "f and g")
    shape, n = ff.shape[:-1], ff.shape[-1]
    a = np.asarray(alpha, dtype=np.float64)
    try:
        a = np.broadcast_to(a, shape).ravel()
    except ValueError:
        raise LengthMismatchError("alpha must be one number or one per row") from None
    if not np.isfinite(a).all():
        raise ValueError("alpha must be finite")
    ff, gg = ff.reshape(-1, n), gg.reshape(-1, n)
    f_max, g_max = np.abs(ff).max(axis=1), np.abs(gg).max(axis=1)
    has_af, has_g = (a != 0.0) & (f_max > 0.0), g_max > 0.0
    (_, e_f), (_, e_a), (_, e_g) = (np.frexp(x) for x in (f_max, a, g_max))
    # k: the larger frame exponent of |alpha| max|f| and max|g|, of those present
    k = np.where(has_g, e_g, e_a + e_f)
    k = np.where(has_af, np.maximum(k, e_a + e_f), k)
    # x[:, 0], x[:, 1], x[:, 2]: |alpha f + g|, |alpha f| and |g| in the frame
    x = np.empty((len(ff), 3, n))
    np.multiply(
        np.ldexp(np.where(has_af, a, 0.0), e_f - k)[:, None],
        np.ldexp(ff, -e_f[:, None]),
        out=x[:, 1],
    )
    np.ldexp(gg, -k[:, None], out=x[:, 2])
    np.add(x[:, 1], x[:, 2], out=x[:, 0])
    np.abs(x, out=x)
    if p < 1.0:
        norms = np.mean(np.power(x, p, out=x), axis=2)
    else:
        m = x.max(axis=2)
        x /= np.where(m > 0.0, m, 1.0)[:, :, None]
        norms = m * np.mean(np.power(x, p, out=x), axis=2) ** (1.0 / p)
    lhs, rhs = norms[:, 0], norms[:, 1] + norms[:, 2]
    passed = lhs <= rhs * _tolerance_factor(n)
    log2_scale = k * sigma_p(p)
    whole = np.floor(log2_scale)
    with np.errstate(over="ignore"):
        lhs, rhs = (
            np.ldexp(side * 2.0 ** (log2_scale - whole), whole.astype(np.int64))
            for side in (lhs, rhs)
        )
    return _report("quasi_triangle", p, lhs, rhs, n, passed, shape)


@dataclass
class MomentCurves:
    """Quasi-norm curves of one process at several orders on one grid."""

    source: str
    p_values: tuple[float, ...]
    times: np.ndarray
    value: np.ndarray
    std_err: np.ndarray
    unstable: np.ndarray
    n: int
    excluded: int
    master_seed: int
    z: complex = 0.0

    def estimate(self, p: float, node: int) -> QuasiNormEstimate:
        i = self.p_values.index(p)
        return QuasiNormEstimate(
            p=p,
            sigma_p=sigma_p(p),
            value=float(self.value[i, node]),
            n=self.n,
            std_err=float(self.std_err[i, node]),
            flagged_excluded=self.excluded,
            unstable=bool(self.unstable[i, node]),
        )

    def curve(self, p: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        i = self.p_values.index(p)
        return self.times, self.value[i], self.std_err[i]

    def fit(
        self,
        p: float,
        window: "tuple[float, float] | None" = None,
        *,
        predicted: "float | None" = None,
    ) -> RateFit:
        """fit_rate of the order-p curve, weighted by its error bars."""
        times, value, std_err = self.curve(p)
        return fit_rate(times, value, window, std_errs=std_err, predicted=predicted)


def _power_sums(
    values: np.ndarray, rows: np.ndarray, p_values: tuple[float, ...], z: complex
) -> np.ndarray:
    """Raw power sums S1..S4 of |x + z|^p per order and node, over the given rows.

    The nodes are reduced in column slices of about BLOCK_CELLS // 4
    cells, each held in four arrays (|x + z| of the rows, w = |x + z|^p,
    w^2 and one product of them), so the temporaries take BLOCK_CELLS
    cells, 2.5 MB, whatever the rows and nodes.  w^2 and the
    products are written with out= by the ufuncs of w * w, w^2 * w and
    w^2 * w^2.  A sum over axis 0 adds the slice row after row whatever
    its width, so the slices give the bytes of one whole sum, except for
    a single column, which numpy sums pairwise down the column: every
    slice is at least two columns wide.
    """
    n_p, n_nodes = len(p_values), values.shape[1]
    out = np.empty((n_p, 4, n_nodes))
    width = max(2, BLOCK_CELLS // 4 // max(len(rows), 1))
    starts = list(range(0, n_nodes - 1, width))
    for lo, hi in zip(starts, starts[1:] + [n_nodes]):
        base = values[rows, lo:hi]
        base = np.abs(base + z) if z else np.abs(base, out=base)
        w2, prod = np.empty_like(base), np.empty_like(base)
        for i, p in enumerate(p_values):
            w = base**p
            out[i, 0, lo:hi] = w.sum(axis=0)
            np.multiply(w, w, out=w2)
            out[i, 1, lo:hi] = w2.sum(axis=0)
            out[i, 2, lo:hi] = np.multiply(w2, w, out=prod).sum(axis=0)
            out[i, 3, lo:hi] = np.multiply(w2, w2, out=prod).sum(axis=0)
            del w  # before the next order's w, and the slice's arrays
        del base, w2, prod  # before the next slice's: four are ever held
    return out


class CurveSums:
    """Power sums of moment curves of n_paths paths, fed a run of paths at a time.

    The orders, at least one and all positive, are checked when the sums
    are made.  add takes a run's rows and mask, the run starting on a
    2,048-path boundary, cuts it into the fixed 2,048-path blocks of
    blocks.block_ranges and reduces each block's unflagged rows to power
    sums at once (_power_sums), so only the caller's run is held; curves
    adds the blocks' sums by a pairwise tree in path order, and counts
    the flagged paths as excluded.  The blocks are fixed, so the tree's
    bytes do not depend on the runs they were fed in.  It refuses sums
    that kept no path.
    """

    def __init__(
        self,
        source: str,
        p_values: "tuple[float, ...] | list[float]",
        times: np.ndarray,
        n_paths: int,
        master_seed: int,
        z: complex,
    ) -> None:
        p_values = tuple(float(p) for p in p_values)
        if not p_values:
            raise EmptyInputError("need at least one order p")
        if any(p <= 0.0 for p in p_values):
            raise ValueError("orders must be positive")
        self.source, self.p_values, self.times, self.z = source, p_values, times, z
        self.n_paths, self.master_seed = n_paths, master_seed
        self.parts: list[np.ndarray] = []  # each fed block's power sums
        self.n = 0  # the unflagged paths fed

    def add(self, values: np.ndarray, flagged: np.ndarray) -> None:
        """Feed the next run's rows in path order; the flagged ones are left out."""
        for idx in block_ranges(len(values)):
            block = slice(idx[0], idx[-1] + 1)
            rows = np.flatnonzero(~flagged[block])
            self.parts.append(_power_sums(values[block], rows, self.p_values, self.z))
            self.n += len(rows)

    def curves(self) -> MomentCurves:
        """The curves of the paths fed, whose count must be n_paths less the excluded."""
        n, p_values = self.n, self.p_values
        if n == 0:
            raise EmptyInputError("every path is flagged")
        s1, s2, s3, s4 = np.moveaxis(pairwise_sum(self.parts), 1, 0)
        mean = s1 / n
        var = np.maximum(s2 / n - mean**2, 0.0) * (n / max(n - 1, 1))
        se_mean = np.sqrt(var / n)
        # Central fourth moment from raw sums, for the stability flag.
        m2 = np.maximum(s2 / n - mean**2, 0.0)
        m4 = np.maximum(
            s4 / n - 4.0 * mean * s3 / n + 6.0 * mean**2 * s2 / n - 3.0 * mean**4, 0.0
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            kurt = np.where(m2 > 0.0, m4 / np.maximum(m2 * m2, 1e-300), 0.0)
        unstable = kurt > KURTOSIS_THRESHOLD

        p_arr = np.array(p_values)[:, None]
        expo = np.minimum(1.0, p_arr) / p_arr
        with np.errstate(divide="ignore", invalid="ignore"):
            value = np.where(mean > 0.0, mean**expo, 0.0)
            std_err = np.where(
                mean > 0.0, expo * mean ** (expo - 1.0) * se_mean, 0.0
            )
        return MomentCurves(
            source=self.source,
            p_values=p_values,
            times=self.times,
            value=value,
            std_err=std_err,
            unstable=unstable,
            n=n,
            excluded=self.n_paths - n,
            master_seed=self.master_seed,
            z=self.z,
        )


def linear_moment_curves(
    model: LinearModel,
    grid: TimeGrid,
    master_seed: int,
    n_paths: int,
    p_values: "tuple[float, ...] | list[float]",
    *,
    source: str = "X",
    save_every: int = 1,
    workers: int = 1,
) -> MomentCurves:
    """Quasi-norm curves of a linear-model process, reduced as it is solved.

    The solve, a Plan feeding CurveSums, fills groups of 2,048 paths per
    worker one at a time into one reused buffer, and each group is
    reduced, in the fixed 2,048-path blocks of blocks.block_ranges,
    before the next is solved, so the bytes are those of
    ensemble_moment_curves on the whole ensemble and do not depend on the
    solver's block layout or on workers.  A curve holds one group of
    source, 2,048 x workers x n_saved x 8 bytes (4.9 MB per worker on
    301 saved nodes), whatever n_paths, plus the working arrays of the
    solver's running blocks and the power sums' temporaries
    (_power_sums), at most BLOCK_CELLS cells.  Flagged paths are excluded
    from every node.
    """
    sums = CurveSums(source, p_values, grid.subsampled(save_every).times, n_paths, master_seed, 0.0)
    rows = Rows(master_seed, grid, n_paths, source, save_every)
    return Plan(model, workers, [(rows, sums)]).fed(rows).curves()


def ensemble_moment_curves(
    ensemble: PathEnsemble,
    p_values: "tuple[float, ...] | list[float]",
    *,
    z: complex = 0.0,
) -> MomentCurves:
    """Quasi-norm curves of an ensemble held in memory.

    Power sums are taken over the fixed 2,048-path blocks of
    blocks.block_ranges in path order (CurveSums), so the bytes
    depend on the ensemble alone, never on the block layout or the worker
    count that solved it.  Beyond the held ensemble (n_paths x n_saved x
    8 bytes) the reduction needs the temporaries of one column slice of
    one block, BLOCK_CELLS cells (_power_sums).  Flagged paths are
    excluded from every node.
    """
    sums = CurveSums(
        ensemble.label, p_values, ensemble.grid.times, ensemble.n_paths, ensemble.master_seed, z
    )
    sums.add(ensemble.values, ensemble.flagged)
    return sums.curves()
