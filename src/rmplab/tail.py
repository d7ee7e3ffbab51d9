"""Estimators for the transition order and the diffusion constant.

Four independent routes to the same pair of numbers: the Hill estimator
reads the tail index off stationary samples, the moment-transition scan
locates the order where fitted quasi-norm growth rates change sign, and
the two diffusion estimators integrate the noise autocovariance
(Green-Kubo) or fit the growth of the integrated-noise variance.
Cross-checking them against each other and against a/D is the point.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .blocks import DEFAULT_BLOCK_SIZE
from .engine import LinearModel, Plan, Rows, sample_y_marginal
from .errors import (
    EmptyInputError,
    InsufficientTailError,
    NonfiniteEstimateError,
    NoSignChangeError,
    SameSeedError,
    WindowTooLongError,
    WindowTooShortError,
)
from .grid import TimeGrid, default_dt
from .metrics import MIN_FIT_NODES, MomentCurves, RateFit, _line_fit
from .metrics import linear_moment_curves  # noqa: F401  (rmpbench traces it here)
from .noise import NoiseSpec, diffusion_constant, y_variance_half

FLAG_NONSTABLE = "NONSTABLE"
# Some order's rate fit ran unweighted: its error bars overflowed or were not positive.
FLAG_UNWEIGHTED = "UNWEIGHTED_FIT"
# Path batches behind the green_kubo and dt_fit confidence intervals.
N_BATCHES = 20


@dataclass(frozen=True)
class ExponentReport:
    """Outcome of one exponent or diffusion-constant estimator.

    The confidence interval always brackets the estimate; analytic holds
    the model value when the caller knows it, purely for reporting.
    """

    method: str
    estimate: float
    ci_low: float
    ci_high: float
    n_effective: int
    analytic: float | None = None
    flags: tuple[str, ...] = ()
    details: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "ci_low", min(self.ci_low, self.estimate))
        object.__setattr__(self, "ci_high", max(self.ci_high, self.estimate))

    @property
    def ci(self) -> tuple[float, float]:
        return (self.ci_low, self.ci_high)


def hill_k(n: int, k: "int | None") -> int:
    """k, else ceil(n^0.6), for n samples; refused unless n >= 30 and 10 <= k < n / 2."""
    if n < 30:
        raise InsufficientTailError(f"need at least 30 positive samples, got {n}")
    k = int(np.ceil(n**0.6)) if k is None else k
    if k < 10 or 2 * k >= n:
        raise InsufficientTailError(f"k = {k} outside the usable range [10, {n // 2})")
    return k


def _hill_point(xs_desc: np.ndarray, k: int) -> float:
    """Hill estimate from descending order statistics; 1 / mean log spacing.

    Ties of the top k + 1 raise: the mean of k equal logs rounds, so h need not read 0.
    """
    top = xs_desc[:k]
    h = float(np.mean(np.log(top)) - np.log(xs_desc[k]))
    if xs_desc[0] == xs_desc[k] or h <= 0.0:
        raise InsufficientTailError("degenerate tail: top order statistics are equal")
    return 1.0 / h


def hill_estimator(
    samples: np.ndarray, k: "int | None" = None, *, analytic: "float | None" = None
) -> ExponentReport:
    """Hill tail-index estimate from the top-k order statistics.

    k defaults to ceil(n^0.6), and must be usable (hill_k).  A scan over nearby k values is attached;
    if the scan estimates are mutually inconsistent at the 95% level, or
    the top order statistics tie at a scan point (which is then left out
    of the scan), the report is flagged NONSTABLE, the signature of a
    sample without a power tail.  Ties at k itself raise.
    """
    x = np.abs(np.asarray(samples, dtype=np.float64).ravel())
    x = x[np.isfinite(x) & (x > 0.0)]
    n = x.size
    k = hill_k(n, k)
    xs = np.sort(x)[::-1]
    estimate = _hill_point(xs, k)
    half = 1.96 * estimate / np.sqrt(k)

    scan_ks: list[int] = []
    for kk in np.geomspace(max(10, k // 4), min((n - 1) // 2, 4 * k), 5):
        kk = int(round(kk))
        if kk >= 10 and 2 * kk < n and kk not in scan_ks:
            scan_ks.append(kk)
    scan = []
    stable = True
    for kk in scan_ks:
        try:
            scan.append((kk, _hill_point(xs, kk)))
        except InsufficientTailError:  # no power tail at kk
            stable = False
    for i in range(len(scan)):
        for j in range(i + 1, len(scan)):
            ki, ei = scan[i]
            kj, ej = scan[j]
            if abs(ei - ej) > 1.96 * (ei / np.sqrt(ki) + ej / np.sqrt(kj)):
                stable = False
    flags = () if stable else (FLAG_NONSTABLE,)
    return ExponentReport(
        method="hill",
        estimate=estimate,
        ci_low=estimate - half,
        ci_high=estimate + half,
        n_effective=k,
        analytic=analytic,
        flags=flags,
        details={"k": k, "n_samples": n, "k_scan": scan},
    )


def transition_grid(
    model: LinearModel,
    horizon: float,
    *,
    dt: "float | None" = None,
    save_every: "int | None" = None,
) -> tuple[TimeGrid, int]:
    """The grid moment_transition's curves are solved on, and its output stride.

    dt defaults to default_dt of a and the multiplicative correlation
    times, save_every to about 400 output nodes; the step count is
    rounded up to a multiple of save_every and the grid ends at horizon.
    """
    if dt is None:
        dt = default_dt(max(model.a, 1e-12), *model.multiplicative.taus)
    n_steps = max(int(round(horizon / dt)), 1)
    if save_every is None:
        save_every = max(1, n_steps // 400)
    while n_steps % save_every != 0:
        n_steps += 1
    return TimeGrid(dt=horizon / n_steps, n_steps=n_steps), save_every


def transition_window(
    horizon: float, window: "tuple[float, float] | None" = None
) -> tuple[float, float]:
    """The window moment_transition fits on: window, else the second half of horizon."""
    return (horizon / 2.0, horizon) if window is None else window


def moment_transition(
    curves: MomentCurves, window: tuple[float, float], *, analytic: "float | None"
) -> ExponentReport:
    """Locate the transition order from fitted quasi-norm growth rates.

    curves holds two or more orders in ascending order.  Each order's
    curve is fitted on window (weighted by its error bars, so nodes
    drowned in sampling noise do not tilt the fit); the estimate
    interpolates the slope sign change between the bracketing orders.
    The report is flagged FLAG_UNWEIGHTED when some order's error bars
    could not weight its fit.
    """
    ps = curves.p_values
    if len(ps) < 2 or list(ps) != sorted(ps):
        raise ValueError("moment_transition needs two or more orders in ascending order")
    fits: list[RateFit] = [curves.fit(p, window) for p in ps]
    slopes = np.array([f.slope for f in fits])
    ses = np.array([f.slope_std_err for f in fits])

    nonpos = np.nonzero(slopes <= 0.0)[0]
    if nonpos.size == 0 or nonpos[-1] == len(ps) - 1:
        raise NoSignChangeError(
            "fitted slopes do not change sign on the order grid; widen p_grid"
        )
    i = int(nonpos[-1])
    p_lo, p_hi = ps[i], ps[i + 1]
    s_lo, s_hi = float(slopes[i]), float(slopes[i + 1])
    dp = p_hi - p_lo
    ds = s_hi - s_lo
    estimate = p_lo - s_lo * dp / ds
    d_lo = -dp * s_hi / (ds * ds)
    d_hi = dp * s_lo / (ds * ds)
    half = 1.96 * float(np.hypot(d_lo * ses[i], d_hi * ses[i + 1]))
    return ExponentReport(
        method="moment_transition",
        estimate=float(estimate),
        ci_low=float(estimate - half),
        ci_high=float(estimate + half),
        n_effective=curves.n,
        analytic=analytic,
        flags=() if all(f.weighted for f in fits) else (FLAG_UNWEIGHTED,),
        details={
            "p_grid": list(ps),
            "slopes": [float(s) for s in slopes],
            "slope_std_errs": [float(s) for s in ses],
            "window": list(window),
            "excluded": curves.excluded,
        },
    )


# t_{0.975, df} for df = 1 .. 19, each the float of scipy.special.stdtrit(df, 0.975),
# which equals scipy.stats.t.ppf(0.975, df) bit for bit: every df of at most
# N_BATCHES batches, with no scipy import.
_T975 = (
    12.706204736174694, 4.302652729749462, 3.1824463052837078, 2.7764451051977934,
    2.5705818356363146, 2.4469118511449786, 2.364624251592784, 2.306004135204166,
    2.262157162798205, 2.228138851986274, 2.200985160091639, 2.1788128296672284,
    2.1603686564627913, 2.144786687917804, 2.131449545559776, 2.1199052992212546,
    2.1098155778333156, 2.1009220402410382, 2.0930240544083087,
)


def _batch_ci(batch_values: np.ndarray) -> tuple[float, float]:
    """95% Student-t interval of the mean of 2 .. N_BATCHES batch values."""
    b = batch_values.size
    mean = float(batch_values.mean())
    half = float(_T975[b - 2] * batch_values.std(ddof=1) / np.sqrt(b))  # df = b - 1
    return mean - half, mean + half


def _green_kubo_lags(window: float, grid: TimeGrid) -> int:
    """Lags of a green_kubo window on grid: at least 2, spanning at most half its horizon."""
    if window > grid.horizon / 2.0 + 1e-12:
        raise WindowTooLongError(
            f"lag window {window} exceeds half the grid horizon {grid.horizon:.6g}"
        )
    n_lags = int(round(window / grid.dt))
    if n_lags < 2:
        raise WindowTooShortError(f"lag window {window} spans fewer than two steps of {grid.dt:.6g}")
    return n_lags


def _window_nodes(grid: TimeGrid, window: tuple[float, float]) -> slice:
    """The grid nodes of a dt_fit window, at least MIN_FIT_NODES of them."""
    lo, hi = window
    nodes = np.flatnonzero((grid.times >= lo) & (grid.times <= hi))
    if nodes.size < MIN_FIT_NODES:
        raise WindowTooShortError(
            f"variance-slope window must cover at least {MIN_FIT_NODES} nodes"
        )
    return slice(nodes[0], nodes[-1] + 1)


def _carried_sum(carry: "np.ndarray | None", rows: np.ndarray) -> np.ndarray:
    """rows.sum(axis=0) continued from carry, the sum of the rows before them.

    numpy sums a C-ordered array of two or more columns over axis 0 from
    0, row after row, so carry added into the first row and then the
    other rows give, bit for bit, the sum of all the rows held as one
    array (carry is never -0.0).  The first row is restored after, so no
    copy of the rows is made.
    """
    if carry is None:
        return rows.sum(axis=0)
    first = rows[0].copy()
    rows[0] += carry
    total = rows.sum(axis=0)
    rows[0] = first
    return total


class BatchSums:
    """Sums of a per-path row of terms over n_rows paths, fed a group of paths at a time.

    terms maps the rows of a group of paths to their terms, one C-ordered
    row of two or more per path.  Their sums over all paths and over each
    of the N_BATCHES contiguous path batches are carried from group to
    group (_carried_sum), so they are bit for bit the row-by-row sums of
    every path's terms held as one array, while only one group's terms
    are held.  The batches are contiguous and nonempty, so n_rows is at
    least N_BATCHES.  grid and window name what the sums are fed for.
    Every path is summed, flagged or not: the noise has no flag of its own.
    """

    def __init__(
        self,
        grid: TimeGrid,
        window: object,
        n_rows: int,
        terms: Callable[[np.ndarray], np.ndarray],
    ) -> None:
        if n_rows < N_BATCHES:
            raise EmptyInputError("too few paths for batching")
        self.grid, self.window, self.n_rows, self.terms = grid, window, n_rows, terms
        self.edges = np.linspace(0, n_rows, N_BATCHES + 1, dtype=int)
        self.total: "np.ndarray | None" = None
        self.batches: "list[np.ndarray | None]" = [None] * N_BATCHES
        self.fed = 0

    def add(self, rows: np.ndarray, flagged: np.ndarray) -> None:
        """Feed the rows of the next paths in path order, with their mask, which is not read."""
        terms = np.ascontiguousarray(self.terms(rows))  # summed row after row
        lo, hi = self.fed, self.fed + len(terms)
        self.total = _carried_sum(self.total, terms)
        for b, (start, stop) in enumerate(zip(self.edges, self.edges[1:])):
            if start < hi and stop > lo:
                part = terms[max(start, lo) - lo : min(stop, hi) - lo]
                self.batches[b] = _carried_sum(self.batches[b], part)
        self.fed = hi

    def group(self, workers: int) -> int:
        """The paths each add takes: DEFAULT_BLOCK_SIZE per worker, as any grouping sums alike."""
        return DEFAULT_BLOCK_SIZE * workers

    def estimate(
        self, window: object, statistic: Callable[[np.ndarray], float]
    ) -> tuple[float, float, float]:
        """statistic of the mean term row, and _batch_ci of it over the batches' mean rows.

        Refuses sums fed for another window, or with other than n_rows
        paths, and raises NonfiniteEstimateError when the terms overflowed
        into an estimate or interval that is not finite.
        """
        if self.window != window:
            raise ValueError(f"sums fed for window {self.window}, asked for {window}")
        if self.fed != self.n_rows:
            raise ValueError(f"{self.fed} paths fed, {self.n_rows} announced")
        with np.errstate(over="ignore", invalid="ignore"):
            batches = [statistic(s / n) for s, n in zip(self.batches, np.diff(self.edges))]
            values = (statistic(self.total / self.fed), *_batch_ci(np.array(batches)))
        if not np.isfinite(values).all():
            raise NonfiniteEstimateError(f"estimate and interval {values} are not all finite")
        return values


def green_kubo_sums(grid: TimeGrid, window: float, n_rows: int) -> BatchSums:
    """green_kubo_d's sums of n_rows noise paths on grid: the lag products zeta_0 zeta_k.

    The lags are k = 0 .. n_lags of window (_green_kubo_lags); add takes
    zeta rows of at least n_lags + 1 nodes.
    """
    n_lags = _green_kubo_lags(window, grid)
    return BatchSums(grid, window, n_rows, lambda zeta: zeta[:, :1] * zeta[:, : n_lags + 1])


def dt_fit_sums(grid: TimeGrid, window: tuple[float, float], n_rows: int) -> BatchSums:
    """dt_fit_d's sums of n_rows integrated-noise paths on grid: Y^2 on window's nodes."""
    nodes = _window_nodes(grid, window)
    return BatchSums(grid, window, n_rows, lambda y: np.square(y[:, nodes]))


def green_kubo_d(
    sums: BatchSums, window: float, *, analytic: "float | None" = None
) -> ExponentReport:
    """Integrate the empirical autocovariance of the noise up to a lag cap.

    The covariance at each lag is an ensemble average against the
    initial node (stationarity makes the base node irrelevant), then a
    trapezoid integral over lags gives the diffusion constant.  The CI
    comes from N_BATCHES batches of paths.  sums are the green_kubo_sums
    fed for window, and every fed path is read.
    """
    estimate_ci = sums.estimate(window, lambda mean: float(np.trapezoid(mean, dx=sums.grid.dt)))
    n_lags = _green_kubo_lags(window, sums.grid)
    details = {"window": window, "n_lags": n_lags, "n_batches": N_BATCHES}
    return ExponentReport("green_kubo", *estimate_ci, sums.fed, analytic, details=details)


def dt_fit_d(
    sums: BatchSums, window: tuple[float, float], *, analytic: "float | None" = None
) -> ExponentReport:
    """Slope of half the integrated-noise variance over a late window.

    E[Y_t^2]/2 approaches D t plus a constant once t passes a few
    correlation times, so the least-squares slope estimates D.  The CI
    comes from N_BATCHES batches of paths.  sums are the dt_fit_sums fed
    for window, and every fed path is read: each node's mean of Y^2 is
    the row-by-row sum of the squares over the paths, divided by their
    count.
    """
    times = sums.grid.times[_window_nodes(sums.grid, window)]
    estimate_ci = sums.estimate(window, lambda mean: _line_fit(times, 0.5 * mean, None)[0])
    details = {"window": list(window), "n_batches": N_BATCHES}
    return ExponentReport("dt_fit", *estimate_ci, sums.fed, analytic, details=details)


VERDICT_BOUNDED = "BOUNDED"
VERDICT_UNBOUNDED = "UNBOUNDED"


@dataclass(frozen=True)
class Condition1Report:
    """Boundedness check of the compensated exponential moment.

    r(t) = E[exp(-p Y_t)] exp(-p^2 D t); for Gaussian integrated noise
    this equals exp(p^2 (d(t) - D t)) exactly.  The verdict is BOUNDED
    when max r / min r over the grid stays inside the ratio budget.
    An optional Monte Carlo cross-check draws Y_t from its exact normal
    law, avoiding path-simulation noise entirely.
    """

    p: float
    times: np.ndarray
    r_analytic: np.ndarray
    ratio: float
    verdict: str
    r_mc: "np.ndarray | None" = None
    mc_consistent: "bool | None" = None
    mc_max_z: "float | None" = None

    @property
    def passed(self) -> bool:
        return self.verdict == VERDICT_BOUNDED


def condition1_diagnostic(
    spec: NoiseSpec,
    p: float,
    t_grid: np.ndarray,
    n: int = 0,
    *,
    master_seed: int = 0,
    ratio_budget: float = 1e3,
) -> Condition1Report:
    if p <= 0.0:
        raise ValueError("order p must be positive")
    ts = np.asarray(t_grid, dtype=np.float64)
    if ts.size < 2:
        raise ValueError("need at least two grid times")
    d_const = diffusion_constant(spec)
    d_curve = y_variance_half(spec, ts)
    r_analytic = np.exp(p * p * (d_curve - d_const * ts))
    ratio = float(r_analytic.max() / r_analytic.min())
    verdict = VERDICT_BOUNDED if ratio <= ratio_budget else VERDICT_UNBOUNDED

    r_mc = mc_se = None
    consistent = None
    max_z = None
    if n > 0:
        draws = sample_y_marginal(spec, ts, n, master_seed)
        w = np.exp(-p * draws)
        m = w.mean(axis=1)
        se = w.std(axis=1, ddof=1) / np.sqrt(n)
        damp = np.exp(-p * p * d_const * ts)
        r_mc = m * damp
        mc_se = se * damp
        z = np.abs(r_mc - r_analytic) / np.where(mc_se > 0.0, mc_se, np.inf)
        max_z = float(z.max())
        consistent = bool(max_z <= 3.0)
    return Condition1Report(
        p=p,
        times=ts,
        r_analytic=r_analytic,
        ratio=ratio,
        verdict=verdict,
        r_mc=r_mc,
        mc_consistent=consistent,
        mc_max_z=max_z,
    )


@dataclass(frozen=True)
class KsReport:
    statistic: float
    p_value: float
    n_first: int
    n_second: int
    level: float
    passed: bool


# scipy's ks_2samp(method="auto") uses its exact p-value up to this many samples a side.
KS_EXACT_MAX_N = 10_000


def _ks_square_tail(n: int, h: int) -> float:
    """P(D_{n,n} >= h/n) by the Horner-form alternating binomial sum.

    Operation for operation scipy.stats._stats_py._compute_prob_outside_square.
    """
    total = 0.0
    k = n // h
    while k >= 0:
        p1 = 1.0
        for j in range(h):
            p1 = (n - k * h - j) * p1 / (n + k * h + j + 1)
        total = p1 * (1.0 - total)
        k -= 1
    return 2 * total


def _ks_2samp(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Two-sided two-sample KS statistic and p-value, as scipy's ks_2samp gives them.

    Exact route of ks_2samp(x, y) with method "auto" for equal sizes,
    ported with the same operations in the same order: ECDF differences
    on the pooled sample, the statistic rounded to the lattice h/n, and
    the null tail P(D >= h/n) by Hodges' count in its Horner form
    (Hodges, Ark. Mat. 3 (1958) 469).  scipy.stats.ks_2samp is called
    instead for unequal sizes (flagged paths), where scipy itself leaves
    the exact method -- more than KS_EXACT_MAX_N samples a side, or an
    exact p outside [0, 1] -- and for samples holding a NaN.
    """
    n1, n2 = x.size, y.size
    if n1 == n2 <= KS_EXACT_MAX_N and not (np.isnan(x).any() or np.isnan(y).any()):
        xs, ys = np.sort(x), np.sort(y)
        pooled = np.concatenate([xs, ys])
        diffs = (
            np.searchsorted(xs, pooled, side="right") / n1
            - np.searchsorted(ys, pooled, side="right") / n2
        )
        d_minus = np.clip(-diffs[np.argmin(diffs)], 0, 1)
        d_plus = diffs[np.argmax(diffs)]
        h = round(float(d_minus if d_minus > d_plus else d_plus) * n1)
        if h == 0:
            return 0.0, 1.0
        p = _ks_square_tail(n1, h)
        if 0.0 <= p <= 1.0:
            return h / n1, p
    from scipy.stats import ks_2samp  # imported on use: unequal sizes, or off the exact route

    result = ks_2samp(x, y)
    return float(result.statistic), float(result.pvalue)


def b_equals_h_test(
    b_samples: np.ndarray,
    h_samples: np.ndarray,
    *,
    level: float = 0.01,
    seed_b: "int | None" = None,
    seed_h: "int | None" = None,
) -> KsReport:
    """Two-sample KS test of the forward response against the reversed one.

    The two ensembles must come from independently seeded simulations;
    reusing a seed couples the samples and voids the test.  Statistic
    and p-value equal scipy.stats.ks_2samp(b, h) bit for bit (see
    _ks_2samp; tests/test_tail.py holds scipy as the oracle), and scipy
    is imported only for unequal sizes or off its exact route.
    """
    if seed_b is not None and seed_b == seed_h:
        raise SameSeedError("B and H ensembles share a master seed")
    b = np.asarray(b_samples, dtype=np.float64).ravel()
    h = np.asarray(h_samples, dtype=np.float64).ravel()
    if b.size == 0 or h.size == 0:
        raise EmptyInputError("both sample sets must be nonempty")
    statistic, p_value = _ks_2samp(b, h)
    return KsReport(
        statistic=statistic,
        p_value=p_value,
        n_first=int(b.size),
        n_second=int(h.size),
        level=level,
        passed=bool(p_value > level),
    )


def b_h_grid(model: LinearModel, t: float, *, dt: "float | None" = None) -> TimeGrid:
    """The grid b_h_replicates solves on: at least 8 steps of about dt, ending at t.

    dt defaults to default_dt of a and every correlation time of both noises.
    """
    if dt is None:
        dt = default_dt(max(model.a, 1e-12), *model.multiplicative.taus, *model.additive.taus)
    n_steps = max(int(round(t / dt)), 8)
    return TimeGrid(dt=t / n_steps, n_steps=n_steps)


def b_h_rows(
    model: LinearModel,
    t: float,
    n: int,
    replicates: int,
    base_seed: int,
    *,
    dt: "float | None" = None,
) -> list[tuple[Rows, Rows]]:
    """The B and H rows of each replicate of b_h_replicates: rows 0 .. n - 1 at t alone.

    Replicate r reads B from seed base_seed + 2r and H from seed
    base_seed + 2r + 1, both on b_h_grid.
    """
    grid = b_h_grid(model, t, dt=dt)
    return [
        (Rows(seed, grid, n, "B", grid.n_steps), Rows(seed + 1, grid, n, "H", grid.n_steps))
        for seed in range(base_seed, base_seed + 2 * replicates, 2)
    ]


def b_h_replicates(
    model: LinearModel,
    t: float,
    n_per_side: int,
    replicates: int,
    base_seed: int,
    *,
    dt: "float | None" = None,
    level: float = 0.01,
    plan: "Plan | None" = None,
) -> list[KsReport]:
    """Repeated distribution tests of B_t against H_t, fresh seeds each time.

    Replicate r tests the unflagged horizon values of its B rows against
    those of its H rows (b_h_rows), read from plan, a Plan naming a read
    of each (a plan of those reads alone when None, which solves each
    label alone).
    """
    pairs = b_h_rows(model, t, n_per_side, replicates, base_seed, dt=dt)
    plan = plan or Plan(model, 1, [(rows, None) for pair in pairs for rows in pair])

    def sample(rows: Rows) -> np.ndarray:
        values, flagged = plan.rows(rows)
        return values[~flagged, -1]

    return [
        b_equals_h_test(sample(b), sample(h), level=level, seed_b=b.seed, seed_h=h.seed)
        for b, h in pairs
    ]
