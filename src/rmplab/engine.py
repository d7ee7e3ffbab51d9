"""Path simulation for the linear and nonlinear random ODEs.

The linear model is dX/dt = -(a + zeta_t) X + phi_t.  Everything is
built from the integrated multiplicative noise Y_t: the homogeneous
propagator is A_t = exp(-a t - Y_t), the driven response obeys the
one-step recursion B_{k+1} = B_k A_{k+1}/A_k + local quadrature, and the
time-reversed response H_t integrates phi A on [0, t].  All propagator
arithmetic happens on log A; per-step ratios exp(dlog A) are order one,
so the recursion never manufactures overflow on its own.

A path is flagged when its log-propagator grows past the exponent
budget or one of its arrays had to be saturated; it is retained with
saturated values, and moment estimators exclude it and report the
count.  A log-propagator that only decays past the budget underflows A
to 0 and leaves B, X and H exact, so it flags nothing.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from . import noise as noise_mod
from .blocks import BLOCK_CELLS, DEFAULT_BLOCK_SIZE, run_blocks, slot_array, workspace
from .errors import TruncationWarningError
from .grid import TimeGrid
from .noise import NoiseSpec, diffusion_constant, require_multiplicative, y_variance_half
from .rng import ROLE_ADDITIVE, ROLE_MARGINAL, ROLE_MULTIPLICATIVE, path_stream

LOG_BUDGET = 700.0
SATURATION = 1e300
_EXP_CAP = 709.0

SIN_MODULATED = "sin_modulated"
CLIPPED = "clipped"
ENVELOPE_ITSELF = "envelope_itself"
NONLINEARITIES = (SIN_MODULATED, CLIPPED, ENVELOPE_ITSELF)

PROCESS_LABELS = ("X", "Y", "A", "B", "H", "zeta", "phi")

# Row width from which cumulative_trapezoid sums its steps row by row:
# cumsum along the time axis is faster on narrower rows.
ROW_SUM_MIN_WIDTH = 256

# Bytes of noise coefficient rows one RK4 time chunk holds.
RK4_CHUNK_BYTES = 1 << 20
# The nonlinear solve's pilot: the keyed paths 0 .. PILOT_PATHS - 1, with
# the ensemble's paths stiffer or larger than all of them, choose its RK4
# substep count, whose step-bias bound must lie within BIAS_SE_FRACTION of the
# ensemble's Monte Carlo standard error.  That error is taken to be at
# least MC_SE_FLOOR of the moment, so an ensemble without spread (a model
# with no noise) still gets a verdict: a relative bias of at most 1e-7.
# The bias is that of E|X_T|^P_CHECK, and a pilot that reaches count
# 2**MAX_REFINES unsettled raises.
PILOT_PATHS = 128
BIAS_SE_FRACTION = 0.1
MC_SE_FLOOR = 1e-6
P_CHECK = 0.5
MAX_REFINES = 6


class _Model:
    """The checks and the transition order both models share."""

    def __post_init__(self) -> None:
        if not np.isfinite(self.a):
            raise ValueError("a must be finite")
        if not np.isfinite(self.x0):
            raise ValueError("x0 must be finite")
        require_multiplicative(self.multiplicative)

    @property
    def beta_c(self) -> float:
        """Transition order a/D of the moment dichotomy."""
        d = diffusion_constant(self.multiplicative)
        if d > 0.0:
            return self.a / d
        return float("inf") if self.a >= 0.0 else float("-inf")


@dataclass(frozen=True)
class LinearModel(_Model):
    """dX/dt = -(a + zeta) X + phi with initial value x0."""

    a: float
    multiplicative: NoiseSpec
    additive: NoiseSpec
    x0: float = 1.0


@dataclass(frozen=True)
class NonlinearModel(_Model):
    """dX/dt = -(a + zeta) X + psi(t, X) with |psi| bounded by the envelope.

    The envelope path enters as |phi_t|; nonlinearity selects how the
    bound is realized: phi sin(x), clamp(x, -phi, phi), or phi itself
    (which reproduces the linear model).
    """

    a: float
    multiplicative: NoiseSpec
    envelope: NoiseSpec
    nonlinearity: str
    x0: float = 1.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.nonlinearity not in NONLINEARITIES:
            raise ValueError(f"unknown nonlinearity: {self.nonlinearity!r}")


@dataclass
class PathEnsemble:
    """A rectangular block of realizations of one labeled process.

    Row i is reproducible from (master_seed, i) alone.  flagged marks
    rows whose propagator exponent grew past the budget or whose values
    had to be saturated; they stay in the array but are excluded from
    moment estimates.
    """

    grid: TimeGrid
    label: str
    values: np.ndarray
    flagged: np.ndarray
    master_seed: int

    def __post_init__(self) -> None:
        if self.label not in PROCESS_LABELS:
            raise ValueError(f"unknown process label: {self.label!r}")
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError("values must be 2-D (paths by nodes)")
        if self.values.shape[1] != self.grid.n_nodes:
            raise ValueError("node count does not match the grid")
        self.flagged = np.asarray(self.flagged, dtype=bool)
        if self.flagged.shape != (self.values.shape[0],):
            raise ValueError("flagged must have one entry per path")

    @property
    def n_paths(self) -> int:
        return int(self.values.shape[0])

    @property
    def n_flagged(self) -> int:
        return int(self.flagged.sum())

    @property
    def final_values(self) -> np.ndarray:
        return self.values[:, -1]


@dataclass
class StationarySample:
    """Draws of the reversed response at a fixed horizon; n_flagged flagged ones were left out."""

    values: np.ndarray
    master_seed: int
    n_flagged: int
    truncation_bound: float | None = None


@dataclass
class NonlinearSolution:
    """A nonlinear ensemble and how its RK4 substep count was chosen.

    substeps is the count every path was integrated at.  refinement holds
    the pilot's (substeps, order-P_CHECK quasi-norm) pairs, step_bias its
    bound on the bias of E|X_T|^P_CHECK at the chosen count and mc_se the
    Monte Carlo standard error of the ensemble that bound was held
    against.
    """

    x: PathEnsemble
    substeps: int
    refinement: tuple[tuple[int, float], ...]
    step_bias: float
    mc_se: float


def _sanitize(arr: np.ndarray, finite: "np.ndarray | None" = None) -> np.ndarray:
    """Saturate overflowed entries in place; return the path mask of repairs.

    arr is time-major, (n_nodes, n_paths), so a path is flagged when any
    entry of its column was repaired.  finite, a bool array of arr's
    shape, holds the finiteness mask; without it the mask is new memory.
    """
    finite = np.isfinite(arr, out=finite)
    if not finite.all():
        np.nan_to_num(arr, copy=False, nan=0.0, posinf=SATURATION, neginf=-SATURATION)
    return ~finite.all(axis=0)


def cumulative_trapezoid(
    values: np.ndarray, dt: float, out: "np.ndarray | None" = None
) -> np.ndarray:
    """Cumulative trapezoid rule along the first (time) axis, from 0.

    Kernels are time-major, so each step adds one whole row of pair sums:
    cumsum(dt * (v[1:] + v[:-1]) / 2.0) behind a leading zero, the formula
    and operation order of scipy.integrate.cumulative_trapezoid.  The pair
    sums are added, scaled by dt, halved and summed in place in out's
    rows after the first, so the rule needs no memory beyond out (new
    memory when out is None; it must not overlap values).  Rows of at
    least ROW_SUM_MIN_WIDTH columns are summed by a loop that adds each
    row into the next, the additions and operand order of cumsum along
    axis 0, which is several times faster on wide rows; narrower ones go
    to cumsum.
    """
    if out is None:
        out = np.empty(values.shape)
    out[0] = 0.0
    steps = out[1:]
    np.add(values[1:], values[:-1], out=steps)
    np.multiply(dt, steps, out=steps)
    np.divide(steps, 2.0, out=steps)
    if out[0].size < ROW_SUM_MIN_WIDTH:
        np.cumsum(steps, axis=0, out=steps)
        return out
    for prev, cur in zip(steps, steps[1:]):
        np.add(prev, cur, out=cur)
    return out


def integrate_y_values(
    zeta: np.ndarray, dt: float, out: "np.ndarray | None" = None
) -> np.ndarray:
    """Cumulative trapezoid of time-major multiplicative noise, Y_0 = 0, into out."""
    return cumulative_trapezoid(zeta, dt, out)


def integrate_y(zeta: PathEnsemble) -> PathEnsemble:
    vals = np.ascontiguousarray(integrate_y_values(zeta.values.T, zeta.grid.dt).T)
    return PathEnsemble(
        grid=zeta.grid,
        label="Y",
        values=vals,
        flagged=zeta.flagged.copy(),
        master_seed=zeta.master_seed,
    )


def _response_from_log(
    log_a: np.ndarray, phi: np.ndarray, dt: float, ratios: np.ndarray, q: np.ndarray
) -> np.ndarray:
    """Driven response via the stable per-step recursion, written over log_a.

    B_{k+1} = B_k exp(dlogA_k) + (dt/2) (phi_k exp(dlogA_k) + phi_{k+1}),
    the trapezoid rule applied inside each step after factoring out the
    propagator ratio.  Arrays are time-major, so each step is one row.
    ratios and q, each one row shorter than log_a, receive the ratios
    exp(dlogA) and the increments, with the ufuncs and operand order of
    exp(diff(log_a)) and 0.5 * dt * (phi[:-1] * ratios + phi[1:]).  B then
    overwrites log_a, which the recursion no longer reads, and is returned.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        np.subtract(log_a[1:], log_a[:-1], out=ratios)
        np.exp(ratios, out=ratios)
        np.multiply(phi[:-1], ratios, out=q)
        np.add(q, phi[1:], out=q)
        np.multiply(0.5 * dt, q, out=q)
        b = log_a
        b[0] = 0.0
        for prev, cur, ratio, inc in zip(b, b[1:], ratios, q):
            np.multiply(prev, ratio, out=cur)
            np.add(cur, inc, out=cur)
    return b


def linear_block_arrays(
    model: LinearModel,
    grid: TimeGrid,
    master_seed: int,
    indices: np.ndarray,
    *,
    strides: "dict[str, int] | None" = None,
    into: "dict[str, np.ndarray] | None" = None,
) -> dict[str, np.ndarray]:
    """Compute requested process arrays for a block of path indices.

    This is the kernel every ensemble estimator is built on.  It works
    time-major, (n_nodes, n_paths), from the noise to the last quadrature.
    strides names the arrays to keep, each with its own output stride (X
    at every node when None), so one solve can keep X at a coarse stride
    and its noise at every node.  Each array's every stride-th node is
    kept as path-major rows (n_paths, n_saved), written into into[label]
    when into is given (_linear_rows passes rows of its arrays) and into
    new arrays otherwise.  'flagged' marks the paths whose log A
    rose above +LOG_BUDGET or whose arrays saturated; a log A that only
    falls below -LOG_BUDGET underflows A to 0 and leaves B, X and H exact.

    Every fine-grid array lies in this thread's block workspace
    (blocks.workspace): five slots of BLOCK_CELLS cells, 12.4 MB that stay
    resident on each thread that ran a block and are reused by the next
    block, so no block allocates or faults in its working arrays.  zeta
    and its draws take slots 0 and 1; Y is integrated into slot 1 and
    turned into log A there; phi, drawn once zeta is spent, takes slot 0
    (its draws slot 2); A takes slot 2, the propagator ratios and the
    trapezoid increments slots 3 and 4, and B overwrites log A.  X and
    phi A go to slots 3 and 4, and H to slot 3.  Each array is written
    with out= by the ufuncs, in the order, of the allocating formulas in
    the comments, so its bytes do not depend on where it lives.  An array
    larger than a slot (a single path on a grid of more than BLOCK_CELLS
    nodes) is new memory.  The returned arrays never alias the slots.
    """
    strides = {"X": 1} if strides is None else strides
    need = frozenset(strides)
    unknown = need.difference(PROCESS_LABELS)
    if unknown:
        raise ValueError(f"unknown process requests: {sorted(unknown)}")
    want_y = bool(need & {"Y", "A", "B", "X", "H"})
    want_phi = bool(need & {"phi", "B", "X", "H"})

    n = len(indices)
    shape, step_shape = (grid.n_nodes, n), (grid.n_steps, n)
    if into is None:
        into = {label: np.empty((n, grid.n_steps // strides[label] + 1)) for label in need}
    slots = workspace()
    flagged = np.zeros(n, dtype=bool)

    def save(label: str, arr: np.ndarray) -> None:
        if label in need:
            into[label][...] = arr[:: strides[label]].T

    def flag_overflow(arr: np.ndarray) -> None:  # slot 4 is free at each call
        flagged[...] |= _sanitize(arr, slot_array(slots[4], shape, bool))

    if want_y or "zeta" in need:
        zeta = noise_mod.sample_block(
            model.multiplicative, grid, master_seed, indices, ROLE_MULTIPLICATIVE,
            work=slots[:2],
        )
        save("zeta", zeta)
    if want_y:
        log_a = integrate_y_values(zeta, grid.dt, out=slot_array(slots[1], shape))
        save("Y", log_a)
        # log_a = -a * t - y
        np.subtract(-model.a * grid.times[:, None], log_a, out=log_a)
        flagged |= log_a.max(axis=0) > LOG_BUDGET
    if want_phi:
        phi = noise_mod.sample_block(
            model.additive, grid, master_seed, indices, ROLE_ADDITIVE, work=(slots[0], slots[2])
        )
        save("phi", phi)
    if need & {"A", "X", "H"}:
        # a_vals = exp(minimum(log_a, _EXP_CAP))
        a_vals = np.minimum(log_a, _EXP_CAP, out=slot_array(slots[2], shape))
        np.exp(a_vals, out=a_vals)
        save("A", a_vals)
    if need & {"B", "X"}:
        b = _response_from_log(
            log_a, phi, grid.dt, slot_array(slots[3], step_shape), slot_array(slots[4], step_shape)
        )
        flag_overflow(b)
        save("B", b)
    with np.errstate(over="ignore", invalid="ignore"):
        if "X" in need:
            # x = x0 * a_vals + b
            x = np.multiply(model.x0, a_vals, out=slot_array(slots[3], shape))
            np.add(x, b, out=x)
            flag_overflow(x)
            save("X", x)
        if "H" in need:
            # h = cumulative_trapezoid(phi * a_vals)
            h = cumulative_trapezoid(
                np.multiply(phi, a_vals, out=slot_array(slots[4], shape)),
                grid.dt,
                slot_array(slots[3], shape),
            )
            flag_overflow(h)
            save("H", h)
    return {label: into[label] for label in need} | {"flagged": flagged}


def solve_linear(
    model: LinearModel,
    grid: TimeGrid,
    master_seed: int,
    n_paths: int,
    need: tuple[str, ...] = ("X",),
    *,
    save_every: int = 1,
    workers: int = 1,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> dict[str, PathEnsemble]:
    """Simulate the linear ensemble; one PathEnsemble per label in need.

    need names processes from PROCESS_LABELS; each block builds only what
    they require.  Every entry shares one flag mask, set where a path's
    log A grew past the exponent budget or a process computed for need
    saturated, so a path excluded from one process is excluded from all.
    Horizon-only estimators pass save_every=grid.n_steps: steps stay
    fine, only the first and final nodes are kept, and .final_values is
    the horizon sample.

    The ensembles' (n_paths, n_saved) arrays and the flag vector are
    allocated once, and each block writes its saved rows and flags into
    them, so the solve holds the ensembles and one block's work, not the
    blocks' outputs as well (_linear_rows, whose path groups let a
    reduction hold one group instead).  A block holds at most BLOCK_CELLS //
    grid.n_nodes rows (at least one), so its fine-grid arrays fit the
    block workspace of the thread that runs it (linear_block_arrays):
    12.4 MB per thread, reused block after block, whatever the horizon.
    Its noise is one chunk of noise.sample_chunks, drawn with a reset per
    row instead of a generator per row; block_size is an upper bound on
    top of that.  The layout cannot change the output: every kernel a
    block runs (the keyed normals, the OU filter, the quadratures, the
    flags and the saturation) works path by path, and each block writes
    only its own rows, so row i is the same bytes in any partition and
    with any number of workers.
    """
    unknown = [label for label in need if label not in PROCESS_LABELS]
    if unknown:
        raise ValueError(f"unknown process labels: {unknown}")
    out_grid = grid.subsampled(save_every)
    [(values, flagged)] = _linear_rows(
        model, grid, master_seed, n_paths, dict.fromkeys(need, save_every), workers, block_size
    )
    return {
        label: PathEnsemble(
            grid=out_grid, label=label, values=arr, flagged=flagged, master_seed=master_seed
        )
        for label, arr in values.items()
    }


def _linear_rows(
    model: LinearModel,
    grid: TimeGrid,
    master_seed: int,
    n_paths: int,
    strides: dict[str, int],
    workers: int,
    block_size: int = DEFAULT_BLOCK_SIZE,
    *,
    group: "int | None" = None,
    held: "dict[str, np.ndarray] | None" = None,
) -> Iterator[tuple[dict[str, np.ndarray], np.ndarray]]:
    """solve_linear's saved rows per label and the kernel's flag mask, group by group.

    strides maps each label to its output stride.  Yields (values,
    flagged) for the consecutive groups of `group` paths in path order
    (one group of all n_paths when group is None): values[label] holds the
    saved rows of the group's paths, flagged their flags.  A label held
    names has its rows written straight into the caller's array there, of
    n_paths rows, each group into its own rows, so the caller holds that
    label's whole ensemble once the last group is yielded.  Every other
    label, and the flags, are written into buffers sized for one group,
    so a caller that reduces each group before asking for the next holds
    one group's rows, never the ensemble's; the next group overwrites
    them.  Within a group the blocks are those of solve_linear, and every
    row is the same bytes in any grouping (solve_linear).
    """
    if n_paths < 1:
        raise ValueError("n_paths must be positive")
    held = held or {}
    size = n_paths if group is None else min(group, n_paths)
    buffers = {
        label: np.empty((size, grid.n_steps // stride + 1))
        for label, stride in strides.items()
        if label not in held
    }
    flagged = np.empty(size, dtype=bool)
    cap = min(block_size, max(1, BLOCK_CELLS // grid.n_nodes))

    for lo in range(0, n_paths, size):
        n = min(size, n_paths - lo)
        values = {
            label: held[label][lo : lo + n] if label in held else buffers[label][:n]
            for label in strides
        }

        def block(idx: np.ndarray) -> None:
            rows = slice(idx[0], idx[-1] + 1)
            into = {label: arr[rows] for label, arr in values.items()}
            done = linear_block_arrays(
                model, grid, master_seed, idx + lo, strides=strides, into=into
            )
            flagged[rows] = done["flagged"]

        run_blocks(n, block, workers=workers, block_size=cap)
        yield values, flagged[:n]


def gamma_rate(a: float, d: float, p: float) -> float:
    """Decay/growth rate sigma_p D (p - a/D) used for horizon choices."""
    return min(1.0, p) * (d * p - a)


def _stationary_rate(model: LinearModel, p_max: float) -> float:
    """gamma_rate at order p_max, refused unless negative (a stationary moment exists)."""
    rate = gamma_rate(model.a, diffusion_constant(model.multiplicative), p_max)
    if rate >= 0.0:
        raise TruncationWarningError(
            f"moment order {p_max} is at or above the transition order {model.beta_c}"
        )
    return rate


def stationary_horizon(model: LinearModel, p_max: float) -> float:
    """Horizon t_star with exp(gamma_p t_star) = 1e-3 for p = p_max."""
    return float(np.log(1e-3) / _stationary_rate(model, p_max))


def stationary_sample(
    model: LinearModel,
    t_star: float,
    n: int,
    master_seed: int,
    *,
    p_max: float | None = None,
    workers: int = 1,
) -> StationarySample:
    """Approximate stationary draws via the reversed response at t_star.

    H_{t_star} has the law of the stationary state up to a tail the
    caller controls through t_star.  The grid steps by about
    min(0.02 t_star, 0.01), in a multiple of 8 steps.  The draws the
    kernel flags are left out, with no copy when there are none.  When
    p_max is given, a fitted truncation bound K exp(gamma_p t_star) is
    attached: K is calibrated from quasi-norm increments of the kept
    draws' H between intermediate horizons.
    """
    rate = None if p_max is None else _stationary_rate(model, p_max)
    n_steps = max(int(round(t_star / min(0.02 * t_star, 0.01))), 8)
    # Keep a handful of interior nodes to calibrate the truncation bound.
    while n_steps % 8 != 0:
        n_steps += 1
    grid = TimeGrid(dt=t_star / n_steps, n_steps=n_steps)
    save_every = n_steps // 8

    [(values, flagged)] = _linear_rows(model, grid, master_seed, n, {"H": save_every}, workers)
    h, ok = values["H"], ~flagged
    n_dropped = n - int(ok.sum())

    bound = None
    if p_max is not None:
        sigma_p = min(1.0, p_max)
        times = grid.subsampled(save_every).times
        k_hat = 0.0
        for j in range(2, len(times) - 1):
            u, v = times[j], times[j + 1]
            incr = np.mean(np.abs(h[ok, j + 1] - h[ok, j]) ** p_max) ** (sigma_p / p_max)
            denom = np.exp(rate * u) + np.exp(rate * v)
            k_hat = max(k_hat, float(incr / denom))
        bound = k_hat * float(np.exp(rate * t_star))

    return StationarySample(
        values=h[ok, -1] if n_dropped else h[:, -1],
        master_seed=master_seed,
        n_flagged=n_dropped,
        truncation_bound=bound,
    )


def sample_y_marginal(
    spec: NoiseSpec, ts: "np.ndarray | float", n: int, master_seed: int
) -> np.ndarray:
    """Exact-law draws of the integrated noise marginal Y_t ~ N(0, 2 d(t)).

    Bypasses path simulation entirely; intended for single-time moment
    checks at orders where path Monte Carlo is hopeless.  One keyed
    stream per master seed (role: marginal).
    """
    t = np.atleast_1d(np.asarray(ts, dtype=np.float64))
    sd = np.sqrt(2.0 * y_variance_half(spec, t))
    stream = path_stream(master_seed, 0, ROLE_MARGINAL)
    draws = stream.standard_normal((t.size, n))
    out = sd[:, None] * draws
    return out if np.ndim(ts) else out[0]


def _psi_function(
    nonlinearity: str,
) -> Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]:
    """psi(phi, x, out) for the named nonlinearity, |psi| <= phi.

    psi writes its value into the buffer out and returns it; the envelope
    returns phi itself.  phi sin(x) is np.sin into out, then phi times out;
    the clamp is np.clip(x, -phi, phi, out=out).  These are the ufuncs and
    operand orders of phi * np.sin(x) and np.clip(x, -phi, phi), so every
    element is rounded as it was when each call allocated its result.
    """
    if nonlinearity == SIN_MODULATED:

        def psi(phi, x, out):
            np.sin(x, out=out)
            return np.multiply(phi, out, out=out)

        return psi
    if nonlinearity == CLIPPED:
        return lambda phi, x, out: np.clip(x, -phi, phi, out=out)
    return lambda phi, x, out: phi


def _rk4_sweep(
    model: NonlinearModel,
    grid: TimeGrid,
    master_seed: int,
    indices: np.ndarray,
    psi: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    s: int,
    save_every: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Classical RK4 on one block at s substeps per noise step.

    zeta and |phi| come from noise.sample_chunks in time chunks of at most
    BLOCK_CELLS values, so the block holds one chunk of noise per role,
    never its whole paths.  Noise is linearly interpolated in each step:
    substep j evaluates it at the fractions j/s, (j+0.5)/s and (j+1)/s of
    the step.  For a chunk of steps at a time (RK4_CHUNK_BYTES of rows, at
    least one step) the coefficient rows m_f = -(a + (z0 + dz*f)) and
    p_f = p0 + dp*f are built once per fraction, vectorized over the chunk.
    Every stage is then written with out= into a handful of preallocated
    path vectors: k = m*x + psi(p, x), x + (0.5*h)*k, x + h*k and
    x + (h/6)*(((k1 + 2*k2) + 2*k3) + k4), so each element's bytes do not
    depend on the block or the chunking.

    Returns the saved states, path-major (n_paths, n_steps // save_every
    + 1) and saturated where not finite, whose last column is the horizon;
    each path's flag, set when its state was not finite at a saved node
    (a state that is not finite stays so, so this is its flag at the
    horizon); and each path's stiffness max|a + zeta| + max|phi| over the
    nodes, which bounds |d/dx (-(a + zeta) x + phi sin x)|.
    """
    a = model.a
    n = len(indices)
    n_rows = 2 * s + 1
    fractions = [(i / 2) / s for i in range(n_rows)]  # j/s, (j+0.5)/s, exactly
    # m and p rows plus dz and dp: 2 (n_rows + 1) rows of n floats per step
    chunk = max(1, min(grid.n_steps, RK4_CHUNK_BYTES // (16 * (n_rows + 1) * n)))
    dz, dp = np.empty((chunk, n)), np.empty((chunk, n))
    m_rows, p_rows = np.empty((n_rows, chunk, n)), np.empty((n_rows, chunk, n))
    k1, k2, k3, k4, xs, ps = (np.empty(n) for _ in range(6))
    reach, envelope = np.zeros(n), np.zeros(n)  # max |a + zeta| and max |phi| so far

    def stage(m, p, xin, k):
        np.multiply(m, xin, out=k)
        return np.add(k, psi(p, xin, ps), out=k)

    h = grid.dt / s
    half_h, sixth_h = 0.5 * h, h / 6.0
    x = np.full(n, float(model.x0))
    saved = np.empty((n, grid.n_steps // save_every + 1))
    saved[:, 0] = x
    chunks = zip(
        noise_mod.sample_chunks(model.multiplicative, grid, master_seed, indices, ROLE_MULTIPLICATIVE),
        noise_mod.sample_chunks(model.envelope, grid, master_seed, indices, ROLE_ADDITIVE),
    )
    k = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for zeta, phi in chunks:
            np.abs(phi, out=phi)
            np.maximum(reach, np.abs(a + zeta.max(axis=0)), out=reach)
            np.maximum(reach, np.abs(a + zeta.min(axis=0)), out=reach)
            np.maximum(envelope, phi.max(axis=0), out=envelope)
            for j0 in range(0, len(zeta) - 1, chunk):
                c = min(chunk, len(zeta) - 1 - j0)
                z0, p0 = zeta[j0 : j0 + c], phi[j0 : j0 + c]
                np.subtract(zeta[j0 + 1 : j0 + c + 1], z0, out=dz[:c])
                np.subtract(phi[j0 + 1 : j0 + c + 1], p0, out=dp[:c])
                for f, mf, pf in zip(fractions, m_rows[:, :c], p_rows[:, :c]):
                    np.multiply(dz[:c], f, out=mf)
                    np.add(z0, mf, out=mf)
                    np.add(a, mf, out=mf)
                    np.negative(mf, out=mf)
                    np.multiply(dp[:c], f, out=pf)
                    np.add(p0, pf, out=pf)
                for i in range(c):
                    ms, pm = m_rows[:, i], p_rows[:, i]
                    for r in range(0, n_rows - 1, 2):  # substep r/2: rows r, r+1, r+2
                        mb, pb = ms[r + 1], pm[r + 1]
                        stage(ms[r], pm[r], x, k1)
                        np.multiply(half_h, k1, out=xs)
                        stage(mb, pb, np.add(x, xs, out=xs), k2)
                        np.multiply(half_h, k2, out=xs)
                        stage(mb, pb, np.add(x, xs, out=xs), k3)
                        np.multiply(h, k3, out=xs)
                        stage(ms[r + 2], pm[r + 2], np.add(x, xs, out=xs), k4)
                        np.add(k1, np.multiply(2.0, k2, out=k2), out=k1)
                        np.add(k1, np.multiply(2.0, k3, out=k3), out=k1)
                        np.add(k1, k4, out=k1)
                        np.add(x, np.multiply(sixth_h, k1, out=k1), out=x)
                    k += 1
                    if k % save_every == 0:
                        saved[:, k // save_every] = x
    # zip stops at the first exhausted chunk stream; dropping both streams
    # and the views of their last chunks frees the chunk buffers, with the
    # rows', before the flag scan of saved
    del chunks, zeta, phi, z0, p0, dz, dp, m_rows, p_rows
    return saved, _sanitize(saved.T), reach + envelope


def _step_bias(
    coarse: tuple[np.ndarray, np.ndarray],
    fine: tuple[np.ndarray, np.ndarray],
    spread: tuple[np.ndarray, np.ndarray],
    p: float,
    n_paths: int,
    n_tail: int,
) -> tuple[float, float, bool]:
    """Step-bias bound, production Monte Carlo error and verdict of one doubling.

    coarse and fine are the pilot's (x, flagged) at the horizon for the
    substep counts s and 2s: the keyed pilot paths, then the n_tail paths
    of the ensemble's tail (solve_nonlinear).  The coupled per-path gap
    g = |x_2s|^p - |x_s|^p is taken over the paths unflagged at both.  The
    tail, a share w = n_tail / n_paths of the ensemble, is counted path by
    path and the keyed paths stand for the rest, so the bound on the bias
    of E|X_T|^p at count s (step doubling) is
    |(1 - w) mean g_pilot + w mean g_tail| + 2 (1 - w) SE(g_pilot).
    spread is the count-1 (x, flagged) of the keyed paths
    0 .. max(n_paths, PILOT_PATHS) - 1; the Monte Carlo error of an n_paths
    ensemble is the SD of its unflagged |x|^p over sqrt(n_paths), and at
    least MC_SE_FLOOR of their mean.  Count s is fine enough when the bound
    is at most BIAS_SE_FRACTION of that error.  All figures are taken on
    |x| / max|x|, so no power or square overflows or divides by zero; with
    no usable path, or states all 0, both figures are 0 and count s stands.
    """
    ok = ~(coarse[1] | fine[1])
    xs, xf = np.abs(coarse[0][ok]), np.abs(fine[0][ok])
    xu = np.abs(spread[0][~spread[1]])
    scale = max(xs.max(initial=0.0), xf.max(initial=0.0), xu.max(initial=0.0))
    if scale == 0.0:
        return 0.0, 0.0, True
    gap = (xf / scale) ** p - (xs / scale) ** p
    split = int(ok[: len(ok) - n_tail].sum())
    bulk, tail = gap[:split], gap[split:]
    w = n_tail / n_paths
    mean = (1.0 - w) * bulk.sum() / max(bulk.size, 1) + w * tail.sum() / max(tail.size, 1)
    se_bulk = bulk.std() / np.sqrt(bulk.size) if bulk.size else 0.0
    bias = abs(mean) + 2.0 * (1.0 - w) * se_bulk
    u = (xu / scale) ** p
    se = max(u.std() / np.sqrt(n_paths), MC_SE_FLOOR * u.mean()) if u.size else 0.0
    with np.errstate(over="ignore"):
        unit = min(np.float64(scale) ** p, np.finfo(np.float64).max)
        return float(bias * unit), float(se * unit), bool(bias <= BIAS_SE_FRACTION * se)


def solve_nonlinear(
    model: NonlinearModel,
    grid: TimeGrid,
    master_seed: int,
    n_paths: int,
    *,
    save_every: int = 1,
    workers: int = 1,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> NonlinearSolution:
    """Integrate the nonlinear model at a substep count a coupled pilot chose.

    The production sweep first runs count 1 over every block.  A block
    draws its zeta and phi once and holds its saved states, one time chunk
    of noise per role and the coefficient rows of one RK4 chunk, so its
    memory does not grow with the horizon beyond the saved states.  The
    sweep also gives each path's stiffness (_rk4_sweep).

    The pilot is the keyed paths 0 .. PILOT_PATHS - 1, whatever n_paths,
    followed by the tail: every other ensemble path that is stiffer, or
    whose unflagged count-1 |X_T| is larger, than all of the keyed ones.
    The step gap of |X_T|^p is heavy-tailed and carried by such paths: on
    a coarse grid by stiff ones, on a fine one by the few states that have
    not decayed.  Both sets are fixed by the keyed noise, so the choice
    does not depend on block_size, workers or the noise chunk length.  It
    halves the ODE substep (noise grid fixed, values interpolated) by step
    doubling.  Its count 1 is the production's horizon column, and keyed
    paths past n_paths get a count-1 sweep that keeps only the horizon;
    each doubled count is one horizon-only sweep of the pilot.  It stops
    at the smallest count s whose coupled gap to 2s at the horizon, at
    order P_CHECK, lies within BIAS_SE_FRACTION of the Monte Carlo error
    of the whole ensemble, the SD over the count-1 states of
    max(n_paths, PILOT_PATHS) keyed paths (_step_bias).  If s is above 1,
    the production sweep runs again at count s alone.  A pilot that
    reaches count 2**MAX_REFINES unsettled raises RuntimeError.

    A gap carried by rare paths that are neither among the stiffest nor
    among the largest goes unseen.
    """
    out_grid = grid.subsampled(save_every)  # refuses a stride that does not divide n_steps
    psi = _psi_function(model.nonlinearity)

    def production(s: int) -> tuple[np.ndarray, ...]:
        parts = run_blocks(
            n_paths,
            lambda idx: _rk4_sweep(model, grid, master_seed, idx, psi, s, save_every),
            workers=workers,
            block_size=block_size,
        )
        # one block's arrays are its own: joining them would copy the saved states
        return tuple(
            np.concatenate(arrays) if len(arrays) > 1 else arrays[0] for arrays in zip(*parts)
        )

    def horizon(indices: np.ndarray, s: int) -> tuple[np.ndarray, np.ndarray]:
        saved, flagged, _ = _rk4_sweep(model, grid, master_seed, indices, psi, s, grid.n_steps)
        return saved[:, -1], flagged

    values, flagged, stiffness = production(1)
    x1, f1 = values[:, -1].copy(), flagged  # a copy, so a re-run can free values
    size = np.where(f1, 0.0, np.abs(x1))
    tail = PILOT_PATHS + np.flatnonzero(
        (stiffness[PILOT_PATHS:] > stiffness[:PILOT_PATHS].max())
        | (size[PILOT_PATHS:] > size[:PILOT_PATHS].max())
    )
    pilot = np.concatenate([np.arange(PILOT_PATHS), tail])
    if n_paths < PILOT_PATHS:
        rest = horizon(np.arange(n_paths, PILOT_PATHS), 1)
        x1, f1 = (np.concatenate(pair) for pair in zip((x1, f1), rest))
    spread = (x1, f1)  # count 1 over the keyed paths 0 .. max(n_paths, PILOT_PATHS) - 1
    history: list[tuple[int, float]] = []

    def level(s: int) -> tuple[np.ndarray, np.ndarray]:
        x, flags = (x1[pilot], f1[pilot]) if s == 1 else horizon(pilot, s)
        ok = ~flags[:PILOT_PATHS]
        moment = np.sum(np.abs(x[:PILOT_PATHS][ok]) ** P_CHECK) / max(ok.sum(), 1)
        history.append((s, float(moment ** (min(1.0, P_CHECK) / P_CHECK))))
        return x, flags

    levels = [level(1), level(2)]
    while True:
        step_bias, mc_se, settled = _step_bias(
            levels[-2], levels[-1], spread, P_CHECK, n_paths, len(tail)
        )
        if settled:
            break
        if len(levels) > MAX_REFINES:
            raise RuntimeError("step refinement did not settle within MAX_REFINES")
        levels.append(level(2 * history[-1][0]))
    substeps = history[-2][0]
    if substeps > 1:
        del values, flagged
        values, flagged, _ = production(substeps)

    return NonlinearSolution(
        x=PathEnsemble(out_grid, "X", values, flagged, master_seed),
        substeps=substeps,
        refinement=tuple(history),
        step_bias=step_bias,
        mc_se=mc_se,
    )
