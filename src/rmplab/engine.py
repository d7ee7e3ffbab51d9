"""Path simulation for the linear and nonlinear random ODEs.

The linear model is dX/dt = -(a + zeta_t) X + phi_t.  Everything is
built from the integrated multiplicative noise Y_t: the homogeneous
propagator is A_t = exp(-a t - Y_t), the driven response obeys the
one-step recursion B_{k+1} = B_k A_{k+1}/A_k + local quadrature, and the
time-reversed response H_t integrates phi A on [0, t].  All propagator
arithmetic happens on log A; per-step ratios exp(dlog A) are order one,
so the recursion never manufactures overflow on its own.

Paths whose log-propagator leaves the representable exponent budget are
retained with saturated values and flagged; moment estimators exclude
them and report the count.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import noise as noise_mod
from .blocks import BLOCK_CELLS, DEFAULT_BLOCK_SIZE, pairwise_sum, run_blocks
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

# Bytes of noise coefficient rows one RK4 time chunk holds.
RK4_CHUNK_BYTES = 1 << 20


def _beta_c(a: float, multiplicative: NoiseSpec) -> float:
    d = diffusion_constant(multiplicative)
    if d > 0.0:
        return a / d
    return float("inf") if a >= 0.0 else float("-inf")


@dataclass(frozen=True)
class LinearModel:
    """dX/dt = -(a + zeta) X + phi with initial value x0."""

    a: float
    multiplicative: NoiseSpec
    additive: NoiseSpec
    x0: float = 1.0

    def __post_init__(self) -> None:
        if not np.isfinite(self.a):
            raise ValueError("a must be finite")
        if not np.isfinite(self.x0):
            raise ValueError("x0 must be finite")
        require_multiplicative(self.multiplicative)

    @property
    def beta_c(self) -> float:
        """Transition order a/D of the moment dichotomy."""
        return _beta_c(self.a, self.multiplicative)


@dataclass(frozen=True)
class NonlinearModel:
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
        if not np.isfinite(self.a):
            raise ValueError("a must be finite")
        if not np.isfinite(self.x0):
            raise ValueError("x0 must be finite")
        if self.nonlinearity not in NONLINEARITIES:
            raise ValueError(f"unknown nonlinearity: {self.nonlinearity!r}")
        require_multiplicative(self.multiplicative)

    @property
    def beta_c(self) -> float:
        return _beta_c(self.a, self.multiplicative)


@dataclass
class PathEnsemble:
    """A rectangular block of realizations of one labeled process.

    Row i is reproducible from (master_seed, i) alone.  flagged marks
    rows whose propagator exponent left the budget or whose values had
    to be saturated; they stay in the array but are excluded from
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
    """Draws of the reversed response at a fixed horizon t_star."""

    values: np.ndarray
    t_star: float
    master_seed: int
    n_flagged: int
    p_max: float | None = None
    truncation_bound: float | None = None


@dataclass
class NonlinearSolution:
    x: PathEnsemble
    substeps: int
    refinement: tuple[tuple[int, float], ...]


def _sanitize(arr: np.ndarray) -> np.ndarray:
    """Saturate overflowed entries in place; return the path mask of repairs.

    arr is time-major, (n_nodes, n_paths), so a path is flagged when any
    entry of its column was repaired.
    """
    finite = np.isfinite(arr)
    if not finite.all():
        np.nan_to_num(arr, copy=False, nan=0.0, posinf=SATURATION, neginf=-SATURATION)
    return ~finite.all(axis=0)


def cumulative_trapezoid(values: np.ndarray, dt: float) -> np.ndarray:
    """Cumulative trapezoid rule along the first (time) axis, from 0.

    Kernels are time-major, so each step adds one whole row of pair sums:
    cumsum(dt * (v[1:] + v[:-1]) / 2.0) behind a leading zero, the formula
    and operation order of scipy.integrate.cumulative_trapezoid.
    """
    out = np.empty(values.shape)
    out[0] = 0.0
    np.cumsum(dt * (values[1:] + values[:-1]) / 2.0, axis=0, out=out[1:])
    return out


def integrate_y_values(zeta: np.ndarray, dt: float) -> np.ndarray:
    """Cumulative trapezoid of time-major multiplicative noise, Y_0 = 0."""
    return cumulative_trapezoid(zeta, dt)


def integrate_y(zeta: PathEnsemble) -> PathEnsemble:
    vals = np.ascontiguousarray(integrate_y_values(zeta.values.T, zeta.grid.dt).T)
    return PathEnsemble(
        grid=zeta.grid,
        label="Y",
        values=vals,
        flagged=zeta.flagged.copy(),
        master_seed=zeta.master_seed,
    )


def _response_from_log(log_a: np.ndarray, phi: np.ndarray, dt: float) -> np.ndarray:
    """Driven response via the stable per-step recursion.

    B_{k+1} = B_k exp(dlogA_k) + (dt/2) (phi_k exp(dlogA_k) + phi_{k+1}),
    the trapezoid rule applied inside each step after factoring out the
    propagator ratio.  Arrays are time-major, so each step is one row.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        ratios = np.exp(np.diff(log_a, axis=0))
        q = 0.5 * dt * (phi[:-1] * ratios + phi[1:])
        b = np.empty(log_a.shape)
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
    save_every: int = 1,
    need: "tuple[str, ...] | frozenset[str]" = ("X",),
) -> dict[str, np.ndarray]:
    """Compute requested process arrays for a block of path indices.

    This is the kernel every ensemble estimator is built on.  It works
    time-major, (n_nodes, n_paths), from the noise to the last quadrature;
    sub is its one transpose, keeping every save_every-th node of each
    requested array as C-contiguous path-major rows (n_paths, n_saved).
    'flagged' holds one entry per path.
    """
    need = frozenset(need)
    unknown = need.difference(PROCESS_LABELS)
    if unknown:
        raise ValueError(f"unknown process requests: {sorted(unknown)}")
    want_y = bool(need & {"Y", "A", "B", "X", "H"})
    want_phi = bool(need & {"phi", "B", "X", "H"})

    out: dict[str, np.ndarray] = {}
    flagged = np.zeros(len(indices), dtype=bool)

    zeta = None
    if want_y or "zeta" in need:
        zeta = noise_mod.sample_block(
            model.multiplicative, grid, master_seed, indices, ROLE_MULTIPLICATIVE
        )
    phi = None
    if want_phi:
        phi = noise_mod.sample_block(model.additive, grid, master_seed, indices, ROLE_ADDITIVE)

    log_a = None
    y = None
    if want_y:
        y = integrate_y_values(zeta, grid.dt)
        log_a = -model.a * grid.times[:, None] - y
        flagged |= np.abs(log_a).max(axis=0) > LOG_BUDGET

    a_vals = None
    if need & {"A", "X", "H"}:
        a_vals = np.exp(np.minimum(log_a, _EXP_CAP))

    b = None
    if need & {"B", "X"}:
        b = _response_from_log(log_a, phi, grid.dt)
        flagged |= _sanitize(b)

    def sub(arr: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(arr[::save_every].T)

    if "zeta" in need:
        out["zeta"] = sub(zeta)
    if "phi" in need:
        out["phi"] = sub(phi)
    if "Y" in need:
        out["Y"] = sub(y)
    if "A" in need:
        out["A"] = sub(a_vals)
    if "B" in need:
        out["B"] = sub(b)
    if "X" in need:
        with np.errstate(over="ignore", invalid="ignore"):
            x = model.x0 * a_vals + b
        flagged |= _sanitize(x)
        out["X"] = sub(x)
    if "H" in need:
        with np.errstate(over="ignore", invalid="ignore"):
            h = cumulative_trapezoid(phi * a_vals, grid.dt)
        flagged |= _sanitize(h)
        out["H"] = sub(h)
    out["flagged"] = flagged
    return out


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
    they require.  Every entry shares one flag mask, set where a path
    left the exponent budget or a process computed for need saturated,
    so a path excluded from one process is excluded from all.
    Horizon-only estimators pass save_every=grid.n_steps: steps stay
    fine, only the first and final nodes are kept, and .final_values is
    the horizon sample.

    A block holds at most BLOCK_CELLS // grid.n_nodes rows (at least
    one), so its fine-grid arrays take a fixed budget of memory whatever
    the horizon; block_size is an upper bound on top of that.  The
    layout cannot change the output: every kernel a block runs (the
    keyed normals, the OU filter, the quadratures, the flags and the
    saturation) works path by path, and blocks are only concatenated, so
    row i is the same bytes in any partition.
    """
    unknown = [label for label in need if label not in PROCESS_LABELS]
    if unknown:
        raise ValueError(f"unknown process labels: {unknown}")
    out_grid = grid.subsampled(save_every)
    block_size = min(block_size, max(1, BLOCK_CELLS // grid.n_nodes))
    parts = run_blocks(
        n_paths,
        lambda idx: linear_block_arrays(
            model, grid, master_seed, idx, save_every=save_every, need=need
        ),
        workers=workers,
        block_size=block_size,
    )
    flagged = np.concatenate([p["flagged"] for p in parts])
    return {
        label: PathEnsemble(
            grid=out_grid,
            label=label,
            values=np.concatenate([p[label] for p in parts]),
            flagged=flagged,
            master_seed=master_seed,
        )
        for label in need
    }


def gamma_rate(a: float, d: float, p: float) -> float:
    """Decay/growth rate sigma_p D (p - a/D) used for horizon choices."""
    return min(1.0, p) * (d * p - a)


def stationary_horizon(model: LinearModel, p_max: float, tail_tol: float = 1e-3) -> float:
    """Horizon t_star with exp(gamma_p t_star) < tail_tol for p = p_max."""
    rate = gamma_rate(model.a, diffusion_constant(model.multiplicative), p_max)
    if rate >= 0.0:
        raise TruncationWarningError(
            f"moment order {p_max} is at or above the transition order; no stationary moment"
        )
    return float(np.log(tail_tol) / rate)


def stationary_sample(
    model: LinearModel,
    t_star: float,
    n: int,
    master_seed: int,
    *,
    dt: float | None = None,
    p_max: float | None = None,
    workers: int = 1,
) -> StationarySample:
    """Approximate stationary draws via the reversed response at t_star.

    H_{t_star} has the law of the stationary state up to a tail the
    caller controls through t_star.  When p_max is given, a fitted
    truncation bound K exp(gamma_p t_star) is attached: K is calibrated
    from quasi-norm increments of H between intermediate horizons.
    """
    d = diffusion_constant(model.multiplicative)
    rate = None
    if p_max is not None:
        rate = gamma_rate(model.a, d, p_max)
        if rate >= 0.0:
            raise TruncationWarningError(
                f"moment order {p_max} is at or above the transition order {model.beta_c}"
            )
    if dt is None:
        dt = min(0.02 * t_star, 0.01)
    n_steps = max(int(round(t_star / dt)), 8)
    # Keep a handful of interior nodes to calibrate the truncation bound.
    while n_steps % 8 != 0:
        n_steps += 1
    grid = TimeGrid(dt=t_star / n_steps, n_steps=n_steps)
    save_every = n_steps // 8

    ens = solve_linear(
        model, grid, master_seed, n, ("H",), save_every=save_every, workers=workers
    )["H"]
    h = ens.values
    ok = ~ens.flagged

    bound = None
    if p_max is not None:
        sigma_p = min(1.0, p_max)
        times = ens.grid.times
        k_hat = 0.0
        for j in range(2, len(times) - 1):
            u, v = times[j], times[j + 1]
            incr = np.mean(np.abs(h[ok, j + 1] - h[ok, j]) ** p_max) ** (sigma_p / p_max)
            denom = np.exp(rate * u) + np.exp(rate * v)
            k_hat = max(k_hat, float(incr / denom))
        bound = k_hat * float(np.exp(rate * t_star))

    return StationarySample(
        values=ens.final_values,
        t_star=t_star,
        master_seed=master_seed,
        n_flagged=ens.n_flagged,
        p_max=p_max,
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


def _block_noise(
    model: NonlinearModel, grid: TimeGrid, master_seed: int, indices: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """zeta and |phi| for one block, time-major: shape (n_nodes, n_paths)."""
    zeta = noise_mod.sample_block(
        model.multiplicative, grid, master_seed, indices, ROLE_MULTIPLICATIVE
    )
    phi = noise_mod.sample_block(model.envelope, grid, master_seed, indices, ROLE_ADDITIVE)
    return zeta, np.abs(phi, out=phi)


def _rk4_block(
    model: NonlinearModel,
    grid: TimeGrid,
    zeta: np.ndarray,
    phi: np.ndarray,
    psi: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    substeps: int,
    save_every: int,
) -> dict[str, np.ndarray]:
    """Classical RK4 on one block, noise linearly interpolated in each step.

    zeta and phi are time-major (n_nodes, n_paths), so each node's values
    are one contiguous row; psi is the model's nonlinearity (_psi_function).
    Substep j of a step evaluates the noise at the fractions f = j/s,
    (j+0.5)/s and (j+1)/s of the step, 2s+1 distinct values.  For a chunk
    of steps at a time (RK4_CHUNK_BYTES of rows, at least one step) the
    coefficient rows m_f = -(a + (z0 + dz*f)) and p_f = p0 + dp*f are
    built once per fraction, vectorized over the chunk, instead of once
    per substep.  Every stage is then written with out= into a handful of
    preallocated path vectors: k = m*x + psi(p, x), x + (0.5*h)*k,
    x + h*k and x + (h/6)*(((k1 + 2*k2) + 2*k3) + k4).  Each element goes
    through the same ufuncs, with the same operands in the same order, as
    in the form that evaluated these expressions per substep, so it meets
    the same roundings and the output is the same bytes.  States are saved
    straight into path rows, then flagged and saturated where they
    overflowed.
    """
    saved = np.empty((zeta.shape[1], grid.n_steps // save_every + 1))
    _rk4_steps(model, grid, zeta, phi, psi, substeps, save_every, saved)
    flagged = _sanitize(saved.T)
    return {"X": saved, "flagged": flagged}


def _rk4_steps(
    model: NonlinearModel,
    grid: TimeGrid,
    zeta: np.ndarray,
    phi: np.ndarray,
    psi: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    substeps: int,
    save_every: int,
    saved: np.ndarray,
) -> None:
    """The time loop of _rk4_block: state k * save_every goes to saved[:, k].

    A function of its own so that its step buffers are freed before the
    flag scan of saved.
    """
    a = model.a
    h = grid.dt / substeps
    half_h, sixth_h = 0.5 * h, h / 6.0
    n = zeta.shape[1]
    n_rows = 2 * substeps + 1
    fractions = [(i / 2) / substeps for i in range(n_rows)]  # j/s, (j+0.5)/s, exactly
    # m and p rows plus dz and dp: 2 (n_rows + 1) rows of n floats per step
    chunk = max(1, min(grid.n_steps, RK4_CHUNK_BYTES // (16 * (n_rows + 1) * n)))
    dz, dp = np.empty((chunk, n)), np.empty((chunk, n))
    m_rows, p_rows = np.empty((n_rows, chunk, n)), np.empty((n_rows, chunk, n))
    k1, k2, k3, k4, xs, ps = (np.empty(n) for _ in range(6))

    def stage(m, p, xin, k):
        np.multiply(m, xin, out=k)
        return np.add(k, psi(p, xin, ps), out=k)

    x = np.full(n, float(model.x0))
    saved[:, 0] = x
    with np.errstate(over="ignore", invalid="ignore"):
        for k0 in range(0, grid.n_steps, chunk):
            c = min(chunk, grid.n_steps - k0)
            z0, p0 = zeta[k0 : k0 + c], phi[k0 : k0 + c]
            np.subtract(zeta[k0 + 1 : k0 + c + 1], z0, out=dz[:c])
            np.subtract(phi[k0 + 1 : k0 + c + 1], p0, out=dp[:c])
            for f, mf, pf in zip(fractions, m_rows[:, :c], p_rows[:, :c]):
                np.multiply(dz[:c], f, out=mf)
                np.add(z0, mf, out=mf)
                np.add(a, mf, out=mf)
                np.negative(mf, out=mf)
                np.multiply(dp[:c], f, out=pf)
                np.add(p0, pf, out=pf)
            for i in range(c):
                ms, pm = m_rows[:, i], p_rows[:, i]
                for r in range(0, 2 * substeps, 2):  # substep r/2: rows r, r+1, r+2
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
                k = k0 + i + 1
                if k % save_every == 0:
                    saved[:, k // save_every] = x


def solve_nonlinear(
    model: NonlinearModel,
    grid: TimeGrid,
    master_seed: int,
    n_paths: int,
    *,
    save_every: int = 1,
    workers: int = 1,
    block_size: int = DEFAULT_BLOCK_SIZE,
    p_check: float = 0.5,
    rel_tol: float = 5e-3,
    max_refines: int = 6,
) -> NonlinearSolution:
    """Integrate the nonlinear model with automatic step refinement.

    The ODE substep is halved (noise grid fixed, values interpolated)
    until the order-p_check ensemble quasi-norm at the horizon moves by
    less than rel_tol between consecutive refinements.

    Each refinement pass draws every block's zeta and phi once.  The
    first pass integrates substep counts 1 and 2 from that one draw (only
    count 1 when max_refines is 0); each later pass draws again and
    integrates the next doubled count, so noise memory stays one block.
    A block keeps the horizon partials of every count it integrates and
    the paths of its last count only; one count's paths are freed before
    the next count is integrated.
    """
    out_grid = grid.subsampled(save_every)
    psi = _psi_function(model.nonlinearity)
    n_levels = max_refines + 1

    def refine_block(idx: np.ndarray, counts: tuple[int, ...]):
        zeta, phi = _block_noise(model, grid, master_seed, idx)
        partials = []
        for substeps in counts:
            part = None  # free the previous count's paths first
            part = _rk4_block(model, grid, zeta, phi, psi, substeps, save_every)
            ok = ~part["flagged"]
            partials.append(
                np.array(
                    [float(np.sum(np.abs(part["X"][ok, -1]) ** p_check)), float(ok.sum())]
                )
            )
        return partials, part

    history: list[tuple[int, float]] = []
    counts = (1, 2)[:n_levels]
    while counts:
        parts = run_blocks(
            n_paths,
            lambda idx: refine_block(idx, counts),
            workers=workers,
            block_size=block_size,
        )
        for i, substeps in enumerate(counts):
            total = pairwise_sum([partials[i] for partials, _ in parts])
            moment = total[0] / max(total[1], 1.0)
            history.append((substeps, float(moment ** (min(1.0, p_check) / p_check))))
        if len(history) >= 2:
            prev_q, q = history[-2][1], history[-1][1]
            if abs(q - prev_q) <= rel_tol * max(abs(prev_q), 1e-300):
                break
        counts = (2 * history[-1][0],) if len(history) < n_levels else ()
    else:
        raise RuntimeError("step refinement did not settle within max_refines")

    result = [part for _, part in parts]
    ensemble = PathEnsemble(
        grid=out_grid,
        label="X",
        values=np.concatenate([p["X"] for p in result]),
        flagged=np.concatenate([p["flagged"] for p in result]),
        master_seed=master_seed,
    )
    return NonlinearSolution(x=ensemble, substeps=history[-1][0], refinement=tuple(history))
