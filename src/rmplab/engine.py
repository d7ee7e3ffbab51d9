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

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterator, Protocol

import numpy as np

from . import noise as noise_mod
from .blocks import DEFAULT_BLOCK_SIZE, NORMALS_CELLS, TILE_CELLS, TILES
from .blocks import run_blocks, slot_array, workspace
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
    values: np.ndarray,
    dt: float,
    out: "np.ndarray | None" = None,
    carry: "np.ndarray | None" = None,
) -> np.ndarray:
    """Cumulative trapezoid rule along the first (time) axis, from 0 or from carry.

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

    carry, the integral at values' first node when the rule runs in time
    tiles, goes to out[0] and the steps are summed on from it, so the
    tiles add what one run adds, in the same order.
    """
    if out is None:
        out = np.empty(values.shape)
    steps = out[1:]
    np.add(values[1:], values[:-1], out=steps)
    np.multiply(dt, steps, out=steps)
    np.divide(steps, 2.0, out=steps)
    if carry is None:
        out[0] = 0.0
    else:
        out[0] = carry
        steps = out
    if out[0].size < ROW_SUM_MIN_WIDTH:
        np.cumsum(steps, axis=0, out=steps)
        return out
    for prev, cur in zip(steps, steps[1:]):
        np.add(prev, cur, out=cur)
    return out


def integrate_y_values(
    zeta: np.ndarray,
    dt: float,
    out: "np.ndarray | None" = None,
    carry: "np.ndarray | None" = None,
) -> np.ndarray:
    """Cumulative trapezoid of time-major multiplicative noise, Y_0 = 0 or carry, into out."""
    return cumulative_trapezoid(zeta, dt, out, carry)


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
    log_a: np.ndarray,
    phi: np.ndarray,
    dt: float,
    ratios: np.ndarray,
    q: np.ndarray,
    start: "np.ndarray | float",
) -> np.ndarray:
    """Driven response via the stable per-step recursion, written over log_a.

    B_{k+1} = B_k exp(dlogA_k) + (dt/2) (phi_k exp(dlogA_k) + phi_{k+1}),
    the trapezoid rule applied inside each step after factoring out the
    propagator ratio.  Arrays are time-major, so each step is one row.
    ratios and q, each one row shorter than log_a, receive the ratios
    exp(dlogA) and the increments, with the ufuncs and operand order of
    exp(diff(log_a)) and 0.5 * dt * (phi[:-1] * ratios + phi[1:]).  B then
    overwrites log_a, which the recursion no longer reads, from B_0 =
    start, and is returned.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        np.subtract(log_a[1:], log_a[:-1], out=ratios)
        np.exp(ratios, out=ratios)
        np.multiply(phi[:-1], ratios, out=q)
        np.add(q, phi[1:], out=q)
        np.multiply(0.5 * dt, q, out=q)
        b = log_a
        b[0] = start
        for prev, cur, ratio, inc in zip(b, b[1:], ratios, q):
            np.multiply(prev, ratio, out=cur)
            np.add(cur, inc, out=cur)
    return b


def _roles(model: LinearModel) -> tuple[tuple[NoiseSpec, int, frozenset], ...]:
    """Each noise role of model: its spec, its stream role and the labels that read it."""
    return (
        (model.multiplicative, ROLE_MULTIPLICATIVE, frozenset({"zeta", "Y", "A", "B", "X", "H"})),
        (model.additive, ROLE_ADDITIVE, frozenset({"phi", "B", "X", "H"})),
    )


def linear_block_arrays(
    model: LinearModel,
    grid: TimeGrid,
    master_seed: int,
    indices: np.ndarray,
    *,
    strides: "dict[str, int] | None" = None,
    into: "dict[str, np.ndarray] | None" = None,
    normals: "list[np.ndarray | None] | None" = None,
    flags: "dict[str, np.ndarray] | None" = None,
) -> dict[str, np.ndarray]:
    """Compute requested process arrays for a block of path indices.

    This is the kernel every ensemble estimator is built on.  It works
    time-major, (nodes, n_paths), from the noise to the last quadrature.
    strides names the arrays to keep, each with its own output stride (X
    at every node when None), so one solve can keep X at a coarse stride
    and its noise at every node.  Each array's every stride-th node is
    kept as path-major rows (n_paths, n_saved), written into into[label]
    when into is given (_solve_rows passes rows of its arrays) and into
    new arrays otherwise.  'flagged' marks the paths whose log A
    rose above +LOG_BUDGET or whose arrays saturated; a log A that only
    falls below -LOG_BUDGET underflows A to 0 and leaves B, X and H exact.
    flags, when given, maps labels of strides to bool arrays of the block's
    paths, which receive each label's own mask, the one a solve of that
    label alone flags: none for zeta and phi, the budget for Y and A, and
    the budget with the saturation of B for B, of B and X for X and of H
    for H.  'flagged' is the union of the requested labels' masks.

    normals, the [multiplicative, additive] keyed normals of the paths
    drawn whole for at least n_nodes nodes (None for a role it does not
    read), are read and left as they are (_solve_rows); without them
    noise.sample_chunks draws each tile's itself.  The kernel walks the
    block in time tiles of max(2, TILE_CELLS // n_paths) nodes from
    sample_chunks, each tile's first node the last of the tile before.
    Across a tile's edge it carries the noise filters' state, Y, B and H
    unsanitized and log A's running maximum; it saturates only the
    tile's own nodes, ORs their masks and writes each label's stride-th
    nodes.  The tiles lie in the TILES tile slots of this thread's block
    workspace (blocks.workspace): zeta, phi, a superposition's scratch,
    Y (then log A, then B), A, the ratios (then X), the increments (then
    phi A) and H, and each saturation mask in the last slot.  A tile
    larger than a slot is new memory.

    Each array is written with out= by the ufuncs, in the order, of the
    allocating formulas in the comments over the whole arrays, so its
    bytes depend neither on where it lives nor on where tiles end.  The
    returned arrays never alias the slots.
    """
    strides = {"X": 1} if strides is None else strides
    need = frozenset(strides)
    unknown = need.difference(PROCESS_LABELS)
    if unknown:
        raise ValueError(f"unknown process requests: {sorted(unknown)}")

    n = len(indices)
    if into is None:
        into = {label: np.empty((n, grid.n_steps // strides[label] + 1)) for label in need}
    slots = workspace()
    shape = (min(grid.n_nodes, max(2, TILE_CELLS // max(n, 1))), n)
    zeta_t, phi_t, scratch, y_t, a_t, ratio_t, inc_t, h_t = (
        slot_array(slot, shape) for slot in slots[1 : TILES + 1]
    )
    chunks = [
        noise_mod.sample_chunks(
            spec, grid, master_seed, indices, role, work=(tile, scratch),
            normals=None if z is None else z[:, : grid.n_nodes],
        ) if need & labels else None
        for (spec, role, labels), tile, z in zip(_roles(model), (zeta_t, phi_t), normals or (None, None))
    ]
    drift = -model.a * grid.times
    carry = np.empty((3, n))  # Y, B and H at the tile's first node
    log_max = np.full(n, -np.inf)
    repairs = {label: np.zeros(n, dtype=bool) for label in ("B", "X", "H")}
    k0 = 0

    def save(label: str, tile: np.ndarray, lo: int) -> None:
        """Write label's stride-th nodes among the tile's rows lo on, row r node k0 + r."""
        if label in need:
            s = strides[label]
            j = -(-(k0 + lo) // s)
            rows = tile[j * s - k0 :: s]
            into[label][:, j : j + len(rows)] = rows.T

    def repair(label: str, arr: np.ndarray) -> None:
        repairs[label] |= _sanitize(arr, slot_array(slots[-1], arr.shape, bool))

    while k0 < grid.n_steps:
        zeta, phi = (None if gen is None else next(gen) for gen in chunks)
        c = len(zeta if phi is None else phi) - 1
        lo, carried = (0, (None, 0.0, None)) if k0 == 0 else (1, carry)
        if zeta is not None:
            save("zeta", zeta, lo)
        if need & {"Y", "A", "B", "X", "H"}:
            log_a = integrate_y_values(zeta, grid.dt, y_t[: c + 1], carried[0])
            save("Y", log_a, lo)
            carry[0] = log_a[c]
            # log_a = -a * t - y
            np.subtract(drift[k0 : k0 + c + 1, None], log_a, out=log_a)
            np.maximum(log_max, log_a.max(axis=0), out=log_max)
        if phi is not None:
            save("phi", phi, lo)
        if need & {"A", "X", "H"}:
            # a_vals = exp(minimum(log_a, _EXP_CAP))
            a_vals = np.minimum(log_a, _EXP_CAP, out=a_t[: c + 1])
            np.exp(a_vals, out=a_vals)
            save("A", a_vals, lo)
        if need & {"B", "X"}:
            b = _response_from_log(log_a, phi, grid.dt, ratio_t[:c], inc_t[:c], carried[1])
            carry[1] = b[c]
            repair("B", b[lo:])
            save("B", b, lo)
        with np.errstate(over="ignore", invalid="ignore"):
            if "X" in need:
                # x = x0 * a_vals + b
                x = ratio_t[: c + 1]
                np.multiply(model.x0, a_vals[lo:], out=x[lo:])
                np.add(x[lo:], b[lo:], out=x[lo:])
                repair("X", x[lo:])
                save("X", x, lo)
            if "H" in need:
                # h = cumulative_trapezoid(phi * a_vals)
                phi_a = np.multiply(phi, a_vals, out=inc_t[: c + 1])
                h = cumulative_trapezoid(phi_a, grid.dt, h_t[: c + 1], carried[2])
                carry[2] = h[c]
                repair("H", h[lo:])
                save("H", h, lo)
        k0 += c

    budget = log_max > LOG_BUDGET
    none = np.zeros(n, dtype=bool)
    own = {"zeta": none, "phi": none, "Y": budget, "A": budget, "H": budget | repairs["H"]}
    own["B"] = budget | repairs["B"]
    own["X"] = own["B"] | repairs["X"]
    flagged = np.zeros(n, dtype=bool)
    for label in need:
        flagged |= own[label]
    for label, mask in (flags or {}).items():
        mask[...] = own[label]
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

    The solve is a Plan of one Rows per label, one kernel in a single
    group: the ensembles' (n_paths, n_saved) arrays and masks are
    allocated once, each block writes its saved rows and flags into them,
    and the solve holds the ensembles and one block's work.  block_size
    bounds a block's rows on top of the loop's cap (_solve_rows).  Row i
    is the same bytes in any partition and with any number of workers.
    """
    unknown = [label for label in need if label not in PROCESS_LABELS]
    if unknown:
        raise ValueError(f"unknown process labels: {unknown}")
    out_grid = grid.subsampled(save_every)
    want = [Rows(master_seed, grid, n_paths, label, save_every) for label in dict.fromkeys(need)]
    plan = Plan(model, workers, [(rows, None) for rows in want], block_size)
    solved = [plan.rows(rows) for rows in want]
    flagged = np.logical_or.reduce([mask for _, mask in solved])
    return {
        rows.label: PathEnsemble(out_grid, rows.label, values, flagged, master_seed)
        for rows, (values, _) in zip(want, solved)
    }


@dataclass(frozen=True)
class Rows:
    """Keyed rows of a linear solve: label at stride on grid, rows 0 .. n - 1 of seed's streams."""

    seed: int
    grid: TimeGrid
    n: int
    label: str
    stride: int

    def empty(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Arrays for k of these rows, as saved at stride, and their mask."""
        return np.empty((k, self.grid.n_steps // self.stride + 1)), np.empty(k, bool)


class Sink(Protocol):
    """What a planned Rows feeds (Plan): add takes each group of its group(workers) paths."""

    def add(self, values: np.ndarray, flagged: np.ndarray) -> None: ...
    def group(self, workers: int) -> int: ...


def _kernels(rows: list[Rows]) -> list[list[int]]:
    """The rows' indices by kernel: Rows on one grid with no label in common share one."""
    kernels: list[list[int]] = []
    for i, r in enumerate(rows):
        for kernel in kernels:
            if rows[kernel[0]].grid == r.grid and r.label not in {rows[j].label for j in kernel}:
                kernel.append(i)
                break
        else:
            kernels.append([i])
    return kernels


def _one_loop(rows: list[Rows]) -> bool:
    """Whether Plan forms rows into one loop: one kernel, or none keeping B or X.

    _solve_rows takes any rows of a seed, but the run grid's X joining the transition
    curves' loop would hold both loops' group buffers at once (4.9 MB more at the peak).
    """
    return len(_kernels(rows)) == 1 or not any(r.label in ("B", "X") for r in rows)


def _solve_rows(
    model: LinearModel,
    seed: int,
    rows: list[Rows],
    held: "dict[Rows, tuple[np.ndarray, np.ndarray]]",
    workers: int,
    block_size: int,
    group: "int | None",
) -> Iterator[list[tuple[np.ndarray, np.ndarray]]]:
    """The block loop of every linear solve: the Rows of one stream namespace in one pass.

    Rows on one grid with no label in common share a kernel (_kernels),
    which computes the union of their labels for the rows any of them
    reads.  Each block draws its rows' keyed normals once, whole, through
    noise.draw_normals into the normals region of the block workspace,
    the multiplicative role first: each role for the rows and the most
    nodes of the Rows reading it that need the block's first row.  Every
    kernel reads its prefix of them, which is what it would draw itself,
    and walks it in time tiles (linear_block_arrays).

    Yields, for the consecutive groups of `group` rows in path order (one
    group of all rows when group is None), one (values, flagged) per
    Rows: the saved rows of its paths in the group and their mask, the
    mask of its label alone (linear_block_arrays), both empty past its n.
    Rows in held lie in the caller's arrays there, of n rows each; the
    others are written into buffers sized for one group, which the next
    group overwrites, so a caller that reduces each group before asking
    for the next holds one group's rows, never the ensemble's.  A block
    holds at most NORMALS_CELLS // (n_nodes K + n_nodes' K') rows, for
    the K components and the most nodes n_nodes of the Rows reading each
    role (at least one row, and at most block_size), so its normals fit
    the block workspace.  Every kernel a block runs works path by path
    and writes only its own rows, so row i is the same bytes in any
    partition, grouping or company and with any number of workers.
    """
    if any(r.n < 1 for r in rows):
        raise ValueError("n_paths must be positive")
    kernels = _kernels(rows)
    n_max = max(r.n for r in rows)
    size = n_max if group is None else min(group, n_max)
    # per Rows: its rows and mask, whole when held, else one group's
    buffers = [held.get(r) or r.empty(min(size, r.n)) for r in rows]
    readers = [[r for r in rows if r.label in labels] for _, _, labels in _roles(model)]
    cells = sum(
        len(spec.components) * max(r.grid.n_nodes for r in mine)
        for (spec, _, _), mine in zip(_roles(model), readers)
        if mine
    )
    cap = min(block_size, max(1, NORMALS_CELLS // max(cells, 1)))

    for lo in range(0, n_max, size):
        n = min(size, n_max - lo)
        parts = []
        for r, (values, mask) in zip(rows, buffers):
            at, k = (lo if r in held else 0), max(0, min(n, r.n - lo))
            parts.append((values[at : at + k], mask[at : at + k]))

        def block(idx: np.ndarray) -> None:
            a, b = lo + int(idx[0]), lo + int(idx[-1]) + 1
            region, normals = workspace()[0], []
            for (spec, role, _), mine in zip(_roles(model), readers):
                mine, z = [r for r in mine if r.n > a], None
                if mine:  # the rows and the most nodes that the Rows reading the role need
                    k = min(b, max(r.n for r in mine)) - a
                    nodes = max(r.grid.n_nodes for r in mine)
                    z = noise_mod.draw_normals(spec, seed, idx[:k] + lo, role, nodes, region)
                    region = region if z is None else region[z.size :]
                normals.append(z)
            for kernel in kernels:
                # each piece of the block has one set of Rows reading its rows
                ends = {rows[i].n for i in kernel}
                cuts = sorted({a, b} | {end for end in ends if a < end < b})
                for p, q in zip(cuts, cuts[1:]):
                    live = [i for i in kernel if rows[i].n > p]
                    if not live:
                        break
                    linear_block_arrays(
                        model, rows[live[0]].grid, seed, np.arange(p, q),
                        strides={rows[i].label: rows[i].stride for i in live},
                        into={rows[i].label: parts[i][0][p - lo : q - lo] for i in live},
                        flags={rows[i].label: parts[i][1][p - lo : q - lo] for i in live},
                        normals=[z if z is None else z[p - a : q - a] for z in normals],
                    )

        run_blocks(n, block, workers=workers, block_size=cap)
        yield parts


@dataclass
class Plan:
    """Every linear solve one caller reads, planned before any is solved.

    planned lists Rows in plan order, each with its consumer: None for one
    read of the held rows (rows), else the Sink fed the rows a group at a
    time in path order (fed).  In plan order, each Rows joins the first
    loop of its seed that _solve_rows takes it into (_one_loop), or starts
    one, and the first read of any of a loop's Rows solves the whole loop
    in one call of _solve_rows.  A loop feeding sinks is solved in the
    smallest group any of them needs, any other in one group.  Each Rows
    gets its own label's mask, so its bytes are those of a solve of it
    alone, in any company.  A read Rows is held from its loop's solve to
    its last planned read, and a read of a Rows the plan does not name
    raises LookupError.
    """

    model: LinearModel
    workers: int
    planned: "list[tuple[Rows, Sink | None]]"
    block_size: int = DEFAULT_BLOCK_SIZE

    def __post_init__(self) -> None:
        self.reads = Counter(r for r, sink in self.planned if sink is None)
        self.sinks = {r: sink for r, sink in self.planned if sink is not None}
        self.held: "dict[Rows, tuple[np.ndarray, np.ndarray]]" = {}
        self.loops: list[list[Rows]] = []
        for r in dict.fromkeys(r for r, _ in self.planned):
            loop = next((q for q in self.loops if q[0].seed == r.seed and _one_loop([*q, r])), None)
            if loop is None:
                self.loops.append([r])
            else:
                loop.append(r)

    def rows(self, want: Rows) -> tuple[np.ndarray, np.ndarray]:
        """want's saved rows and mask, for one of its planned reads."""
        self._solve(want)
        self.reads[want] -= 1
        return self.held[want] if self.reads[want] else self.held.pop(want)

    def fed(self, want: Rows) -> Sink:
        """The sink want's rows were planned to feed, fed every path."""
        self._solve(want)
        return self.sinks[want]

    def _solve(self, want: Rows) -> None:
        """Solve want's loop, unless it is solved: hold the read rows and feed the sinks."""
        if want not in self.reads and want not in self.sinks:
            raise LookupError(f"nothing planned a read of {want}")
        loop = next((loop for loop in self.loops if want in loop), None)
        if loop is None:
            return
        self.loops.remove(loop)
        held = {r: r.empty(r.n) for r in loop if self.reads[r]}
        sinks = [self.sinks.get(r) for r in loop]
        group = min((s.group(self.workers) for s in sinks if s is not None), default=None)
        for parts in _solve_rows(
            self.model, want.seed, loop, held, self.workers, self.block_size, group
        ):
            for sink, (values, flagged) in zip(sinks, parts):
                if sink is not None and len(flagged):  # a group past the Rows' n feeds nothing
                    sink.add(values, flagged)
        self.held.update(held)


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


def stationary_rows(t_star: float, n: int, seed: int, bound: bool) -> Rows:
    """The H rows stationary_sample reads for horizon t_star: rows 0 .. n - 1 of seed.

    The grid steps by about min(0.02 t_star, 0.01), in a multiple of 8
    steps.  The rows keep its 9 nodes at the eighths of t_star when bound
    is set, so a handful of interior nodes calibrate the truncation
    bound, else its first node and the horizon.
    """
    n_steps = max(int(round(t_star / min(0.02 * t_star, 0.01))), 8)
    n_steps += -n_steps % 8
    grid = TimeGrid(dt=t_star / n_steps, n_steps=n_steps)
    return Rows(seed, grid, n, "H", n_steps // 8 if bound else n_steps)


def stationary_sample(
    model: LinearModel,
    t_star: float,
    n: int,
    master_seed: int,
    *,
    p_max: float | None = None,
    plan: "Plan | None" = None,
) -> StationarySample:
    """Approximate stationary draws via the reversed response at t_star.

    H_{t_star} has the law of the stationary state up to a tail the
    caller controls through t_star.  H is read from plan, a Plan naming a
    read of stationary_rows (a plan of that read alone when None).  The
    draws the kernel flags are left out, with no copy when there are
    none.  When p_max is given, a fitted truncation bound
    K exp(gamma_p t_star) is attached: K is calibrated from quasi-norm
    increments of the kept draws' H between intermediate horizons.
    """
    rate = None if p_max is None else _stationary_rate(model, p_max)
    want = stationary_rows(t_star, n, master_seed, p_max is not None)
    h, flagged = (plan or Plan(model, 1, [(want, None)])).rows(want)
    ok = ~flagged
    n_dropped = n - int(ok.sum())

    bound = None
    if p_max is not None:
        sigma_p = min(1.0, p_max)
        times = want.grid.subsampled(want.stride).times
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
