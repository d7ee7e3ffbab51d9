"""Stationary noise processes driving the random ODE.

Two roles appear in the model: a centered Gaussian process multiplying
the state (built from exponentially correlated components) and an
additive forcing term that may be Gaussian, constant, or heavy tailed.
The heavy-tailed option maps a unit-variance exponentially correlated
Gaussian path through the inverse Pareto CDF, which preserves
stationarity and time reversibility while giving exact power-law
marginals.

All samplers use one counter-based stream per (path, role), so ensembles
are reproducible path-by-path regardless of batching.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .blocks import BLOCK_CELLS, slot_array
from .errors import SpecRejectedError, UnsupportedKindError
from .grid import TimeGrid
from .rng import block_normals

OU = "ou"
OU_SUPERPOSITION = "ou_superposition"
ZERO = "zero"
CONSTANT = "constant"
PARETO_TRANSFORMED_OU = "pareto_transformed_ou"

GAUSSIAN_KINDS = frozenset({OU, OU_SUPERPOSITION, ZERO})
ALL_KINDS = frozenset({OU, OU_SUPERPOSITION, ZERO, CONSTANT, PARETO_TRANSFORMED_OU})


@dataclass(frozen=True)
class NoiseSpec:
    """Declarative description of one stationary noise source.

    components holds (sigma_i, tau_i) pairs for the exponentially
    correlated kinds.  level is the value of a constant source.
    tail_index and scale parameterize the Pareto marginal of the
    transformed kind; its components entry holds the single latent
    correlation time with unit sigma.
    """

    kind: str
    components: tuple[tuple[float, float], ...] = ()
    level: float = 0.0
    tail_index: float = float("inf")
    scale: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ALL_KINDS:
            raise ValueError(f"unknown noise kind: {self.kind!r}")
        if self.kind in (OU, OU_SUPERPOSITION, PARETO_TRANSFORMED_OU):
            if not self.components:
                raise ValueError(f"{self.kind} requires at least one component")
            for sigma, tau in self.components:
                if not (sigma > 0.0 and np.isfinite(sigma)):
                    raise ValueError("component sigma must be positive and finite")
                if not (tau > 0.0 and np.isfinite(tau)):
                    raise ValueError("component tau_c must be positive and finite")
        if self.kind == OU and len(self.components) != 1:
            raise ValueError("plain ou takes exactly one component")
        if self.kind == PARETO_TRANSFORMED_OU:
            if not (self.tail_index > 1.0):
                raise ValueError("tail_index must exceed 1 so the mean exists")
            if not (self.scale > 0.0 and np.isfinite(self.scale)):
                raise ValueError("scale must be positive and finite")
        if self.kind == CONSTANT and not np.isfinite(self.level):
            raise ValueError("constant level must be finite")

    @staticmethod
    def ou(sigma: float, tau_c: float) -> "NoiseSpec":
        return NoiseSpec(kind=OU, components=((float(sigma), float(tau_c)),))

    @staticmethod
    def superposition(components: "list[tuple[float, float]]") -> "NoiseSpec":
        comps = tuple((float(s), float(t)) for s, t in components)
        return NoiseSpec(kind=OU_SUPERPOSITION, components=comps)

    @staticmethod
    def zero() -> "NoiseSpec":
        return NoiseSpec(kind=ZERO)

    @staticmethod
    def constant(level: float) -> "NoiseSpec":
        return NoiseSpec(kind=CONSTANT, level=float(level))

    @staticmethod
    def pareto_ou(tau_c: float, tail_index: float, scale: float = 1.0) -> "NoiseSpec":
        return NoiseSpec(
            kind=PARETO_TRANSFORMED_OU,
            components=((1.0, float(tau_c)),),
            tail_index=float(tail_index),
            scale=float(scale),
        )

    @property
    def taus(self) -> tuple[float, ...]:
        """The correlation times of the components, none for the zero and constant kinds."""
        return tuple(t for _, t in self.components)


def require_multiplicative(spec: NoiseSpec) -> None:
    """Raise unless the spec may multiply the state.

    Only centered Gaussian kinds qualify: the moment machinery downstream
    rests on the Gaussian law of the integrated noise.  The degenerate
    zero spec passes, though it voids the transition order a/D (D = 0).
    """
    if spec.kind == PARETO_TRANSFORMED_OU:
        raise SpecRejectedError("heavy-tailed multiplicative noise is outside the Gaussian route")
    if spec.kind not in GAUSSIAN_KINDS:
        raise SpecRejectedError(f"{spec.kind} is not a centered Gaussian process")


def _require_gaussian(spec: NoiseSpec, op: str) -> None:
    if spec.kind not in GAUSSIAN_KINDS:
        raise UnsupportedKindError(f"{op} is only defined for Gaussian kinds, got {spec.kind}")


def correlation(spec: NoiseSpec, ts: "np.ndarray | float") -> np.ndarray:
    """Stationary autocovariance sum_i sigma_i^2 exp(-|t|/tau_i)."""
    _require_gaussian(spec, "correlation")
    t = np.abs(np.asarray(ts, dtype=np.float64))
    out = np.zeros_like(t)
    for sigma, tau in spec.components:
        out += sigma * sigma * np.exp(-t / tau)
    return out


def diffusion_constant(spec: NoiseSpec) -> float:
    """Zero-frequency spectral weight D = sum_i sigma_i^2 tau_i."""
    _require_gaussian(spec, "diffusion_constant")
    return float(sum(s * s * t for s, t in spec.components))


def y_variance_half(spec: NoiseSpec, ts: "np.ndarray | float") -> np.ndarray:
    """Half the variance of the integrated noise at each time.

    Closed form per component: sigma^2 tau t - sigma^2 tau^2 (1 - exp(-t/tau)),
    which equals the double integral of the correlation over the time
    wedge.  The unit tests pin this against direct quadrature.
    """
    _require_gaussian(spec, "y_variance_half")
    t = np.asarray(ts, dtype=np.float64)
    if np.any(t < 0.0):
        raise ValueError("y_variance_half requires nonnegative times")
    out = np.zeros_like(t)
    for sigma, tau in spec.components:
        out += sigma * sigma * tau * t - sigma * sigma * tau * tau * (-np.expm1(-t / tau))
    # the two terms cancel to O(t^2) as t -> 0 and rounding can leave a
    # negative ulp; the result is a variance, clamp it
    return np.maximum(out, 0.0)


def tail_index(spec: NoiseSpec) -> float:
    """Largest order p such that E|noise|^q is finite for all q < p."""
    if spec.kind == PARETO_TRANSFORMED_OU:
        return spec.tail_index
    return float("inf")


def stationary_moment(spec: NoiseSpec, p: float) -> float:
    """E|noise_t|^p of the marginal law, where a closed form exists."""
    if spec.kind == ZERO:
        return 0.0
    if spec.kind == CONSTANT:
        return float(abs(spec.level) ** p)
    if spec.kind == PARETO_TRANSFORMED_OU:
        if p >= spec.tail_index:
            raise ValueError("moment of order p >= tail_index diverges")
        b = spec.tail_index
        return float(spec.scale**p * b / (b - p))
    raise UnsupportedKindError(f"no closed-form marginal moment for kind {spec.kind}")


def _ou_filter(g: np.ndarray, r: float) -> None:
    """Run the OU recursion g_{k+1} = r g_k + g_{k+1} in place over the rows of g.

    Each step is one multiply r * g_k and one add of the innovation, in
    that order, which is the arithmetic of the direct-form filter
    lfilter([1], [1, -r]) started from r * g_0.
    """
    step = np.empty(g.shape[1:])
    rows = list(g)
    for prev, cur in zip(rows, rows[1:]):
        np.multiply(prev, r, out=step)
        np.add(cur, step, out=cur)


def _pareto_marginal(spec: NoiseSpec, out: np.ndarray) -> None:
    """Map a unit-variance latent path onto the Pareto marginal, in place."""
    from scipy.special import ndtr  # imported on use: import rmplab loads numpy only

    # ndtr(-w) is the exact survival function, safe from cancellation for
    # large w.  Each operation runs in place, with the arithmetic of
    # scale * ndtr(-w) ** (-1 / tail_index).
    np.negative(out, out=out)
    ndtr(out, out=out)
    out **= -1.0 / spec.tail_index
    out *= spec.scale


def sample_block(
    spec: NoiseSpec,
    grid: TimeGrid,
    master_seed: int,
    path_indices: np.ndarray,
    role: int,
    *,
    work: "tuple[np.ndarray, np.ndarray | None] | None" = None,
    normals: "np.ndarray | None" = None,
) -> np.ndarray:
    """Sample paths for a block of path indices, time-major.

    The result is C-contiguous with shape (n_nodes, n), one row per node
    and one column per path, the layout every path kernel works in; path
    i of the block is column i.  It is sample_chunks joined, so every kind
    is drawn node by node in one loop: a draw that fits in one chunk of
    BLOCK_CELLS values, as every solve_linear block does, is that chunk,
    and a larger one is copied chunk by chunk into one full-size array.
    work and normals are passed on to sample_chunks, so a draw in one
    chunk lies in work's first slot; the full-size array of a larger draw
    is new memory.
    """
    n = len(path_indices)
    chunks = sample_chunks(
        spec, grid, master_seed, path_indices, role, work=work, normals=normals
    )
    first = next(chunks)
    if len(first) == grid.n_nodes:
        return first
    out = np.empty((grid.n_nodes, n))
    k = 0
    for chunk in itertools.chain([first], chunks):
        out[k : k + len(chunk)] = chunk
        k += len(chunk) - 1
    return out


def sample_chunks(
    spec: NoiseSpec,
    grid: TimeGrid,
    master_seed: int,
    path_indices: np.ndarray,
    role: int,
    *,
    work: "tuple[np.ndarray, np.ndarray | None] | None" = None,
    normals: "np.ndarray | None" = None,
) -> Iterator[np.ndarray]:
    """Sample paths for a block of path indices in time chunks.

    A chunk holds at most BLOCK_CELLS values, its overlap row included,
    so it spans steps = max(1, BLOCK_CELLS // n - 1) steps (all of them
    if fewer).  Chunk j is time-major with shape (c + 1, n): the nodes
    j * steps to j * steps + c, with c = min(steps, n_steps - j * steps),
    so its row 0 repeats the last row of the chunk before.  A chunk is
    the caller's to overwrite, and is reused once the next one is asked
    for.

    Every kind built on K >= 1 OU components runs one loop.  Row k's
    normals come from the keyed stream of (master_seed, path_indices[k],
    role) through block_normals, node by node: the K component normals of
    node 0, then those of node 1, and so on, so a chunk's draws hold K
    values per path and node and a row's numbers do not depend on where
    chunks end.  For component (sigma, tau), node 0 is the stationary
    initial value g_0 = sigma xi_0, node k + 1 the term
    sigma sqrt(1 - r^2) xi_{k+1} of the exact one-step update
    g_{k+1} = r g_k + sigma sqrt(1 - r^2) xi_{k+1}, r = exp(-dt/tau);
    _ou_filter runs it in place on whole rows, so each component equals
    lfilter's bit for bit.  Component 0 is filtered in the chunk buffer,
    each later one in one scratch chunk that is then added into the
    buffer.  Then 0.0 is added (which turns a -0.0 into 0.0, as a sum
    into a zero array does) and the Pareto kind is mapped onto its
    marginal.  A draw in one chunk resets one generator per row (streams
    None); a draw split into chunks continues one generator per row from
    chunk to chunk, and each chunk's row 0 is every component's latent
    OU state carried over from the chunk before, so every element meets
    the same operations as in one chunk.  The zero and constant kinds are
    filled per chunk.

    work, two slots of the calling thread's block workspace
    (blocks.workspace: 12.4 MB on each thread that ran a linear block,
    resident for the thread's life), is what the linear kernel passes:
    the chunk buffer then lies in the first slot, and block_normals draws
    the path-major normals into the second, so block after block reuses
    memory that is already resident.  Both slots are the generator's
    until it is exhausted or dropped.  Without work the buffers are new
    memory, as are a superposition's scratch chunk and its draws, which
    are K chunks large, in any case.

    normals, when given, are the rows' keyed normals already drawn
    (draw_normals) for at least n_nodes nodes: each chunk reads its
    nodes' slice of them instead of drawing, and leaves them as they
    are.  A keyed stream is sequential, so a row's first values are the
    same numbers whatever length it was drawn for, and the chunks are
    those of a draw of their own.
    """
    idx = np.asarray(path_indices)
    n = len(idx)
    steps = min(grid.n_steps, max(1, BLOCK_CELLS // max(n, 1) - 1))
    bounds = [(k0, min(steps, grid.n_steps - k0)) for k0 in range(0, grid.n_steps, steps)]
    chunk_slot, draw_slot = work or (None, None)
    if spec.kind in (ZERO, CONSTANT):
        for _, c in bounds:
            rows = slot_array(chunk_slot, (c + 1, n))
            rows.fill(0.0 if spec.kind == ZERO else spec.level)
            yield rows
        return

    n_comp = len(spec.components)
    filters = [
        (sigma, sigma * np.sqrt(-np.expm1(-2.0 * grid.dt / tau)), np.exp(-grid.dt / tau))
        for sigma, tau in spec.components
    ]
    buf, carry = slot_array(chunk_slot, (steps + 1, n)), np.empty((n_comp, n))
    scratch = np.empty((steps + 1, n)) if n_comp > 1 else None
    streams: "list[np.random.Generator] | None" = None if len(bounds) == 1 else []

    def draw(k0: int, c: int) -> np.ndarray:
        """The normals of nodes k0 .. k0 + c, less node k0 after the first chunk."""
        if normals is not None:
            return normals[:, k0 + 1 if k0 else 0 : k0 + c + 1]
        length = c + 1 if k0 == 0 else c
        if draw_slot is None:
            return block_normals(master_seed, idx, role, (length, n_comp), streams)
        out = slot_array(draw_slot, (n, length, n_comp))
        return block_normals(master_seed, idx, role, (length, n_comp), streams, out=out)

    for k0, c in bounds:
        rows = buf[: c + 1]
        draws = draw(k0, c)
        for j, (sigma, s, r) in enumerate(filters):
            g = rows if j == 0 else scratch[: c + 1]
            if k0 == 0:
                np.multiply(draws[:, 0, j], sigma, out=g[0])
            else:
                g[0] = carry[j]
            np.multiply(draws[:, -c:, j].T, s, out=g[1:])
            _ou_filter(g, r)
            carry[j] = g[c]
            if j:
                np.add(rows, g, out=rows)
        del draws  # not held while the caller has the chunk
        np.add(rows, 0.0, out=rows)
        if spec.kind == PARETO_TRANSFORMED_OU:
            _pareto_marginal(spec, rows)
        yield rows


def draw_normals(
    spec: NoiseSpec,
    master_seed: int,
    path_indices: np.ndarray,
    role: int,
    n_nodes: int,
    slot: "np.ndarray | None" = None,
) -> "np.ndarray | None":
    """The keyed normals sample_chunks reads for these rows, drawn for n_nodes nodes.

    Path-major, (n, n_nodes, K) for the spec's K components, drawn by
    block_normals into slot's memory (blocks.slot_array); None for the
    zero and constant kinds, which draw nothing.  Any prefix of the nodes
    is what sample_chunks would draw itself on a grid of that many nodes.
    """
    if spec.kind in (ZERO, CONSTANT):
        return None
    shape = (n_nodes, len(spec.components))
    out = slot_array(slot, (len(path_indices),) + shape)
    return block_normals(master_seed, path_indices, role, shape, out=out)


# Catalog of Gaussian specs exercised by the verification suite.  All of
# them keep sum_i sigma_i^2 tau_i^2 small enough that the integrated-noise
# variance deficit stays within the default diagnostic ratio budget up to
# order p = 2.
SHIPPED_GAUSSIAN_SPECS: dict[str, NoiseSpec] = {
    "ou_short": NoiseSpec.ou(1.0, 0.5),
    "ou_long": NoiseSpec.ou(0.5, 2.0),
    "two_scale": NoiseSpec.superposition([(1.0, 1.0), (2.0, 0.25)]),
    "three_scale": NoiseSpec.superposition([(0.5, 0.4), (0.35, 1.2), (0.25, 3.0)]),
}
