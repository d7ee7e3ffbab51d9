"""Deterministic block-parallel execution over path indices.

Paths are partitioned into fixed-size blocks by index.  Each block is an
independent task whose output depends only on (master_seed, indices in
the block), and block outputs are combined with a pairwise tree in block
order.  Worker count therefore changes scheduling, never results.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

import numpy as np

DEFAULT_BLOCK_SIZE = 2048

# Cells one working array may hold: the 2,048-path blocks of a 151-node
# grid.  solve_linear caps its blocks at this many paths x fine-grid
# nodes, noise.sample_chunks draws single-component noise in time chunks
# of at most this many values (paths x nodes, the overlap row included),
# and the power sums of metrics reduce column slices of about this many
# values.
BLOCK_CELLS = 2048 * 151

T = TypeVar("T")


def block_ranges(n_paths: int, block_size: int = DEFAULT_BLOCK_SIZE) -> list[np.ndarray]:
    """Fixed partition of 0..n_paths-1 into index blocks."""
    if n_paths < 1:
        raise ValueError("n_paths must be positive")
    if block_size < 1:
        raise ValueError("block_size must be positive")
    return [
        np.arange(lo, min(lo + block_size, n_paths), dtype=np.int64)
        for lo in range(0, n_paths, block_size)
    ]


def pairwise_sum(values: Sequence[np.ndarray]) -> np.ndarray:
    """Add values with a balanced pairwise tree in list order."""
    if not values:
        raise ValueError("nothing to combine")
    level = list(values)
    while len(level) > 1:
        nxt = [level[i] + level[i + 1] for i in range(0, len(level) - 1, 2)]
        if len(level) % 2 == 1:
            nxt.append(level[-1])
        level = nxt
    return level[0]


def run_blocks(
    n_paths: int,
    block_fn: Callable[[np.ndarray], T],
    *,
    workers: int = 1,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> list[T]:
    """Evaluate block_fn on every index block; results in block order.

    block_fn must be a pure function of the index array (plus whatever
    seeds it closes over).  With workers > 1 blocks run on a thread pool;
    numpy kernels release the GIL so this overlaps real work.
    """
    blocks = block_ranges(n_paths, block_size)
    if workers <= 1 or len(blocks) == 1:
        return [block_fn(b) for b in blocks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(block_fn, blocks))
