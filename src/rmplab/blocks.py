"""Deterministic block-parallel execution over path indices.

Paths are partitioned into fixed-size blocks by index.  Each block is an
independent task whose output depends only on (master_seed, indices in
the block), and block outputs are combined with a pairwise tree in block
order.  Worker count therefore changes scheduling, never results.

Each thread that runs a linear block keeps one workspace, a float64
region of NORMALS_CELLS cells (workspace), for the block's keyed
normals, drawn whole.  Block after block writes its normals into memory
that is already resident instead of allocating, freeing and faulting in
fresh pages; the small time tiles the kernel walks the block in are
made by each kernel call.
"""
from __future__ import annotations

import math
import threading
from typing import Callable, Sequence, TypeVar

import numpy as np

DEFAULT_BLOCK_SIZE = 2048

# The 2,048-path blocks of a 151-node grid.  noise.sample_chunks draws
# noise in time chunks of at most this many values (paths x nodes, the
# overlap row included) when it is given no chunk length, and the power
# sums of metrics reduce column slices of about a quarter of this many.
BLOCK_CELLS = 2048 * 151

# A linear block's time tile of n paths spans max(2, TILE_CELLS // n)
# nodes, so each tile array it holds at once (128 KB) stays in a core's
# L2 cache (engine.linear_block_arrays).
TILE_CELLS = 2**14
# A thread's block workspace, 11.3 MB: the block's keyed normals of both
# roles, whose size caps a block's paths (engine._solve_rows), to 2,347
# on 301 nodes of two OU roles and to 510 on 1,385.
NORMALS_CELLS = 1_413_120

_local = threading.local()

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
    # imported here: concurrent.futures loads logging, which no serial run needs
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(block_fn, blocks))


def workspace() -> np.ndarray:
    """This thread's normals region: NORMALS_CELLS float64 cells.

    It is built on the thread's first call (11.3 MB, resident from its
    first use on) and lives as long as the thread: a pool thread's is
    freed when it exits, the main thread's stays for the process.  Each
    thread has its own, so blocks on concurrent threads never share one.
    A caller owns the region only while it runs: whatever it leaves there
    is overwritten by the thread's next block.
    """
    region = getattr(_local, "region", None)
    if region is None:
        region = _local.region = np.empty(NORMALS_CELLS)
    return region


def slot_array(slot: "np.ndarray | None", shape: tuple[int, ...]) -> np.ndarray:
    """An uninitialised C-contiguous float64 array of shape on slot's memory.

    A request larger than the slot, or with slot None, gets fresh memory
    instead, so the slot never grows.
    """
    size = math.prod(shape)
    if slot is None or size > slot.size:
        return np.empty(shape)
    return slot[:size].reshape(shape)
