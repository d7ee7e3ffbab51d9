"""Deterministic block-parallel execution over path indices.

Paths are partitioned into fixed-size blocks by index.  Each block is an
independent task whose output depends only on (master_seed, indices in
the block), and block outputs are combined with a pairwise tree in block
order.  Worker count therefore changes scheduling, never results.

Each thread that runs a linear block keeps one workspace of SLOTS
reusable float64 arrays, WORKSPACE_CELLS cells in all (workspace): one
region for the block's keyed normals, drawn whole, and TILES small
arrays plus a mask for the time tiles the kernel walks the block in.
Block after block writes into memory that is already resident instead
of allocating, freeing and faulting in fresh pages.
"""
from __future__ import annotations

import math
import threading
from typing import Callable, Sequence, TypeVar

import numpy as np

DEFAULT_BLOCK_SIZE = 2048

# The 2,048-path blocks of a 151-node grid.  noise.sample_chunks draws
# noise in time chunks of at most this many values (paths x nodes, the
# overlap row included) when it is given no buffer, and the power sums of
# metrics reduce column slices of about a quarter of this many.
BLOCK_CELLS = 2048 * 151

# A linear block's time tile of n paths spans max(2, TILE_CELLS // n)
# nodes, so each of the TILES tile arrays it holds at once (128 KB) stays
# in a core's L2 cache (engine.linear_block_arrays).
TILE_CELLS = 2**14
TILES = 8
# A thread's block workspace, 12.4 MB: SLOTS arrays, the block's keyed
# normals of both roles, which cap a block's paths (engine._solve_rows),
# the TILES tiles and one tile's bool mask.
WORKSPACE_CELLS = 5 * BLOCK_CELLS
NORMALS_CELLS = WORKSPACE_CELLS - TILES * TILE_CELLS - TILE_CELLS // 8
SLOTS = TILES + 2

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


def workspace() -> tuple[np.ndarray, ...]:
    """This thread's SLOTS work arrays: the normals region, TILES tiles and the mask.

    Slot 0 holds NORMALS_CELLS float64 cells, slots 1 to TILES hold
    TILE_CELLS each and the last TILE_CELLS // 8, room for one tile's
    bools.  They are built on the thread's first call (12.4 MB, resident
    from their first use on) and live as long as the thread: a pool
    thread's are freed when it exits, the main thread's stay for the
    process.  Each thread has its own, so blocks on concurrent threads
    never share one.  A caller owns the slots only while it runs:
    whatever it leaves in them is overwritten by the thread's next block.
    """
    slots = getattr(_local, "slots", None)
    if slots is None:
        sizes = (NORMALS_CELLS,) + (TILE_CELLS,) * TILES + (TILE_CELLS // 8,)
        slots = _local.slots = tuple(np.empty(size) for size in sizes)
    return slots


def slot_array(
    slot: "np.ndarray | None", shape: tuple[int, ...], dtype: type = np.float64
) -> np.ndarray:
    """An uninitialised C-contiguous array of shape and dtype on slot's memory.

    A request larger than the slot, or with slot None, gets fresh memory
    instead, so the slots never grow.
    """
    dtype = np.dtype(dtype)
    size = math.prod(shape)
    if slot is None or size * dtype.itemsize > slot.nbytes:
        return np.empty(shape, dtype)
    return slot.view(dtype)[:size].reshape(shape)
