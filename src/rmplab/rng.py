"""Counter-based random number streams.

Each (master_seed, path_index, role) triple owns an independent Philox
stream, so path i draws the same numbers no matter how paths are
batched, ordered, or spread across workers.  The role field separates
the noise sources feeding one path: multiplicative noise, additive
noise, and marginal draws used by exact-law estimators.

A Philox stream is fixed by its 128-bit key alone: a fresh generator
starts at counter zero with an empty output buffer.  So block_normals
checks the keys once per call, builds every row's key in one array
pass, and resets one generator per row to a fresh generator's state
with that row's key, instead of constructing a generator per path.
A draw split into pieces instead keeps one generator per row, so each
row's stream continues from piece to piece.
"""
from __future__ import annotations

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF
_ROLE_BITS = 3

ROLE_MULTIPLICATIVE = 0
ROLE_ADDITIVE = 1
ROLE_MARGINAL = 2
ROLE_GENERIC = 3

_VALID_ROLES = (ROLE_MULTIPLICATIVE, ROLE_ADDITIVE, ROLE_MARGINAL, ROLE_GENERIC)


def _stream_key(master_seed: int, path_index: int, role: int) -> np.ndarray:
    """The 128-bit Philox key [master_seed, path_index << 3 | role].

    master_seed enters modulo 2**64, so derived seeds such as
    master_seed + 1 stay keyable at the top of the range.
    """
    if master_seed < 0:
        raise ValueError("master_seed must be nonnegative")
    if role not in _VALID_ROLES:
        raise ValueError(f"unknown stream role: {role}")
    if path_index < 0:
        raise ValueError("path_index must be nonnegative")
    if path_index >= (1 << (64 - _ROLE_BITS)):
        raise ValueError("path_index exceeds the keyable range")
    return np.array(
        [
            np.uint64(master_seed & _MASK64),
            (np.uint64(path_index) << np.uint64(_ROLE_BITS)) | np.uint64(role),
        ],
        dtype=np.uint64,
    )


def path_stream(master_seed: int, path_index: int, role: int) -> np.random.Generator:
    """Return the generator owned by (master_seed, path_index, role).

    The 128-bit Philox key is [master_seed, path_index << 3 | role], so
    distinct triples never collide as long as path_index < 2**61.
    """
    key = _stream_key(master_seed, path_index, role)
    return np.random.Generator(np.random.Philox(key=key))


def block_normals(
    master_seed: int,
    path_indices: np.ndarray,
    role: int,
    shape_per_path: tuple[int, ...],
    streams: "list[np.random.Generator] | None" = None,
    *,
    out: "np.ndarray | None" = None,
) -> np.ndarray:
    """Standard normal draws for a block of paths, one stream per path.

    Output shape is (len(path_indices), *shape_per_path).  Row k depends
    only on (master_seed, path_indices[k], role), never on the block
    layout: it equals path_stream(master_seed, path_indices[k],
    role).standard_normal(shape_per_path) bit for bit.

    The index dtype (integer, unless the block is empty), the seed, the
    role and the smallest and largest index are checked once, before
    anything is drawn, and every row's second key word
    (index << 3 | role) is built in one array pass.  One Philox generator
    is built per call; before each row its whole state (key, counter,
    output buffer and buffer position) is set to that of a fresh
    generator keyed for the row.  That is all the state Philox keeps and
    Generator keeps none of its own, so the row draws exactly what
    path_stream's new generator would.  The state is held in Python
    lists, which the Philox state setter reads faster than numpy arrays.
    The generator is local to the call, so blocks drawn on concurrent
    worker threads never share it.

    streams continues the rows' streams across calls, for a draw made in
    pieces: pass an empty list on the first call and the same list, with
    the same rows, on every later one.  The first call fills it with one
    generator per row, keyed as above, and each call draws on from where
    the last one stopped.  Generator.standard_normal keeps nothing between
    calls, so row k of the pieces, joined, equals
    path_stream(master_seed, path_indices[k], role).standard_normal(total).
    Building a generator costs about ten times a reset, which a draw in one
    piece (streams None) does not pay.

    out, if given, receives the draws and is returned: a C-contiguous
    float64 array of the output shape, such as a block workspace slot
    (blocks.slot_array).  Without it the draws go to a new array.
    """
    idx = np.asarray(path_indices)
    if idx.size and idx.dtype.kind not in "iu":
        raise ValueError(f"path indices must be integers, got dtype {idx.dtype}")
    shape = (len(idx),) + shape_per_path
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous float64 array of shape {shape}")
    lo, hi = (int(idx.min()), int(idx.max())) if idx.size else (0, 0)
    first_key = _stream_key(master_seed, lo, role)
    _stream_key(master_seed, hi, role)
    if streams and len(streams) != len(idx):
        raise ValueError("streams must hold one generator per row")
    if out.size == 0:
        return out
    words = ((idx.astype(np.uint64) << _ROLE_BITS) | role).tolist()
    rows = out.reshape(len(idx), -1)
    if streams is not None:
        if not streams:
            streams.extend(
                np.random.Generator(np.random.Philox(key=np.array([first_key[0], w], np.uint64)))
                for w in words
            )
        for row, gen in zip(rows, streams):
            gen.standard_normal(out=row)
        return out
    bit_gen = np.random.Philox(key=first_key)
    gen = np.random.Generator(bit_gen)
    fresh = bit_gen.state
    state = {
        **fresh,
        "state": {name: v.tolist() for name, v in fresh["state"].items()},
        "buffer": fresh["buffer"].tolist(),
    }
    key = state["state"]["key"]
    for row, word in zip(rows, words):
        key[1] = word
        bit_gen.state = state
        gen.standard_normal(out=row)
    return out
