"""Counter-based random number streams.

Each (master_seed, path_index, role) triple owns an independent Philox
stream, so path i draws the same numbers no matter how paths are
batched, ordered, or spread across workers.  The role field separates
the noise sources feeding one path: multiplicative noise, additive
noise, and marginal draws used by exact-law estimators.
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
) -> np.ndarray:
    """Standard normal draws for a block of paths, one stream per path.

    Output shape is (len(path_indices), *shape_per_path).  Row k depends
    only on (master_seed, path_indices[k], role), never on the block
    layout: it equals path_stream(master_seed, path_indices[k],
    role).standard_normal(shape_per_path) bit for bit.

    One Philox generator is built per call and, before each row, its key
    is set to that row's stream key and its counter and output buffer are
    reset to a fresh generator's, which is all the state Philox keeps.
    This skips the per-path construction (and OS-entropy seeding) of
    path_stream.  The generator is local to the call, so blocks drawn on
    concurrent worker threads never share it.
    """
    out = np.empty((len(path_indices),) + shape_per_path, dtype=np.float64)
    if out.size == 0:
        return out
    bit_gen = np.random.Philox(key=_stream_key(master_seed, 0, role))
    gen = np.random.Generator(bit_gen)
    fresh = bit_gen.state
    rows = out.reshape(len(path_indices), -1)
    for row, idx in enumerate(path_indices):
        fresh["state"]["key"] = _stream_key(master_seed, int(idx), role)
        bit_gen.state = fresh
        gen.standard_normal(out=rows[row])
    return out
