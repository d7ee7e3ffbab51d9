"""Stream independence and layout invariance of the keyed generators."""
import numpy as np
import pytest
from numpy.random import bit_generator

from rmplab.rng import (
    ROLE_ADDITIVE,
    ROLE_GENERIC,
    ROLE_MARGINAL,
    ROLE_MULTIPLICATIVE,
    block_normals,
    path_stream,
)


def test_same_triple_reproduces_draws():
    a = path_stream(42, 7, ROLE_MULTIPLICATIVE).standard_normal(32)
    b = path_stream(42, 7, ROLE_MULTIPLICATIVE).standard_normal(32)
    np.testing.assert_array_equal(a, b)


def test_distinct_triples_give_distinct_streams():
    base = path_stream(42, 7, ROLE_MULTIPLICATIVE).standard_normal(32)
    for seed, idx, role in [
        (43, 7, ROLE_MULTIPLICATIVE),
        (42, 8, ROLE_MULTIPLICATIVE),
        (42, 7, ROLE_ADDITIVE),
        (42, 7, ROLE_MARGINAL),
        (42, 7, ROLE_GENERIC),
    ]:
        other = path_stream(seed, idx, role).standard_normal(32)
        assert not np.array_equal(base, other)


def test_role_bits_do_not_alias_neighboring_paths():
    # (idx << 3) | role must never collide with another (idx, role) pair
    a = path_stream(0, 1, ROLE_MULTIPLICATIVE).standard_normal(16)
    b = path_stream(0, 0, ROLE_GENERIC).standard_normal(16)
    assert not np.array_equal(a, b)


def test_block_rows_independent_of_block_layout():
    wide = block_normals(9, np.arange(10), ROLE_ADDITIVE, (5,))
    narrow = block_normals(9, np.array([6, 7]), ROLE_ADDITIVE, (5,))
    np.testing.assert_array_equal(wide[6], narrow[0])
    np.testing.assert_array_equal(wide[7], narrow[1])
    direct = path_stream(9, 6, ROLE_ADDITIVE).standard_normal((5,))
    np.testing.assert_array_equal(wide[6], direct)


def test_block_normals_shape():
    out = block_normals(1, np.arange(3), ROLE_MULTIPLICATIVE, (2, 4))
    assert out.shape == (3, 2, 4)


def test_invalid_role_and_index_rejected():
    with pytest.raises(ValueError):
        path_stream(1, 0, 17)
    with pytest.raises(ValueError):
        path_stream(1, -1, ROLE_GENERIC)
    with pytest.raises(ValueError):
        path_stream(1, 1 << 61, ROLE_GENERIC)


def test_pooled_draws_are_standard_normal():
    draws = block_normals(123, np.arange(200), ROLE_GENERIC, (50,)).ravel()
    n = draws.size
    assert abs(draws.mean()) < 5.0 / np.sqrt(n)
    assert abs(draws.var() - 1.0) < 5.0 * np.sqrt(2.0 / n)


@pytest.mark.parametrize("shape", [(1, 151), (1, 2501)])
@pytest.mark.parametrize(
    "role", [ROLE_MULTIPLICATIVE, ROLE_ADDITIVE, ROLE_MARGINAL, ROLE_GENERIC]
)
def test_block_rows_equal_fresh_streams(shape, role):
    # unsorted, with a repeat: every row restarts its own stream from scratch
    indices = np.array([9, 2, 40, 2, 0, 9])
    block = block_normals(31, indices, role, shape)
    for row, idx in enumerate(indices):
        fresh = path_stream(31, int(idx), role).standard_normal(shape)
        np.testing.assert_array_equal(block[row], fresh)


def test_seed_wraps_modulo_two_to_the_64():
    # derived seeds such as master_seed + 1 stay keyable at the top of the range
    top = path_stream(2**64, 3, ROLE_GENERIC).standard_normal(4)
    np.testing.assert_array_equal(top, path_stream(0, 3, ROLE_GENERIC).standard_normal(4))
    with pytest.raises(ValueError):
        path_stream(-1, 0, ROLE_GENERIC)


def test_block_rows_at_the_top_of_the_keyable_range():
    # the largest keyable index beside small ones, under a seed that wraps
    seed = 2**64 + 9
    indices = np.array([3, 2**61 - 1, 0, 2**61 - 1])
    block = block_normals(seed, indices, ROLE_MARGINAL, (2, 5))
    for row, idx in enumerate(indices):
        fresh = path_stream(seed, int(idx), ROLE_MARGINAL).standard_normal((2, 5))
        np.testing.assert_array_equal(block[row], fresh)


def _count_philox_builds(monkeypatch) -> list:
    built = []
    real_philox = np.random.Philox

    def counting_philox(*args, **kwargs):
        built.append(args)
        return real_philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting_philox)
    return built


@pytest.mark.parametrize(
    "seed, indices, role",
    [
        (1, [4, -1, 2], ROLE_GENERIC),
        (1, [0, 1 << 61, 2], ROLE_GENERIC),
        (1, [0, 1], 17),
        (-1, [0, 1], ROLE_GENERIC),
    ],
)
def test_block_rejects_unkeyable_requests_before_drawing(monkeypatch, seed, indices, role):
    # no generator is built, so nothing can have been drawn
    built = _count_philox_builds(monkeypatch)
    with pytest.raises(ValueError):
        block_normals(seed, np.array(indices), role, (3,))
    assert built == []


@pytest.mark.parametrize(
    "indices", [np.array([2.7]), np.array([0.0, 3.0]), np.array([True, False])]
)
def test_block_rejects_non_integer_indices_before_drawing(monkeypatch, indices):
    # a float index would otherwise be truncated onto another path's stream
    built = _count_philox_builds(monkeypatch)
    with pytest.raises(ValueError):
        block_normals(1, indices, ROLE_GENERIC, (3,))
    assert built == []


def test_empty_block_keeps_its_shape():
    out = block_normals(5, np.array([], dtype=np.int64), ROLE_ADDITIVE, (2, 7))
    assert out.shape == (0, 2, 7)


def test_index_dtype_and_container_do_not_change_bytes():
    indices = [11, 0, 7, 2**20]
    ref = block_normals(8, np.array(indices, dtype=np.int64), ROLE_MULTIPLICATIVE, (9,))
    for given in (np.array(indices, dtype=np.int32), indices):
        out = block_normals(8, given, ROLE_MULTIPLICATIVE, (9,))
        assert out.tobytes() == ref.tobytes()


def test_one_generator_per_block(monkeypatch):
    # the byte tests cannot tell per-row construction from a per-row reset
    built = _count_philox_builds(monkeypatch)
    block_normals(4, np.arange(300), ROLE_ADDITIVE, (1, 151))
    assert len(built) == 1


@pytest.mark.parametrize("pieces", [(1, 1, 1, 1, 1), (2, 7, 1), (0, 151, 0, 3), (2501,)])
@pytest.mark.parametrize("seed", [31, 2**64 + 31, 2**63 - 1])
@pytest.mark.parametrize("role", [ROLE_MULTIPLICATIVE, ROLE_ADDITIVE])
def test_continued_rows_equal_fresh_streams(pieces, seed, role):
    # unsorted, with a repeat: each row continues its own stream
    indices = np.array([9, 2, 40, 2, 0, 9, (1 << 61) - 1])
    streams = []
    joined = np.concatenate(
        [block_normals(seed, indices, role, (c,), streams) for c in pieces], axis=1
    )
    assert len(streams) == len(indices)
    for row, idx in zip(joined, indices):
        fresh = path_stream(seed, int(idx), role).standard_normal(sum(pieces))
        assert row.tobytes() == fresh.tobytes()


def test_continued_streams_are_built_once_and_keep_their_rows(monkeypatch):
    built = _count_philox_builds(monkeypatch)
    streams = []
    for _ in range(3):
        block_normals(4, np.arange(5), ROLE_ADDITIVE, (7,), streams)
    assert len(built) == 5  # one generator per row, on the first piece only
    with pytest.raises(ValueError, match="one generator per row"):
        block_normals(4, np.arange(6), ROLE_ADDITIVE, (7,), streams)


@pytest.mark.parametrize(
    "seed, index, role",
    [(0, 0, ROLE_MULTIPLICATIVE), (42, 7, ROLE_ADDITIVE), (2**64 + 31, 5, ROLE_GENERIC),
     (2**64 - 1, (1 << 61) - 1, ROLE_MARGINAL)],
)
def test_streams_are_philox_keyed_without_drawing_entropy(monkeypatch, seed, index, role):
    # A stream is the Philox generator of its key, built from the key alone,
    # with no SeedSequence of OS entropy for the key to override.
    key = np.array([seed % 2**64, (index << 3) | role], dtype=np.uint64)
    want = np.random.Generator(np.random.Philox(key=key)).standard_normal(9)
    entropy = []
    draw = bit_generator.randbits
    monkeypatch.setattr(bit_generator, "randbits", lambda bits: entropy.append(bits) or draw(bits))
    got = path_stream(seed, index, role).standard_normal(9)
    streams = []  # a row drawn in pieces keeps a generator built the same way
    head = block_normals(seed, np.array([index]), role, (4,), streams)[0]
    assert got.tobytes() == want.tobytes()
    assert np.concatenate([head, streams[0].standard_normal(5)]).tobytes() == want.tobytes()
    assert entropy == []
    np.random.Philox(key=key)  # the census sees the entropy a keyed build draws
    assert entropy
