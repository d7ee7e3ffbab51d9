"""Artifact formats: round trips, byte stability, corruption handling."""
import hashlib
import json
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rmplab import storage
from rmplab.engine import SATURATION, PathEnsemble
from rmplab.errors import IOFailureError
from rmplab.grid import TimeGrid
from rmplab.storage import (
    BINARY_VERSION,
    HASH_BLOCK,
    MAGIC,
    build_manifest,
    read_ensemble_binary,
    read_ensemble_csv,
    sha256_file,
    to_jsonable,
    write_ensemble_binary,
    write_ensemble_csv,
    write_json,
    write_plotdata,
)
from peaks import traced_peak


@pytest.fixture
def ensemble():
    grid = TimeGrid(dt=0.25, n_steps=4)
    rng = np.random.default_rng(5)
    return PathEnsemble(
        grid=grid,
        label="X",
        values=rng.normal(size=(6, 5)),
        flagged=np.array([False, True, False, False, False, True]),
        master_seed=99,
    )


def test_binary_round_trip(tmp_path, ensemble):
    path = tmp_path / "ens.bin"
    write_ensemble_binary(path, ensemble)
    back = read_ensemble_binary(path)
    np.testing.assert_array_equal(back.values, ensemble.values)
    np.testing.assert_array_equal(back.flagged, ensemble.flagged)
    assert back.label == "X"
    assert back.master_seed == 99
    assert back.grid.dt == ensemble.grid.dt
    assert path.read_bytes()[:8] == MAGIC


def test_binary_corruption_detected(tmp_path, ensemble):
    path = tmp_path / "ens.bin"
    write_ensemble_binary(path, ensemble)
    blob = path.read_bytes()

    bad_magic = tmp_path / "magic.bin"
    bad_magic.write_bytes(b"XXXXXXXX" + blob[8:])
    with pytest.raises(IOFailureError):
        read_ensemble_binary(bad_magic)

    truncated = tmp_path / "short.bin"
    truncated.write_bytes(blob[:-7])
    with pytest.raises(IOFailureError):
        read_ensemble_binary(truncated)

    bad_version = tmp_path / "ver.bin"
    bad_version.write_bytes(blob[:8] + b"\xff\x00\x00\x00" + blob[12:])
    with pytest.raises(IOFailureError):
        read_ensemble_binary(bad_version)

    with pytest.raises(IOFailureError):
        read_ensemble_binary(tmp_path / "missing.bin")


@pytest.mark.parametrize(
    "field,value",
    [("dt", float("nan")), ("n_steps", 0), ("label", b"Q"), ("label", b"\xc3\xa9"), ("flag", 2)],
    ids=["nan_dt", "zero_steps", "unknown_label", "non_ascii_label", "flag_two"],
)
def test_binary_reader_refuses_bad_fields(tmp_path, field, value):
    n_paths, n_steps, dt, label = 3, 4, 0.25, b"X"
    if field == "n_steps":
        n_steps = value
    elif field == "dt":
        dt = value
    elif field == "label":
        label = value
    header = struct.pack("<8sI8sQQdQ12x", MAGIC, BINARY_VERSION, label, n_paths, n_steps, dt, 7)
    flags = bytes([0, value if field == "flag" else 1, 0])
    path = tmp_path / "ens.bin"
    path.write_bytes(header + np.zeros(n_paths * (n_steps + 1)).tobytes() + flags)
    with pytest.raises(IOFailureError):
        read_ensemble_binary(path)


def test_csv_round_trip(tmp_path, ensemble):
    path = tmp_path / "ens.csv"
    write_ensemble_csv(path, ensemble)
    back = read_ensemble_csv(path, "X", master_seed=99)
    np.testing.assert_array_equal(back.values, ensemble.values)  # repr round-trips
    np.testing.assert_array_equal(back.flagged, ensemble.flagged)
    first = path.read_text().splitlines()[0]
    assert first.startswith("path_index,flagged,0.0,0.25")


def _repr_csv(ensemble: PathEnsemble) -> bytes:
    """The ensemble CSV with repr of every value: the oracle of write_ensemble_csv."""
    lines = ["path_index,flagged," + ",".join(repr(float(t)) for t in ensemble.grid.times)]
    for i, row in enumerate(ensemble.values):
        flag = int(ensemble.flagged[i])
        lines.append(f"{i},{flag}," + ",".join(repr(float(v)) for v in row))
    return ("\n".join(lines) + "\n").encode("utf-8")


def _csv_bytes(path, ensemble: PathEnsemble) -> bytes:
    write_ensemble_csv(path, ensemble)
    return path.read_bytes()


def _ensemble_of(values) -> PathEnsemble:
    values = np.asarray(values, dtype=np.float64)
    return PathEnsemble(
        grid=TimeGrid(dt=0.25, n_steps=values.shape[1] - 1),
        label="X",
        values=values,
        flagged=np.arange(values.shape[0]) % 3 == 1,
        master_seed=0,
    )


def test_csv_bytes_are_the_repr_of_every_value(tmp_path, ensemble):
    assert _csv_bytes(tmp_path / "ens.csv", ensemble) == _repr_csv(ensemble)


# Where repr's and orjson's float text part (see storage._orjson_rows).
_EDGES = {
    "nan": float("nan"),
    "inf": float("inf"),
    "-inf": float("-inf"),
    "zero": 0.0,
    "-zero": -0.0,
    "min_subnormal": 5e-324,
    "subnormal": 2.2250738585072e-310,
    "1e-4": 1e-4,
    "below_1e-4": float(np.nextafter(1e-4, 0.0)),
    "below_1e16": 9999999999999998.0,
    "1e16": 1e16,
    "saturation": SATURATION,
    "max": 1.7976931348623157e308,
}


@pytest.mark.parametrize("edge", list(_EDGES.values()), ids=list(_EDGES))
def test_csv_bytes_are_repr_at_every_edge(tmp_path, edge):
    # the edge among ordinary values, alone in a row, and negated
    ens = _ensemble_of([[1.5, edge, -0.25], [edge, edge, edge], [-edge, 2.0, 3.0]])
    assert _csv_bytes(tmp_path / "ens.csv", ens) == _repr_csv(ens)


def test_csv_bytes_are_repr_in_a_row_of_mixed_values(tmp_path):
    mixed = [1.5, 1e-5, 0.1, 1e20, float("nan"), -0.0, 123.0, float("-inf"), 5e-324]
    ens = _ensemble_of([np.linspace(0.1, 9.0, 9), mixed, np.linspace(-3.0, 3.0, 9)])
    assert _csv_bytes(tmp_path / "ens.csv", ens) == _repr_csv(ens)


@pytest.mark.parametrize("layout", ["fortran", "strided"])
def test_csv_bytes_are_repr_for_non_contiguous_values(tmp_path, layout):
    wide = np.random.default_rng(7).normal(size=(12, 10))
    values = np.asfortranarray(wide[:6, :5]) if layout == "fortran" else wide[::2, ::2]
    ens = _ensemble_of(values)
    assert not ens.values.flags.c_contiguous
    assert _csv_bytes(tmp_path / "ens.csv", ens) == _repr_csv(ens)


def test_csv_bytes_are_repr_across_gate_blocks(tmp_path, monkeypatch):
    # two rows a block, the fallback row in the last block but one
    monkeypatch.setattr(storage, "CSV_BLOCK", 10)
    values = np.random.default_rng(8).normal(size=(7, 5))
    values[4, 2] = 1e-7
    ens = _ensemble_of(values)
    assert _csv_bytes(tmp_path / "ens.csv", ens) == _repr_csv(ens)


# any float64, and more often one near either edge of orjson's range
_row_values = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.floats(1e-5, 1e-3),
    st.floats(-1e-3, -1e-5),
    st.floats(1e15, 1e17),
    st.floats(-1e17, -1e15),
)


@given(
    values=arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(2, 8)), elements=_row_values)
)
@example(values=np.array([[1e-4, np.nextafter(1e-4, 0.0), 9999999999999998.0, 1e16]]))
@example(values=np.array([[0.0, -0.0, 5e-324, np.nan], [1.0, np.inf, -np.inf, 0.1]]))
@settings(max_examples=150, deadline=None)
def test_csv_bytes_are_repr_of_any_float64_rows(tmp_path_factory, values):
    ens = _ensemble_of(values)
    path = tmp_path_factory.mktemp("csv") / "ens.csv"
    assert _csv_bytes(path, ens) == _repr_csv(ens)


_HEADER = b"path_index,flagged,0.0,0.5,1.0\n"


@pytest.mark.parametrize(
    "blob,needle",
    [
        (b"", "empty"),
        (_HEADER, "no rows"),
        (_HEADER + b"0,0,1.0,2.0,3.0\n1,0,1.0,2.0\n", "row 1: 4 fields"),
        (_HEADER + b"0,0,1.0,abc,3.0\n", "row 0"),
        (_HEADER + b"0,0.5,1.0,2.0,3.0\n", "flag"),
        (b"path_index,flagged,0.0,0.5,2.0\n0,0,1.0,2.0,3.0\n", "uniform grid"),
        (b"path_index,flagged,0.0,1e308,2e308\n0,0,1.0,2.0,3.0\n", "uniform grid"),
        (_HEADER + b"1,0,1.0,2.0,3.0\n", "path_index"),
        (b"t,0.0,0.5,1.0\n0,0,1.0,2.0,3.0\n", "header"),
        (_HEADER + b"0,0,1.0,\xff,3.0\n", "decode"),
    ],
    ids=[
        "empty", "header_only", "ragged", "non_numeric", "non_integer_flag",
        "non_uniform", "overflowing_times", "path_index", "bad_header", "not_utf8",
    ],
)
def test_csv_reader_fails_closed(tmp_path, blob, needle):
    path = tmp_path / "bad.csv"
    path.write_bytes(blob)
    with pytest.raises(IOFailureError, match=needle):
        read_ensemble_csv(path, "X")


def _large_ensemble() -> PathEnsemble:
    rng = np.random.default_rng(8)
    return PathEnsemble(
        grid=TimeGrid(dt=0.01, n_steps=300), label="X", values=rng.normal(size=(2000, 301)),
        flagged=np.arange(2000) % 9 == 0, master_seed=4,
    )


@pytest.mark.parametrize("fmt", ["binary", "csv"])
def test_readers_hold_each_value_once(tmp_path, fmt):
    # The binary is read straight into the values, the CSV parsed into one
    # array its line count sizes; reading the whole file and copying it,
    # or stacking row arrays, peaked at about twice the values.
    ens = _large_ensemble()
    path = tmp_path / f"ens.{fmt}"
    if fmt == "binary":
        write_ensemble_binary(path, ens)
    else:
        write_ensemble_csv(path, ens)
    with traced_peak() as peak:
        back = read_ensemble_binary(path) if fmt == "binary" else read_ensemble_csv(path, "X", 4)
    assert back.values.tobytes() == ens.values.tobytes()
    assert back.flagged.tobytes() == ens.flagged.tobytes()
    assert peak.bytes <= 1.2 * back.values.nbytes


@pytest.mark.parametrize(
    "old,new", [(b"\n", b"\r"), (b"\n", b"\n\n"), (b"\n", b"\r\n")], ids=["cr", "blank", "crlf"]
)
def test_csv_reader_grows_or_trims_past_its_line_count(tmp_path, ensemble, old, new):
    # Lone CR line breaks are lines the LF count misses, blank lines are
    # counted but hold no row: the rows are those of the LF file either way.
    path = tmp_path / "ens.csv"
    write_ensemble_csv(path, ensemble)
    path.write_bytes(path.read_bytes().replace(old, new))
    back = read_ensemble_csv(path, "X", master_seed=99)
    assert back.values.tobytes() == ensemble.values.tobytes()
    assert back.flagged.tobytes() == ensemble.flagged.tobytes()


def test_write_is_byte_stable(tmp_path, ensemble):
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    write_ensemble_binary(a, ensemble)
    write_ensemble_binary(b, ensemble)
    assert sha256_file(a) == sha256_file(b)


def test_binary_bytes_are_header_values_and_flags(tmp_path):
    # Fortran-ordered values are written in C order, as tobytes() joins them.
    values = np.asfortranarray(np.random.default_rng(2).normal(size=(300, 700)))
    ens = PathEnsemble(
        grid=TimeGrid(dt=0.5, n_steps=699), label="X", values=values,
        flagged=np.arange(300) % 3 == 0, master_seed=4,
    )
    path = tmp_path / "ens.bin"
    write_ensemble_binary(path, ens)
    header = struct.pack("<8sI8sQQdQ12x", MAGIC, BINARY_VERSION, b"X", 300, 699, 0.5, 4)
    expected = header + values.astype("<f8").tobytes() + ens.flagged.astype(np.uint8).tobytes()
    assert path.read_bytes() == expected
    assert sha256_file(path) == hashlib.sha256(expected).hexdigest()


@pytest.mark.parametrize("size", [0, 1, 4 * HASH_BLOCK + 17])
def test_sha256_file_hashes_the_whole_file_a_block_at_a_time(tmp_path, size):
    blob = np.random.default_rng(size).bytes(size)
    path = tmp_path / "blob"
    path.write_bytes(blob)
    with traced_peak() as peak:
        digest = sha256_file(path)
    assert digest == hashlib.sha256(blob).hexdigest()
    assert peak.bytes < 3 * HASH_BLOCK  # a block or two held, never the whole file


def test_json_output_is_canonical(tmp_path):
    one, two = tmp_path / "one.json", tmp_path / "two.json"
    write_json(one, {"b": 1, "a": [np.float64(2.5), np.int32(3)]})
    write_json(two, {"a": [2.5, 3], "b": 1})
    assert one.read_bytes() == two.read_bytes()
    assert json.loads(one.read_text()) == {"a": [2.5, 3], "b": 1}


def test_to_jsonable_handles_special_floats():
    out = to_jsonable({"x": np.array([1.0, np.nan, np.inf, -np.inf])})
    assert out["x"][0] == 1.0
    assert out["x"][1] == "nan"
    assert out["x"][2] == "inf"
    assert out["x"][3] == "-inf"


def test_plotdata_and_stub(tmp_path):
    data = tmp_path / "curve.dat"
    stub = tmp_path / "plot_curve.py"
    write_plotdata(data, {"t": np.array([0.0, 1.0]), "v": np.array([2.0, 3.0])}, stub_path=stub)
    body = data.read_text().splitlines()
    assert body[0] == "# t v"
    assert body[1] == "0.0 2.0"
    loaded = np.loadtxt(data)
    np.testing.assert_allclose(loaded, [[0.0, 2.0], [1.0, 3.0]])
    assert "matplotlib" in stub.read_text()


def test_manifest_lists_checksums(tmp_path):
    (tmp_path / "x.csv").write_text("t\n1\n")
    manifest = build_manifest(
        tmp_path,
        ["x.csv"],
        config_hash="abc",
        wall_clock_s=0.5,
        subcommand="simulate",
        version="0.1.0",
        flagged={"simulate": 0},
        verdicts={},
    )
    assert manifest["config_sha256"] == "abc"
    entry = manifest["artifacts"][0]
    assert entry["path"] == "x.csv"
    assert entry["sha256"] == sha256_file(tmp_path / "x.csv")
    assert entry["bytes"] == (tmp_path / "x.csv").stat().st_size
