"""Artifact persistence with byte-stable output.

Formats
-------
Ensemble CSV: RFC 4180, LF line endings, header row, one row per path:
    path_index,flagged,<t0>,<t1>,...
Floats are written as repr (shortest round-trip form), so identical
arrays always serialize to identical bytes.  Rows go through orjson's
float writer, which gives the same text about ten times faster, where
the two agree: zero, and finite values with 1e-4 <= |x| < 1e16.  A row
holding any other value (where repr uses an exponent, or nan and inf)
is joined from repr.  orjson is loaded on the first CSV write, so
`import rmplab` loads numpy alone.  The file is written and read
one row at a time, so neither side holds more than one row's text; the
reader parses the rows into one array, sized by a first pass that
counts the lines.  It refuses (IOFailureError) an empty file, a header
with no rows, header times that are not the uniform grid k * dt from 0,
and any row whose field count, path index, 0/1 flag or values do not
parse.

Ensemble binary: 64-byte little-endian header followed by the value
matrix and the flag vector:
    offset  size  field
    0       8     magic "RMPLENS\\0"
    8       4     format version (uint32, currently 1)
    12      8     process label, ASCII, NUL padded
    20      8     n_paths  (uint64)
    28      8     n_steps  (uint64)
    36      8     dt       (float64)
    44      8     master_seed (uint64)
    52      12    reserved (zero)
    64      8*n_paths*(n_steps+1)   values, float64, row-major
    ...     n_paths                 flag bytes (0 or 1)
The reader reads the values and flags straight into their arrays once
the header matches the file's size.  It refuses (IOFailureError) a short
or long file, a bad magic or version, a dt, n_steps or label that does
not make an ensemble, and a flag byte other than 0 or 1.

JSON summaries: UTF-8, sorted keys, two-space indent, no timestamps.
"""
from __future__ import annotations

import hashlib
import io
import json
import os
import struct
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, TextIO

import numpy as np

from .engine import PathEnsemble
from .errors import IOFailureError
from .grid import TimeGrid

MAGIC = b"RMPLENS\x00"
BINARY_VERSION = 1
_HEADER = struct.Struct("<8sI8sQQdQ12x")
assert _HEADER.size == 64


def _fmt(x: float) -> str:
    """The text of a float in every artifact; ensemble CSV rows write it via orjson."""
    return repr(float(x))


@contextmanager
def _out(path: "str | Path", binary: bool = False) -> Iterator["TextIO | BinaryIO"]:
    """Open path for writing, as UTF-8 text with LF line ends unless binary.

    OSError, on opening or writing, becomes IOFailureError.
    """
    try:
        if binary:
            fh = open(path, "wb")
        else:
            fh = open(path, "w", encoding="utf-8", newline="\n")
        with fh:
            yield fh
    except OSError as exc:
        raise IOFailureError(f"cannot write {path}: {exc}") from exc


def _write_text(path: "str | Path", text: str) -> None:
    with _out(path) as fh:
        fh.write(text)


# Values the CSV writer gates at a time: the gate's temporaries stay at
# 256 KB whatever the ensemble's size.
CSV_BLOCK = 1 << 15


def _orjson_rows(block: np.ndarray) -> np.ndarray:
    """Which rows of block hold only values orjson writes as repr does.

    Those are zero and finite values with 1e-4 <= |x| < 1e16.  repr writes
    the others with an exponent (1e-05, 1e+16), orjson as 1e-5, 1e16, a
    plain number or null.
    """
    a = np.abs(block)
    return (((a >= 1e-4) & (a < 1e16)) | (a == 0.0)).all(axis=1)


def write_ensemble_csv(path: "str | Path", ensemble: PathEnsemble) -> None:
    import orjson  # on use, so that `import rmplab` loads numpy alone

    header = "path_index,flagged," + ",".join(_fmt(t) for t in ensemble.grid.times)
    step = max(1, CSV_BLOCK // ensemble.grid.n_nodes)
    with _out(path, binary=True) as fh:
        fh.write(header.encode() + b"\n")
        for start in range(0, ensemble.n_paths, step):
            # orjson writes C-contiguous rows only; a view when the ensemble is
            block = np.ascontiguousarray(ensemble.values[start : start + step], dtype=np.float64)
            flags = ensemble.flagged[start : start + step].tolist()
            plain = _orjson_rows(block).tolist()
            for j, row in enumerate(block):
                if plain[j]:
                    text = orjson.dumps(row, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1]
                else:  # tolist gives Python floats, so repr is the _fmt text
                    text = ",".join(map(repr, row.tolist())).encode()
                fh.write(b"%d,%d,%b\n" % (start + j, flags[j], text))


def _csv_grid(header: str) -> TimeGrid:
    """The grid of a CSV header, which must list a uniform grid from 0."""
    fields = header.split(",")
    if fields[:2] != ["path_index", "flagged"]:
        raise IOFailureError("ensemble CSV header must start with path_index,flagged")
    try:
        times = np.array([float(v) for v in fields[2:]])
    except ValueError as exc:
        raise IOFailureError(f"ensemble CSV header: {exc}") from exc
    if times.size < 2:
        raise IOFailureError("ensemble CSV must contain at least two nodes")
    dt = float(times[1])
    # A TimeGrid rebuilds its times as k * dt; they must be the header's.
    with np.errstate(over="ignore", invalid="ignore"):
        uniform = dt > 0.0 and np.array_equal(times, np.arange(times.size) * dt)
    if not (uniform and np.isfinite(times[-1])):
        raise IOFailureError("ensemble CSV header times are not a uniform grid from 0")
    return TimeGrid(dt=dt, n_steps=times.size - 1)


def _parse_csv(lines: Iterable[str], max_rows: int) -> tuple[TimeGrid, np.ndarray, np.ndarray]:
    """Grid, values and flags of ensemble CSV lines, parsed one row at a time.

    Rows are parsed into one (max_rows, n_nodes) array; a file holding
    more rows than max_rows (line breaks counted as other than LF) grows
    it, and one holding fewer trims it.
    """
    lines = (ln for ln in (raw.rstrip("\n") for raw in lines) if ln)
    header = next(lines, None)
    if header is None:
        raise IOFailureError("ensemble CSV is empty")
    grid = _csv_grid(header)
    width = grid.n_nodes + 2
    values = np.empty((max_rows, grid.n_nodes))
    flags = np.empty(max_rows, dtype=bool)
    n = 0
    for line in lines:
        where = f"ensemble CSV row {n}"
        fields = line.split(",")
        if len(fields) != width:
            raise IOFailureError(f"{where}: {len(fields)} fields, expected {width}")
        if fields[0] != str(n):
            raise IOFailureError(f"{where}: path_index is {fields[0]!r}")
        if fields[1] not in ("0", "1"):
            raise IOFailureError(f"{where}: flag {fields[1]!r} is not 0 or 1")
        if n == len(values):
            values.resize((2 * n + 1, grid.n_nodes), refcheck=False)
            flags.resize(2 * n + 1, refcheck=False)
        try:
            values[n] = [float(v) for v in fields[2:]]
        except ValueError as exc:
            raise IOFailureError(f"{where}: {exc}") from exc
        flags[n] = fields[1] == "1"
        n += 1
    if n == 0:
        raise IOFailureError("ensemble CSV has a header but no rows")
    if n < len(values):
        values.resize((n, grid.n_nodes), refcheck=False)
        flags.resize(n, refcheck=False)
    return grid, values, flags


# Bytes read at a time to count an ensemble CSV's lines.
COUNT_BLOCK = 1 << 16


def _line_count(fh: BinaryIO) -> int:
    """Lines of a binary file from its position on: LF count, plus a last line without one."""
    count, last = 0, b"\n"
    while block := fh.read(COUNT_BLOCK):
        count += block.count(b"\n")
        last = block[-1:]
    return count + (last != b"\n")


def read_ensemble_csv(path: "str | Path", label: str, master_seed: int = 0) -> PathEnsemble:
    """The ensemble of an ensemble CSV, each value held once.

    The file is read twice: once to count its lines, which bounds the
    rows, then to parse them into one array of that many rows, so the
    reader holds the values it returns and one row's text, not a list of
    row arrays joined at the end.
    """
    try:
        with open(path, "rb") as raw:
            max_rows = max(_line_count(raw) - 1, 0)  # all but the header
            raw.seek(0)
            with io.TextIOWrapper(raw, encoding="utf-8") as fh:
                grid, values, flagged = _parse_csv(fh, max_rows)
    except IOFailureError:
        raise
    except (OSError, UnicodeDecodeError) as exc:
        raise IOFailureError(str(exc)) from exc
    return PathEnsemble(
        grid=grid, label=label, values=values, flagged=flagged, master_seed=master_seed
    )


def write_ensemble_binary(path: "str | Path", ensemble: PathEnsemble) -> None:
    label = ensemble.label.encode("ascii")[:8]
    header = _HEADER.pack(
        MAGIC,
        BINARY_VERSION,
        label.ljust(8, b"\x00"),
        ensemble.n_paths,
        ensemble.grid.n_steps,
        ensemble.grid.dt,
        ensemble.master_seed,
    )
    # Each part goes straight to the file: values (C order, little-endian
    # float64, a view when the ensemble already is) are never joined into
    # one bytes object with the header and flags.
    body = np.ascontiguousarray(ensemble.values, dtype="<f8")
    flags = np.ascontiguousarray(ensemble.flagged, dtype=np.uint8)
    with _out(path, binary=True) as fh:
        fh.write(header)
        fh.write(body.data)
        fh.write(flags.data)


def read_ensemble_binary(path: "str | Path") -> PathEnsemble:
    """The ensemble of an ensemble binary, read straight into its value and flag arrays.

    The header is checked against the file's size before anything else
    is read, so the arrays are allocated only for a file that holds them.
    """
    try:
        with open(path, "rb") as fh:
            head = fh.read(_HEADER.size)
            if len(head) < _HEADER.size:
                raise IOFailureError("truncated ensemble file: missing header")
            magic, version, label, n_paths, n_steps, dt, master_seed = _HEADER.unpack(head)
            if magic != MAGIC:
                raise IOFailureError("not an ensemble file: bad magic")
            if version != BINARY_VERSION:
                raise IOFailureError(f"unsupported ensemble format version {version}")
            n_nodes = n_steps + 1
            expected = _HEADER.size + 8 * n_paths * n_nodes + n_paths
            size = os.fstat(fh.fileno()).st_size
            if size != expected:
                raise IOFailureError(
                    f"truncated ensemble file: expected {expected} bytes, got {size}"
                )
            values = np.empty((n_paths, n_nodes), dtype="<f8")
            flags = np.empty(n_paths, dtype=np.uint8)
            for arr in (values, flags):
                if fh.readinto(arr.reshape(-1).view(np.uint8)) != arr.nbytes:
                    raise IOFailureError(f"truncated ensemble file: {path} shrank while read")
    except IOFailureError:
        raise
    except OSError as exc:
        raise IOFailureError(str(exc)) from exc
    if np.any(flags > 1):
        raise IOFailureError("bad ensemble file: a flag byte is neither 0 nor 1")
    try:  # a bad dt, n_steps or label; UnicodeDecodeError is a ValueError
        return PathEnsemble(
            grid=TimeGrid(dt=dt, n_steps=n_steps),
            label=label.rstrip(b"\x00").decode("ascii"),
            values=values,
            flagged=flags.view(bool),
            master_seed=master_seed,
        )
    except ValueError as exc:
        raise IOFailureError(f"bad ensemble header: {exc}") from exc


def to_jsonable(obj: object) -> object:
    """Recursively convert numpy containers/scalars to plain JSON types."""
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        if np.isnan(v):
            return "nan"
        if np.isinf(v):
            return "inf" if v > 0 else "-inf"
        return v
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    return obj


def write_json(path: "str | Path", payload: object) -> None:
    text = json.dumps(to_jsonable(payload), sort_keys=True, indent=2) + "\n"
    _write_text(path, text)


def write_moment_csv(
    path: "str | Path",
    rows: Iterable[tuple[float, float, float, float, int, int]],
) -> None:
    """Moment curve table with columns t, p, value, std_err, n, excluded."""
    lines = ["t,p,value,std_err,n,excluded"]
    for t, p, value, std_err, n, excluded in rows:
        lines.append(
            f"{_fmt(t)},{_fmt(p)},{_fmt(value)},{_fmt(std_err)},{int(n)},{int(excluded)}"
        )
    _write_text(path, "\n".join(lines) + "\n")


def write_convergence_csv(
    path: "str | Path",
    rows: Iterable[tuple[float, float, float, float, float, float]],
) -> None:
    lines = ["t,E_f_Xt,std_err,delta,fitted_rate,predicted_rate"]
    for t, v, se, delta, fitted, predicted in rows:
        lines.append(
            ",".join(_fmt(x) for x in (t, v, se, delta, fitted, predicted))
        )
    _write_text(path, "\n".join(lines) + "\n")


def write_plotdata(
    path: "str | Path", columns: "dict[str, np.ndarray]", stub_path: "str | Path | None" = None
) -> None:
    """Whitespace-separated data file plus an optional matplotlib stub."""
    names = list(columns)
    arrays = [np.asarray(columns[n], dtype=np.float64) for n in names]
    n_rows = len(arrays[0])
    lines = ["# " + " ".join(names)]
    for i in range(n_rows):
        lines.append(" ".join(_fmt(a[i]) for a in arrays))
    _write_text(path, "\n".join(lines) + "\n")
    if stub_path is not None:
        data_name = Path(path).name
        stub = (
            "import matplotlib.pyplot as plt\n"
            "import numpy as np\n\n"
            f"data = np.loadtxt({data_name!r})\n"
            f"names = {names!r}\n"
            "for j in range(1, data.shape[1]):\n"
            "    plt.plot(data[:, 0], data[:, j], label=names[j])\n"
            "plt.xlabel(names[0])\n"
            "plt.legend()\n"
            "plt.tight_layout()\n"
            f"plt.savefig({(Path(path).stem + '.png')!r}, dpi=150)\n"
        )
        _write_text(stub_path, stub)


# Bytes sha256_file reads at a time, so hashing never holds a whole artifact.
HASH_BLOCK = 1 << 20


def sha256_file(path: "str | Path") -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        while block := fh.read(HASH_BLOCK):
            h.update(block)
    return h.hexdigest()


def build_manifest(
    out_dir: "str | Path",
    artifact_names: "list[str]",
    *,
    config_hash: str,
    wall_clock_s: float,
    subcommand: str,
    version: str,
    flagged: "dict[str, int] | None" = None,
    verdicts: "dict[str, str] | None" = None,
) -> dict:
    out = Path(out_dir)
    artifacts = [
        {
            "path": name,
            "sha256": sha256_file(out / name),
            "bytes": (out / name).stat().st_size,
        }
        for name in sorted(artifact_names)
    ]
    return {
        "config_sha256": config_hash,
        "subcommand": subcommand,
        "artifacts": artifacts,
        "flagged_paths": flagged or {},
        "verdicts": verdicts or {},
        "wall_clock_s": wall_clock_s,
        "version": version,
    }
