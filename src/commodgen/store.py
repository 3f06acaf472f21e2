"""Deterministic on-disk containers.

Everything an experiment writes (datasets, checkpoints, reports, manifests)
must be byte-identical across reruns, so containers are canonical JSON: keys
sorted, no whitespace variance, floats via repr (shortest exact roundtrip),
NaN/inf rejected, trailing newline.  Arrays are stored as flat row-major
lists with an explicit shape.

Datasets, generator checkpoints and hedger checkpoints share one container
codepath: `write_container` tags the payload with a format name and version,
and `read_container` checks both and decodes the body, so a missing or
truncated file, a wrong tag, a missing key, an ill-formed array block or a
field that `check_field` refuses surfaces as one DataError naming the file.
Only datasets and generator checkpoints are read back; no command reads a
hedger checkpoint.

Tables (loss curves, reports, exports) are CSV and share one codepath too:
`write_csv` takes already-formatted cells, so each module keeps its own
schema and number formatting, and `read_csv` turns a ragged row, an empty
file or bytes that are not UTF-8 into a DataError naming `path:line`.  JSON
and CSV files are both written to a temporary sibling and renamed into
place, so a crash mid-write never leaves a half-written file.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import reprlib
import sys
import typing

import numpy as np

CHECKPOINT_FORMAT = "commodgen-checkpoint"
CHECKPOINT_VERSION = 1


class DataError(ValueError):
    """Malformed or inconsistent input data."""


class ConfigError(ValueError):
    """Unknown key, bad value, or inconsistent command usage."""


# each bound as messages state it -> its test
BOUNDS = {">= 0": lambda v: v >= 0, ">= 1": lambda v: v >= 1, ">= 2": lambda v: v >= 2,
          "> 0": lambda v: v > 0, "in (0, 1]": lambda v: 0 < v <= 1,
          "other than ''": lambda v: v != ""}

_TYPE_NAMES = {int: "an integer", float: "a finite number", bool: "true or false",
               str: "a string", list: "a list of strings", np.ndarray: "an array"}


def _fits(value, kind) -> bool:
    if isinstance(value, bool) != (kind is bool):      # true/false is only ever a bool
        return False
    if kind is float:       # also false for NaN, +-inf and ints beyond float range
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    if kind is list:
        return isinstance(value, list) and all(isinstance(x, str) for x in value)
    return isinstance(value, kind)


def check_field(name: str, value, kind, bound: str | None = None) -> None:
    """Raise a one-line ConfigError naming `name` unless `value` is a `kind`
    within `bound` (a key of BOUNDS).  `kind` is a type of `_TYPE_NAMES`, a
    union of them that may include None, or a tuple of allowed values."""
    if isinstance(kind, tuple):
        ok, what = value in kind, f"one of {', '.join(kind)}"
    else:
        kinds = typing.get_args(kind) or (kind,)
        types = [k for k in kinds if k is not type(None)]
        ok = (value is None and len(types) < len(kinds)) or (
            any(_fits(value, k) for k in types) and (not bound or np.all(BOUNDS[bound](value))))
        what = (" or ".join(_TYPE_NAMES.get(k, f"a {k.__name__}") for k in types)
                + (f" {bound}" if bound else "")
                + (" or null" if len(types) < len(kinds) else ""))
    if not ok:
        raise ConfigError(f"{name} must be {what}, got {reprlib.repr(value)}")


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def content_hash(obj) -> str:
    """sha256 hex digest of the canonical JSON encoding."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def array_block(arr: np.ndarray) -> dict:
    arr = np.asarray(arr, dtype=np.float64)
    return {"shape": list(arr.shape), "data": [float(v) for v in arr.reshape(-1)]}


def block_array(block: dict) -> np.ndarray:
    if block.keys() - {"shape", "data"}:
        raise DataError(f"an array block holds only 'shape' and 'data', got {sorted(block)}")
    return np.asarray(block["data"], dtype=np.float64).reshape(block["shape"])


def _write_atomic(path, text: str) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


def write_json(path, obj) -> None:
    _write_atomic(path, canonical_json(obj))


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def read_json(path) -> dict:
    """Parse a UTF-8 JSON file, refusing NaN and +-Infinity as canonical JSON does."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh, parse_constant=_reject_constant)


def write_container(path, fmt: str, version: int, body: dict) -> None:
    """Write `body` tagged with its container format and version."""
    write_json(path, {"format": fmt, "version": version, **body})


def read_container(path, fmt: str, version: int, what: str, decode):
    """Read a container written by `write_container` and return `decode(payload)`.

    `what` names the container in messages.  A missing file, unreadable
    JSON, a wrong format tag or version, and any missing key or ill-typed
    value met while decoding all raise DataError naming the file, as does a
    DataError that `decode` raises itself.
    """
    try:
        raw = read_json(path)
    except FileNotFoundError:
        raise DataError(f"no {what} at {path}") from None
    except ValueError as exc:
        raise DataError(f"{path}: {what} is not valid JSON ({exc})") from None
    if not isinstance(raw, dict) or raw.get("format") != fmt:
        raise DataError(f"{path}: not a {what}")
    if raw.get("version") != version:
        raise DataError(f"{path}: unsupported {what} version {raw.get('version')}, "
                        f"expected {version}")
    try:
        return decode(raw)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
    except KeyError as exc:
        raise DataError(f"{path}: {what} lacks key {exc}") from None
    except (TypeError, ValueError, IndexError, AttributeError) as exc:
        raise DataError(f"{path}: malformed {what} ({exc})") from None


def write_csv(path, header, rows) -> None:
    """Write a header and rows of already-formatted string cells, `\n`-terminated."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _write_atomic(path, buf.getvalue())


def read_csv(path) -> tuple[list, list]:
    """Return (header, rows) of string cells, skipping blank lines and a
    leading UTF-8 byte-order mark (as spreadsheet "CSV UTF-8" exports write).

    Bytes that are not UTF-8, an empty file, a row whose field count
    differs from the header's and a field the csv module cannot parse raise
    DataError naming `path:line`.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # offsets count from past a leading byte-order mark, which the codec strips
        start = exc.start + len(raw) - len(exc.object)
        line = raw.count(b"\n", 0, start) + 1
        raise DataError(f"{path}:{line}: not UTF-8 text ({exc.reason} "
                        f"at byte {start})") from None
    header, rows = None, []
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        for row in reader:
            if not any(cell.strip() for cell in row):
                continue
            if header is None:
                header = row
            elif len(row) != len(header):
                raise DataError(f"{path}:{reader.line_num}: {len(row)} fields, "
                                f"expected {len(header)}")
            else:
                rows.append(row)
    except csv.Error as exc:
        raise DataError(f"{path}:{reader.line_num}: {exc}") from None
    if header is None:
        raise DataError(f"{path}:1: file is empty")
    return header, rows
