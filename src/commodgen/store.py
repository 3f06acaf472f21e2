"""Deterministic on-disk containers.

Everything an experiment writes (datasets, checkpoints, reports, manifests)
must be byte-identical across reruns, so containers are canonical JSON: keys
sorted, no whitespace variance, floats via repr (shortest exact roundtrip),
NaN/inf rejected, trailing newline.  Arrays are stored as flat row-major
lists with an explicit shape.

Datasets, generator checkpoints and hedger checkpoints share one container
codepath: `write_container` tags the payload with a format name and version,
and `read_container` checks both and decodes the body, so a truncated file, a
wrong tag or a missing key surfaces as one DataError naming the file.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

CHECKPOINT_FORMAT = "commodgen-checkpoint"
CHECKPOINT_VERSION = 1


class DataError(ValueError):
    """Malformed or inconsistent input data."""


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
    return np.asarray(block["data"], dtype=np.float64).reshape(block["shape"])


def write_json(path, obj) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        fh.write(canonical_json(obj))
    os.replace(tmp, path)


def read_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def write_container(path, fmt: str, version: int, body: dict) -> None:
    """Write `body` tagged with its container format and version."""
    write_json(path, {"format": fmt, "version": version, **body})


def read_container(path, fmt: str, version: int, what: str, decode):
    """Read a container written by `write_container` and return `decode(payload)`.

    `what` names the container in messages.  Unreadable JSON, a wrong format
    tag or version, and any missing key or ill-typed value met while
    decoding all raise DataError.
    """
    try:
        raw = read_json(path)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"{path}: {what} is not valid JSON ({exc})") from None
    if not isinstance(raw, dict) or raw.get("format") != fmt:
        raise DataError(f"{path}: not a {what}")
    if raw.get("version") != version:
        raise DataError(f"{path}: unsupported {what} version {raw.get('version')}, "
                        f"expected {version}")
    try:
        return decode(raw)
    except DataError:
        raise
    except KeyError as exc:
        raise DataError(f"{path}: {what} lacks key {exc}") from None
    except (TypeError, ValueError, IndexError, AttributeError) as exc:
        raise DataError(f"{path}: malformed {what} ({exc})") from None
