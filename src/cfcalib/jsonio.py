"""JSON files in and out under the toolkit's error contract.

Every JSON input (pair, trajectory, segments, model parameters, limits,
GA config, result files) is read through read_json_object, so text that
is not JSON, or JSON that is not an object, raises DomainError naming
the file instead of escaping as a decoder or type error. The NaN,
Infinity and -Infinity tokens that json.loads accepts by default are
not JSON and are rejected the same way; require_numbers also rejects
number literals beyond the float range, which json.loads reads as an
infinity or as an int no double can hold.

Every JSON output is written through write_json: one line of sorted-key
JSON, replaced atomically. Without an indent, json.dumps runs on its C
encoder; with any indent it falls back to the pure-Python one, about
twice as slow on the toolkit's float columns. Both format floats with
float.__repr__, so values read back bit for bit either way.

write_json takes numpy arrays as well as lists. A long log's output is
its float columns, and one json.dumps call over the whole payload would
hold every column as Python floats (32 bytes a value), then as encoder
pieces and one joined string, before a byte reached the file. So a
dict, list or tuple that holds an array, at any depth, is written one
entry at a time, and each array is encoded alone: Python floats exist
for one column at a time, however the columns are split (a few long
segments or many short ones). Any other value takes one encoder call.
The bytes equal json.dumps(payload, sort_keys=True) with each array as
its list.

file_sha256 is the one file digest: the manifests record it for every
input, and the segments reader checks its binary sidecar against it.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import DomainError


@contextmanager
def _replacing(path: str | Path, binary: bool = False):
    """A handle on a temporary file in path's directory that replaces path on success.

    The handle takes UTF-8 text, or bytes if `binary`. Readers see the
    old file or the new one, never a partial write; on any failure the
    temporary file is removed and the target is untouched.
    The path is named in UTF-8 whatever the host's locale, as its text
    is written: a figure's name holds a segment id, which may hold any
    character. surrogateescape gives back the bytes of a path that came
    from the command line.
    """
    path = Path(path)
    directory, name = (str(part).encode("utf-8", "surrogateescape")
                       for part in (path.parent, path.name))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=b"." + name + b".", suffix=b".tmp")
    try:
        with (os.fdopen(fd, "wb") if binary else os.fdopen(fd, "w", encoding="utf-8")) as handle:
            yield handle
        os.replace(tmp, os.path.join(directory, name))
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def file_sha256(path: str | Path) -> str:
    """The hex sha256 of a file's bytes, read in chunks so that no copy of the file is held."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write `text` to `path` through a temporary file in the same directory, atomically."""
    with _replacing(path) as handle:
        handle.write(text)


def write_json(path: str | Path, payload) -> None:
    """Write `payload` to `path` as one line of sorted-key JSON, atomically.

    numpy arrays are written as their lists. A dict, list or tuple that
    holds an array is written one entry at a time, so no more than one
    array is ever held as Python floats and text.
    """
    with _replacing(path) as handle:
        _write_value(handle.write, payload)
        handle.write("\n")


def _as_list(value):
    """json.dumps' hook for a value it cannot encode: an array is its list."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


# json.dumps(value, sort_keys=True, default=_as_list), without building
# an encoder on every call
_ENCODER = json.JSONEncoder(sort_keys=True, default=_as_list)


def _holds_array(value) -> bool:
    """True for a dict, list or tuple that holds a numpy array at any depth."""
    if isinstance(value, dict):
        value = value.values()
    elif not isinstance(value, (list, tuple)):
        return False
    return any(isinstance(entry, np.ndarray) or _holds_array(entry) for entry in value)


def _key(key) -> str:
    """A dict key and the ": " after it, as json.dumps writes them."""
    if isinstance(key, str):
        return _ENCODER.encode(key) + ": "
    # json.dumps writes an int, float, bool or None key as a string
    return _ENCODER.encode({key: None})[1:-5]


def _write_value(write, value) -> None:
    """Write value as json.dumps(value, sort_keys=True) would, a container holding an array by entry."""
    if isinstance(value, dict) and _holds_array(value):
        write("{")
        # json.dumps sorts a dict's items, which compares the keys alone
        for i, (key, entry) in enumerate(sorted(value.items())):
            write((", " if i else "") + _key(key))
            _write_value(write, entry)
        write("}")
    elif isinstance(value, (list, tuple)) and _holds_array(value):
        write("[")
        for i, entry in enumerate(value):
            write(", " if i else "")
            _write_value(write, entry)
        write("]")
    else:
        write(_ENCODER.encode(value))


def _reject_constant(token: str):
    raise ValueError(f"non-finite number {token}")


def read_json_object(path: str | Path, what: str) -> dict:
    """Parse `path`, which must hold one JSON object describing `what`."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"), parse_constant=_reject_constant)
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise DomainError(f"{path}: {what} is not valid JSON ({exc})") from None
    if not isinstance(data, dict):
        raise DomainError(f"{path}: {what} must be a JSON object, got {type(data).__name__}")
    return data


def require_keys(data, keys, what: str) -> None:
    """Raise DomainError unless `data` is an object holding every key."""
    if not isinstance(data, dict):
        raise DomainError(f"{what} must be a JSON object, got {type(data).__name__}")
    missing = [key for key in keys if key not in data]
    if missing:
        raise DomainError(f"{what} lacks {', '.join(missing)}")


def is_number(value) -> bool:
    """True for a real number that is not a bool (JSON: an int or a float)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def is_seed(value) -> bool:
    """True for an integer >= 0 that is not a bool: a seed np.random.default_rng takes."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= 0


def is_finite_number(value) -> bool:
    """True for a JSON number that is a finite double.

    json.loads reads a literal beyond the float range, such as 1e400, as
    infinity, and keeps an integer literal of any size as an int.
    """
    if not is_number(value):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a double
        return False


def require_numbers(data, keys, what: str) -> None:
    """Like require_keys, and every one of those values must be a finite number."""
    require_keys(data, keys, what)
    bad = [key for key in keys if not is_number(data[key])]
    if bad:
        raise DomainError(f"{what}: {', '.join(bad)} must be numbers")
    bad = [key for key in keys if not is_finite_number(data[key])]
    if bad:
        raise DomainError(f"{what}: {', '.join(bad)} must be finite (within the float range)")
