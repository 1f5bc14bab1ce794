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
"""

from __future__ import annotations

import json
import math
import numbers
import os
import tempfile
from pathlib import Path

from .errors import DomainError


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write `text` to `path` through a temporary file in the same directory.

    Readers see the old file or the new one, never a partial write; on
    any failure the temporary file is removed and the target is untouched.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str | Path, payload) -> None:
    """Write `payload` to `path` as one line of sorted-key JSON, atomically."""
    atomic_write_text(path, json.dumps(payload, sort_keys=True) + "\n")


def _reject_constant(token: str):
    raise ValueError(f"non-finite number {token}")


def read_json_object(path: str | Path, what: str) -> dict:
    """Parse `path`, which must hold one JSON object describing `what`."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(), parse_constant=_reject_constant)
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
