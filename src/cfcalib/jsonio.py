"""Reading JSON input files under the toolkit's error contract.

Every JSON input (pair, trajectory, segments, model parameters, limits,
GA config, result files) is read through read_json_object, so text that
is not JSON, or JSON that is not an object, raises DomainError naming
the file instead of escaping as a decoder or type error.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import DomainError


def read_json_object(path: str | Path, what: str) -> dict:
    """Parse `path`, which must hold one JSON object describing `what`."""
    path = Path(path)
    try:
        data = json.loads(path.read_text())
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


def require_numbers(data, keys, what: str) -> None:
    """Like require_keys, and every one of those values must be a number."""
    require_keys(data, keys, what)
    bad = [key for key in keys
           if isinstance(data[key], bool) or not isinstance(data[key], (int, float))]
    if bad:
        raise DomainError(f"{what}: {', '.join(bad)} must be numbers")
