"""Paired series and car-following segments, and the files that hold them.

A paired series holds the leader's state at the follower's times; a
segment is one contiguous car-following run cut from it. Both share one
column layout, `t` plus `pos`, `speed` and `accel` under `leader` and
`follower`, which series_to_dict writes and series_columns reads for
both the pair JSON and the segments JSON.

write_segments_json is the one writer of a segments file. After the JSON
it writes a binary sidecar, `<segments>.columns`, of the same columns as
raw little-endian doubles, with the sha256 of the JSON's bytes.
read_segments_json takes the columns from the sidecar when the JSON's
digest, handed to it by the caller that hashed the file or taken by the
reader itself, matches the sidecar's, and so parses no JSON number; on
any fault of the sidecar it parses the JSON, which stays the one
interchange format. Readers never write a sidecar, and the pair JSON,
read once by `clean`, has none."""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import CfCalibError, DomainError
from .ingest import MAX_MAGNITUDE, require_in_range, require_increasing
from .jsonio import _replacing, file_sha256, read_json_object, require_keys, write_json

# the fewest samples a FollowingSegment holds, and so the floor of min_segment_len
MIN_SEGMENT_SAMPLES = 10
SIDES = ("leader", "follower")
KINEMATICS = ("pos", "speed", "accel")
# the float columns of a PairedSeries and a FollowingSegment, in field order
COLUMNS = ("t",) + tuple(f"{side}_{key}" for side in SIDES for key in KINEMATICS)
# the types json.loads gives a number; numpy would also read a str or bool as one
_JSON_NUMBERS = frozenset((int, float))


@dataclass
class PairedSeries:
    """Leader/follower samples matched on a shared time grid, whose times carry the cadence."""

    t: np.ndarray
    leader_pos: np.ndarray
    leader_speed: np.ndarray
    leader_accel: np.ndarray
    follower_pos: np.ndarray
    follower_speed: np.ndarray
    follower_accel: np.ndarray

    def __post_init__(self):
        n = len(self.t)
        if any(len(getattr(self, name)) != n for name in COLUMNS):
            raise DomainError("paired series arrays must have equal length")

    def __len__(self) -> int:
        return len(self.t)

    @property
    def spacing(self) -> np.ndarray:
        return self.leader_pos - self.follower_pos


@dataclass
class FollowingSegment:
    """One contiguous car-following interval; the unit of calibration.

    Construction rejects ragged columns, fewer than MIN_SEGMENT_SAMPLES, times
    that do not strictly increase (OrderingError), a value outside ±2^53
    (ingest.MAX_MAGNITUDE) and a spacing that is not positive, in that
    order. Within that range no difference of two times or positions
    overflows, so the spacing and every step are finite.
    """

    id: str
    t: np.ndarray
    leader_pos: np.ndarray
    leader_speed: np.ndarray
    leader_accel: np.ndarray
    follower_pos: np.ndarray
    follower_speed: np.ndarray
    follower_accel: np.ndarray

    def __post_init__(self):
        for name in COLUMNS:
            setattr(self, name, np.asarray(getattr(self, name), dtype=float))
        n = len(self.t)
        if any(len(getattr(self, name)) != n for name in COLUMNS):
            raise DomainError(f"segment {self.id}: arrays must have equal length")
        if n < MIN_SEGMENT_SAMPLES:
            raise DomainError(
                f"segment {self.id}: need at least {MIN_SEGMENT_SAMPLES} samples, got {n}")
        require_increasing(self.t, f"segment {self.id}")
        # one test over every column, NaN failing it too; the loop names the first bad value
        columns = [getattr(self, name) for name in COLUMNS]
        if not np.abs(np.concatenate(columns)).max() <= MAX_MAGNITUDE:
            for name, column in zip(COLUMNS, columns):
                require_in_range(column, f"segment {self.id} {name}")
        if (self.spacing <= 0).any():
            raise DomainError(f"segment {self.id}: spacing must stay positive")

    def __len__(self) -> int:
        return len(self.t)

    @property
    def spacing(self) -> np.ndarray:
        return self.leader_pos - self.follower_pos


def series_to_dict(series: PairedSeries | FollowingSegment) -> dict:
    """The numpy columns of a paired series or a segment, in the layout of the JSON files.

    jsonio.write_json writes the arrays as lists, a long column at a time.
    """
    return {"t": series.t,
            **{side: {key: getattr(series, f"{side}_{key}") for key in KINEMATICS}
               for side in SIDES}}


def series_columns(entry, what: str) -> np.ndarray:
    """The (7, n) float block, rows in COLUMNS order, of a dict in the layout of series_to_dict.

    Raises DomainError naming `what` and the missing keys, or `what` and
    the first column that is not a list of numbers as long as `t`, each
    finite and within ±2^53 (ingest.MAX_MAGNITUDE), naming the index and
    the value out of range; an integer beyond a double is an error, never
    rounded, and so are a string and a bool, which numpy would read as
    numbers. A numpy column, as series_to_dict gives, is read as the list
    write_json writes for it.
    """
    require_keys(entry, ("t",) + SIDES, what)
    for side in SIDES:
        require_keys(entry[side], KINEMATICS, f"{what} {side}")
    values = [entry["t"]] + [entry[side][key] for side in SIDES for key in KINEMATICS]
    values = [v.tolist() if isinstance(v, np.ndarray) else v for v in values]
    try:
        # one block, which a ragged or scalar column cannot form
        columns = np.array(values, dtype=float)
    except (TypeError, ValueError, OverflowError):  # also ints beyond a double
        columns = None
    if (columns is not None and columns.ndim == 2 and (np.abs(columns) <= MAX_MAGNITUDE).all()
            and _JSON_NUMBERS.issuperset(map(type, chain.from_iterable(values)))):
        return columns
    _require_columns(values, what)
    raise DomainError(f"{what}: columns must be equal-length lists of finite numbers")


def _require_columns(values: list, what: str) -> None:
    """Raise the error for the first of series_columns' values that does not make a column."""
    for name, value in zip(COLUMNS, values):
        side, _, key = name.rpartition("_")
        label = f"{what} {side} {key}" if side else f"{what} t"
        try:
            column = np.array(value, dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise DomainError(f"{label}: {exc}") from None
        if column.ndim != 1 or len(column) != len(values[0]):
            raise DomainError(f"{label}: must be a list of numbers, one per time in t")
        odd = set(map(type, value)) - _JSON_NUMBERS
        if odd:
            raise DomainError(f"{label}: values must be numbers, not "
                              f"{' or '.join(sorted(kind.__name__ for kind in odd))}")
        require_in_range(column, label)


def segments_to_dict(segments: list[FollowingSegment]) -> dict:
    return {"segments": [{"id": s.id, **series_to_dict(s)} for s in segments]}


def segments_from_dict(data: dict) -> list[FollowingSegment]:
    require_keys(data, ("segments",), "segments file")
    if not isinstance(data["segments"], list):
        raise DomainError("segments file: 'segments' must be a list")
    out = []
    for i, entry in enumerate(data["segments"]):
        require_keys(entry, ("id",), f"segment {i}")
        if not isinstance(entry["id"], str):
            raise DomainError(f"segment {i}: id must be a string")
        out.append(FollowingSegment(entry["id"], *series_columns(entry, f"segment {i}")))
    return out


class SegmentList(list):
    """The segments of a segments file; `read_from` names the path taken, "columns" or "json"."""

    def __init__(self, segments, read_from: str):
        super().__init__(segments)
        self.read_from = read_from


def columns_path(path: str | Path) -> Path:
    """The binary sidecar of a segments file: `<path>.columns`."""
    return Path(f"{path}.columns")


def write_segments_json(segments: list[FollowingSegment], path: str | Path, **extra) -> None:
    """The segments file, with any `extra` top-level keys, then its binary sidecar.

    The sidecar holds the same columns for read_segments_json to read
    without parsing JSON numbers; see `_write_columns`.
    """
    write_json(path, {**segments_to_dict(segments), **extra})
    _write_columns(segments, path)


def read_segments_json(path: str | Path, sha256: str | None = None) -> SegmentList:
    """The segments of a segments file: from its sidecar if that matches, else from the JSON.

    `sha256` is the hex digest of the file's bytes, which the sidecar must
    record; without it the file is hashed here, before either path reads
    it. Every fault of the sidecar (missing, unreadable, stale, cut short,
    altered, or holding a segment FollowingSegment rejects) falls back to
    the JSON, silently; either path gives the same segments. `read_from`
    on the list names the path taken.
    """
    if sha256 is None:
        sha256 = file_sha256(path)
    try:
        segments = _read_columns(path, sha256)
    except (OSError, ValueError, CfCalibError):
        segments = None
    if segments is not None:
        return SegmentList(segments, "columns")
    return SegmentList(segments_from_dict(read_json_object(path, "segments file")), "json")


# The sidecar: one line of ASCII JSON, then the float64 columns of each
# segment in COLUMNS order, little-endian. The header holds the format,
# the sha256 of the segments file's bytes, the segment ids and lengths, and
# the sha256 of the payload: the JSON text of [ids, lengths] followed by
# the columns' bytes, so that a changed id or length fails it too.
COLUMNS_FORMAT = "cfcalib-segment-columns-1"
_FLOAT64_LE = np.dtype("<f8")


def _table(ids: list, lengths: list) -> bytes:
    """The segment ids and lengths as the payload digest covers them."""
    return json.dumps([ids, lengths]).encode("ascii")


def _little_endian(column: np.ndarray) -> np.ndarray:
    """A column as contiguous little-endian float64, without a copy where it already is one."""
    return np.ascontiguousarray(column, dtype=_FLOAT64_LE)


def _write_columns(segments: list[FollowingSegment], path: str | Path) -> None:
    """Write the sidecar of the segments file at `path`, atomically, a column at a time."""
    ids, lengths = [s.id for s in segments], [len(s) for s in segments]
    payload = hashlib.sha256(_table(ids, lengths))
    for s in segments:
        for name in COLUMNS:
            payload.update(_little_endian(getattr(s, name)))
    header = {"format": COLUMNS_FORMAT, "json_sha256": file_sha256(path), "ids": ids,
              "lengths": lengths, "payload_sha256": payload.hexdigest()}
    with _replacing(columns_path(path), binary=True) as handle:
        handle.write(json.dumps(header, sort_keys=True).encode("ascii") + b"\n")
        for s in segments:
            for name in COLUMNS:
                handle.write(_little_endian(getattr(s, name)))


def _read_columns(path: str | Path, json_sha256: str) -> list[FollowingSegment] | None:
    """The segments in the sidecar of `path`, or None unless it matches the file and itself.

    `json_sha256` is the digest of the file at `path`. The payload's size
    is checked against the file's before it is read into one array, of
    which each column is a view.
    """
    with open(columns_path(path), "rb") as handle:
        header = json.loads(handle.readline())
        size = os.fstat(handle.fileno()).st_size - handle.tell()
        if not (isinstance(header, dict) and header.get("format") == COLUMNS_FORMAT):
            return None
        ids, lengths = header.get("ids"), header.get("lengths")
        if not (isinstance(ids, list) and isinstance(lengths, list) and len(ids) == len(lengths)
                and all(isinstance(i, str) for i in ids)
                and all(type(n) is int and n >= 0 for n in lengths)
                and sum(lengths) * len(COLUMNS) * _FLOAT64_LE.itemsize == size
                and header.get("json_sha256") == json_sha256):
            return None
        columns = np.empty(size // _FLOAT64_LE.itemsize, dtype=_FLOAT64_LE)
        if handle.readinto(columns) != size:
            return None
    payload = hashlib.sha256(_table(ids, lengths))
    payload.update(columns)
    if payload.hexdigest() != header.get("payload_sha256"):
        return None
    segments, start = [], 0
    for segment_id, n in zip(ids, lengths):
        block = columns[start:start + len(COLUMNS) * n].reshape(len(COLUMNS), n)
        segments.append(FollowingSegment(segment_id, *block))
        start += len(COLUMNS) * n
    return segments


def write_pair_json(paired: PairedSeries, leader_offset: float, path: str | Path) -> None:
    """The pair JSON: the paired columns and the `leader_start_offset_ft` applied."""
    write_json(path, {**series_to_dict(paired), "leader_start_offset_ft": leader_offset})


def read_pair_json(path: str | Path) -> PairedSeries:
    """The paired series of a pair JSON; its recorded leader offset is not read.

    Nor is the `dt` of earlier versions. Raises DomainError naming the file
    for a missing key (a file in an older layout lacks `t`) or a bad
    column, and OrderingError unless the times strictly increase.
    """
    what = f"{path}: pair JSON"
    columns = series_columns(read_json_object(path, "pair JSON"), what)
    require_increasing(columns[0], what)
    return PairedSeries(*columns)
