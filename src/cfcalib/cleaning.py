"""Pairing, outlier removal, and calibration/validation splitting.

A paired series holds the leader's state at the follower's times,
interpolated between leader fixes. `ingest` pairs the two trajectories
once and writes the paired series as the pair JSON; `clean` reads it
back and keeps only car-following samples (moving follower, leader in
front and inside sensor range, plausible accelerations), grouping the
survivors into contiguous segments; outliers split runs rather than
being interpolated over. One gap rule, a time step above 1.5x the
series' own (lower) median step, drops a follower time inside a leader
gap when pairing and splits a run when cleaning. A paired series and a
segment share one column layout, written and read by one pair of
functions for both the pair and the segments JSON.

write_segments_json is the one writer of a segments file. After the JSON
it writes a binary sidecar, `<segments>.columns`, of the same columns as
raw little-endian doubles, with the sha256 of the JSON's bytes.
read_segments_json takes the columns from the sidecar when that digest
and the sidecar's own match, and so parses no JSON number; on any fault
of the sidecar it parses the JSON, which stays the one interchange
format. Readers never write a sidecar, and the pair JSON, read once by
`clean`, has none."""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import CfCalibError, DomainError, NoCarFollowingError, PairingError, SplitError
from .ingest import (GpsLog, MAX_MAGNITUDE, Trajectory, geodesic_distance, require_in_range,
                     require_increasing)
from .jsonio import (_replacing, file_sha256, is_seed, read_json_object, require_keys,
                     write_json)

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
class CleaningRules:
    """Outlier thresholds; defaults follow the shuttle deployment setup."""

    max_accel: float = 18.0             # ft/s^2, either vehicle
    max_follower_speed: float = 22.0    # ft/s (15 mi/h cap)
    max_spacing: float = 656.0          # ft, sensor range
    min_segment_len: int = MIN_SEGMENT_SAMPLES

    def __post_init__(self):
        for name in ("max_accel", "max_follower_speed", "max_spacing"):
            value = getattr(self, name)
            # written so that a NaN fails too
            if not 0.0 < value < math.inf:
                raise DomainError(f"cleaning threshold {name} must be finite and positive, "
                                  f"got {value}")
        if self.min_segment_len < MIN_SEGMENT_SAMPLES:
            raise DomainError(f"min_segment_len must be at least {MIN_SEGMENT_SAMPLES} samples, "
                              f"got {self.min_segment_len}")

    def conditions(self, leader_accel, follower_speed, follower_accel, spacing) -> dict:
        """Each condition a car-following observation meets, by name, elementwise.

        A sample is kept where it meets them all.
        """
        return {
            "follower_moving": follower_speed > 0.0,  # a stopped follower follows no one
            "follower_speed_in_cap": follower_speed <= self.max_follower_speed,
            "leader_ahead": spacing > 0.0,
            "leader_in_sensor_range": spacing <= self.max_spacing,
            "leader_accel_plausible": np.abs(leader_accel) <= self.max_accel,
            "follower_accel_plausible": np.abs(follower_accel) <= self.max_accel,
        }


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


def _cadence(t: np.ndarray) -> float:
    """The median step of `t`, the lower one of an even count; 0 for fewer than two times.

    A duplicate fix a moment after another, or dropouts in up to half the
    steps, leave it unchanged. np.median would import numpy.ma (about 10
    ms per process), so the median comes from np.partition.
    """
    steps = np.diff(t)
    k = (steps.size - 1) // 2
    return float(np.partition(steps, k)[k]) if steps.size else 0.0


def _gaps(t: np.ndarray, cadence: float) -> np.ndarray:
    """True for each step of `t` above 1.5x its cadence (`_cadence`)."""
    return np.diff(t) > 1.5 * cadence


def _paired(leader_t: np.ndarray, follower_t: np.ndarray) -> np.ndarray:
    """True at each follower time equal to a leader fix or inside a leader step that is no gap.

    Raises PairingError when no follower time is.
    """
    j = np.searchsorted(leader_t, follower_t)  # leader_t[j - 1] < t <= leader_t[j]
    hit = leader_t[np.minimum(j, len(leader_t) - 1)] == follower_t
    # step j runs from leader fix j - 1 to fix j; steps 0 and n lie outside the span
    unbroken = np.concatenate(([False], ~_gaps(leader_t, _cadence(leader_t)), [False]))
    paired = hit | unbroken[j]
    if not paired.any():
        raise PairingError("no follower time lies in the leader log's span and outside its gaps")
    return paired


def pair_trajectories(
    leader: Trajectory,
    follower: Trajectory,
    leader_offset: float = 0.0,
) -> PairedSeries:
    """The leader's state at the follower's times, interpolated linearly between leader fixes.

    A follower time equal to a leader fix takes its values; any other is
    dropped outside the leader's span or inside a gap of the leader's, the
    steps at which `clean_segments` breaks runs. Each trajectory's positions
    start at its own first fix, so `leader_offset` (ft) places the leader's
    origin ahead of the follower's; `leader_start_offset` derives it from
    the two GPS logs. Raises PairingError when no follower time pairs.
    """
    keep = _paired(leader.t, follower.t)
    t = follower.t[keep]
    return PairedSeries(
        t=t,
        leader_pos=np.interp(t, leader.t, leader.pos) + leader_offset,
        leader_speed=np.interp(t, leader.t, leader.speed),
        leader_accel=np.interp(t, leader.t, leader.accel),
        follower_pos=follower.pos[keep],
        follower_speed=follower.speed[keep],
        follower_accel=follower.accel[keep],
    )


def leader_start_offset(
    leader: Trajectory,
    follower: Trajectory,
    leader_log: GpsLog,
    follower_log: GpsLog,
) -> float:
    """`leader_offset` for `pair_trajectories`, from the two logs at the first paired time.

    There the leader's lat/lon and arc-length position are interpolated as
    in pairing. The spacing is the distance from the follower's fix to the
    leader, negative when the leader lies behind the follower along the
    follower's direction of travel, taken from its first nonzero
    displacement from that fix (positive if it never moves again). The
    offset is that spacing less the difference of the two arc-length
    positions then. Each trajectory holds one sample per fix. Raises
    PairingError when no follower time pairs.
    """
    fi = int(np.argmax(_paired(leader.t, follower.t)))
    at = follower.t[fi]
    lat, lon = follower_log.lat, follower_log.lon
    here_lat, here_lon = float(lat[fi]), float(lon[fi])
    ahead_lat = float(np.interp(at, leader.t, leader_log.lat))
    # unwrapped, so that a step across the antimeridian is interpolated the short way
    ahead_lon = float(np.interp(at, leader.t, np.unwrap(leader_log.lon, period=360.0)))
    spacing = float(geodesic_distance(here_lat, here_lon, ahead_lat, ahead_lon))
    # local east/north components; their scale does not matter for a sign
    cos_lat = math.cos(math.radians(here_lat))

    def toward(to_lat: float, to_lon: float) -> tuple[float, float]:
        return ((to_lon - here_lon + 180.0) % 360.0 - 180.0) * cos_lat, to_lat - here_lat

    moved = np.flatnonzero((lat[fi + 1:] != here_lat) | (lon[fi + 1:] != here_lon))
    if moved.size:
        j = fi + 1 + int(moved[0])
        moved_east, moved_north = toward(float(lat[j]), float(lon[j]))
        east, north = toward(ahead_lat, ahead_lon)
        if moved_east * east + moved_north * north < 0.0:
            spacing = -spacing
    return spacing - float(np.interp(at, leader.t, leader.pos) - follower.pos[fi])


def clean_segments(paired: PairedSeries, rules: CleaningRules | None = None,
                   counts: dict | None = None) -> list[FollowingSegment]:
    """Filter outliers and return maximal contiguous car-following segments.

    A run breaks where a sample was dropped or at a gap of the paired
    times (`_gaps`, the rule pairing drops a follower time by); runs
    shorter than rules.min_segment_len are discarded. Raises
    NoCarFollowingError when nothing survives. A `counts` dict receives
    what cleaning did: the samples that fail each of the rules'
    conditions (a sample may fail several), the runs broken at a gap, the
    cadence, the runs dropped as short and the segments kept.
    """
    if rules is None:
        rules = CleaningRules()
    n = len(paired)
    if n == 0:
        raise DomainError("paired series is empty")
    conditions = rules.conditions(paired.leader_accel, paired.follower_speed,
                                  paired.follower_accel, paired.spacing)
    keep = np.logical_and.reduce(list(conditions.values()))
    cadence = _cadence(paired.t)
    gap = _gaps(paired.t, cadence)
    # a sample joins the previous one when both are kept and no gap lies between
    both_kept = keep[1:] & keep[:-1]
    joined = np.zeros(n, dtype=bool)
    joined[1:] = both_kept & ~gap
    starts = np.flatnonzero(keep & ~joined)
    ends = np.flatnonzero(keep & ~np.append(joined[1:], False)) + 1

    segments: list[FollowingSegment] = []
    for lo, hi in zip(starts, ends):
        if hi - lo < rules.min_segment_len:
            continue
        segments.append(FollowingSegment(
            f"seg-{len(segments):04d}", *(getattr(paired, name)[lo:hi].copy() for name in COLUMNS)))
    if counts is not None:
        counts.update({f"failed_{name}": int(n - met.sum()) for name, met in conditions.items()})
        counts.update(runs_broken_at_gap=int((both_kept & gap).sum()), cadence_s=cadence,
                      runs_dropped_short=len(starts) - len(segments), segments=len(segments))
    if not segments:
        raise NoCarFollowingError("no car-following interval survived cleaning")
    return segments


def retained_samples(segments: list[FollowingSegment]) -> int:
    return sum(len(s) for s in segments)


def split_segments(
    segments: list[FollowingSegment], fraction: float, seed: int
) -> tuple[list[FollowingSegment], list[FollowingSegment]]:
    """Deterministic segment-level split targeting `fraction` of total samples.

    Never splits inside a segment; both sides are guaranteed nonempty.
    The seed must be a non-negative integer, as each GA seed must.
    """
    if len(segments) < 2:
        raise SplitError(f"need at least 2 segments to split, got {len(segments)}")
    if not 0.0 < fraction < 1.0:
        raise SplitError(f"split fraction must be in (0, 1), got {fraction}")
    if not is_seed(seed):
        raise SplitError(f"split seed must be a non-negative integer, got {seed!r}")
    total = retained_samples(segments)
    target = fraction * total
    order = np.random.default_rng(seed).permutation(len(segments))
    in_calib = np.zeros(len(segments), dtype=bool)
    acc = 0
    for idx in order:
        if acc < target:
            in_calib[idx] = True
            acc += len(segments[idx])
    if in_calib.all():
        in_calib[order[-1]] = False
    if not in_calib.any():
        in_calib[order[0]] = True
    calibration = [s for i, s in enumerate(segments) if in_calib[i]]
    validation = [s for i, s in enumerate(segments) if not in_calib[i]]
    return calibration, validation


# ---------------------------------------------------------------------------
# segments and pair JSON: one column layout, `t` plus `pos`, `speed` and
# `accel` under `leader` and `follower`

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
    """The segments of a segments file, and `read_from`: "columns" or "json", the path taken."""

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


def read_segments_json(path: str | Path) -> SegmentList:
    """The segments of a segments file: from its sidecar if that matches, else from the JSON.

    Every fault of the sidecar (missing, unreadable, stale, cut short,
    altered, or holding a segment FollowingSegment rejects) falls back to
    the JSON, silently; either path gives the same segments. `read_from`
    on the list names the path taken.
    """
    try:
        segments = _read_columns(path)
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


def _read_columns(path: str | Path) -> list[FollowingSegment] | None:
    """The segments in the sidecar of `path`, or None unless it matches the file and itself.

    The payload's size is checked against the file's before it is read
    into one array, of which each column is a view.
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
                and header.get("json_sha256") == file_sha256(path)):
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
