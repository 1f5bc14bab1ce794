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
functions for both the pair and the segments JSON."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import DomainError, NoCarFollowingError, PairingError, SplitError
from .ingest import (GpsLog, MAX_MAGNITUDE, Trajectory, geodesic_distance, require_in_range,
                     require_increasing)
from .jsonio import is_seed, read_json_object, require_keys, write_json

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

    def keeps(self, leader_accel, follower_speed, follower_accel, spacing):
        """True where a sample is a valid car-following observation (elementwise)."""
        return (
            (follower_speed > 0.0)  # a stopped follower follows no one
            & (follower_speed <= self.max_follower_speed)
            & (spacing > 0.0)
            & (spacing <= self.max_spacing)
            & (np.abs(leader_accel) <= self.max_accel)
            & (np.abs(follower_accel) <= self.max_accel)
        )


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


def _gaps(t: np.ndarray) -> np.ndarray:
    """True for each step of `t` above 1.5x its median step, the lower one of an even count.

    A duplicate fix a moment after another, or dropouts in up to half the
    steps, leave that median unchanged. np.median would import numpy.ma
    (about 10 ms per process), so the median comes from np.partition.
    """
    steps = np.diff(t)
    k = (steps.size - 1) // 2
    return steps > 1.5 * (np.partition(steps, k)[k] if steps.size else 0.0)


def _paired(leader_t: np.ndarray, follower_t: np.ndarray) -> np.ndarray:
    """True at each follower time equal to a leader fix or inside a leader step that is no gap.

    Raises PairingError when no follower time is.
    """
    j = np.searchsorted(leader_t, follower_t)  # leader_t[j - 1] < t <= leader_t[j]
    hit = leader_t[np.minimum(j, len(leader_t) - 1)] == follower_t
    # step j runs from leader fix j - 1 to fix j; steps 0 and n lie outside the span
    unbroken = np.concatenate(([False], ~_gaps(leader_t), [False]))
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


def clean_segments(paired: PairedSeries, rules: CleaningRules | None = None) -> list[FollowingSegment]:
    """Filter outliers and return maximal contiguous car-following segments.

    A run breaks where a sample was dropped or at a gap of the paired
    times (`_gaps`, the rule pairing drops a follower time by); runs
    shorter than rules.min_segment_len are discarded. Raises
    NoCarFollowingError when nothing survives.
    """
    if rules is None:
        rules = CleaningRules()
    n = len(paired)
    if n == 0:
        raise DomainError("paired series is empty")
    keep = rules.keeps(paired.leader_accel, paired.follower_speed,
                       paired.follower_accel, paired.spacing)
    gap = _gaps(paired.t)
    # a sample joins the previous one when both are kept and no gap lies between
    joined = np.zeros(n, dtype=bool)
    joined[1:] = keep[1:] & keep[:-1] & ~gap
    starts = np.flatnonzero(keep & ~joined)
    ends = np.flatnonzero(keep & ~np.append(joined[1:], False)) + 1

    segments: list[FollowingSegment] = []
    for lo, hi in zip(starts, ends):
        if hi - lo < rules.min_segment_len:
            continue
        segments.append(FollowingSegment(
            f"seg-{len(segments):04d}", *(getattr(paired, name)[lo:hi].copy() for name in COLUMNS)))
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


def write_segments_json(segments: list[FollowingSegment], path: str | Path) -> None:
    write_json(path, segments_to_dict(segments))


def read_segments_json(path: str | Path) -> list[FollowingSegment]:
    return segments_from_dict(read_json_object(path, "segments file"))


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
