"""Pairing, outlier removal, and calibration/validation splitting.

A paired series holds the leader's state at the follower's times,
interpolated between leader fixes. `ingest` pairs the two trajectories
once and writes the paired series as the pair JSON; `clean` reads it
back and keeps only car-following samples (moving follower, leader in
front and inside sensor range, plausible accelerations), grouping the
survivors into contiguous segments; outliers split runs rather than
being interpolated over. One gap rule, a time step above 1.5x the
series' own (lower) median step, drops a follower time inside a leader
gap when pairing and splits a run when cleaning. The records and their
files (the pair and the segments JSON, and a segments file's sidecar)
live in `series`; this module reads and writes no file."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NoCarFollowingError, PairingError, SplitError
from .ingest import GpsLog, Trajectory, geodesic_distance
from .jsonio import is_seed
from .series import COLUMNS, MIN_SEGMENT_SAMPLES, FollowingSegment, PairedSeries
# the same objects as series.read_segments_json and series.write_segments_json: the
# benchmark harness calls them, and traces the CLI's reads, through this module
from .series import read_segments_json, write_segments_json  # noqa: F401


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
