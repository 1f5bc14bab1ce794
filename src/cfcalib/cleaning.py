"""Pairing, outlier removal, and calibration/validation splitting.

A paired series aligns leader and follower samples on a common clock.
Cleaning keeps only car-following samples (moving follower, leader in
front and inside sensor range, plausible accelerations) and groups the
survivors into contiguous segments; outliers split runs rather than
being interpolated over.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import DomainError, NoCarFollowingError, PairingError, SplitError
from .ingest import GpsLog, Trajectory, geodesic_distance
from .jsonio import read_json_object, require_keys, write_json

PAIR_TOLERANCE_S = 0.1


@dataclass
class PairedSeries:
    """Leader/follower samples matched on a shared time grid."""

    t: np.ndarray
    leader_pos: np.ndarray
    leader_speed: np.ndarray
    leader_accel: np.ndarray
    follower_pos: np.ndarray
    follower_speed: np.ndarray
    follower_accel: np.ndarray
    dt: float = 1.0

    def __post_init__(self):
        arrays = [
            self.t, self.leader_pos, self.leader_speed, self.leader_accel,
            self.follower_pos, self.follower_speed, self.follower_accel,
        ]
        n = len(self.t)
        if any(len(a) != n for a in arrays):
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
    min_follower_speed_exclusive: float = 0.0   # drop samples at or below
    max_spacing: float = 656.0          # ft, sensor range
    min_segment_len: int = 10           # samples

    def __post_init__(self):
        if self.max_accel <= 0 or self.max_follower_speed <= 0 or self.max_spacing <= 0:
            raise DomainError("cleaning thresholds must be positive")
        if self.min_segment_len <= 0:
            raise DomainError("min_segment_len must be positive")

    def keeps(self, leader_accel, follower_speed, follower_accel, spacing):
        """True where a sample is a valid car-following observation (elementwise)."""
        return (
            (follower_speed > self.min_follower_speed_exclusive)
            & (follower_speed <= self.max_follower_speed)
            & (spacing > 0.0)
            & (spacing <= self.max_spacing)
            & (np.abs(leader_accel) <= self.max_accel)
            & (np.abs(follower_accel) <= self.max_accel)
        )


@dataclass
class FollowingSegment:
    """One contiguous car-following interval; the unit of calibration."""

    id: str
    t: np.ndarray
    leader_pos: np.ndarray
    leader_speed: np.ndarray
    leader_accel: np.ndarray
    follower_pos: np.ndarray
    follower_speed: np.ndarray
    follower_accel: np.ndarray

    def __post_init__(self):
        names = ("t", "leader_pos", "leader_speed", "leader_accel",
                 "follower_pos", "follower_speed", "follower_accel")
        for name in names:
            setattr(self, name, np.asarray(getattr(self, name), dtype=float))
        n = len(self.t)
        if any(len(getattr(self, name)) != n for name in names):
            raise DomainError(f"segment {self.id}: arrays must have equal length")
        if n < 10:
            raise DomainError(f"segment {self.id}: need at least 10 samples, got {n}")
        if np.any(self.leader_pos - self.follower_pos <= 0):
            raise DomainError(f"segment {self.id}: spacing must stay positive")

    def __len__(self) -> int:
        return len(self.t)

    @property
    def spacing(self) -> np.ndarray:
        return self.leader_pos - self.follower_pos


def _matches(lt: list[float], ft: list[float]):
    """(leader index, follower index) of each matched sample pair, in time order.

    A follower sample matches the nearest of the unmatched leader samples
    whose timestamps agree with its own within PAIR_TOLERANCE_S, the last
    one on a tie; each sample joins at most one pair. Along sorted leader
    times the distances fall, then rise, so stepping while the next one
    is no greater finds the nearest even past a run of equal distances.
    """
    li = fi = 0
    while li < len(lt) and fi < len(ft):
        d = lt[li] - ft[fi]
        if d < -PAIR_TOLERANCE_S:
            li += 1
        elif d > PAIR_TOLERANCE_S:
            fi += 1
        elif li + 1 < len(lt) and abs(lt[li + 1] - ft[fi]) <= abs(d):
            li += 1
        else:
            yield li, fi
            li += 1
            fi += 1


def pair_trajectories(
    leader: Trajectory,
    follower: Trajectory,
    leader_offset: float = 0.0,
) -> PairedSeries:
    """Match leader/follower samples whose timestamps agree within PAIR_TOLERANCE_S.

    The paired grid uses the follower's timestamps; unmatched ends are
    dropped. Each trajectory's positions start at its own first fix, so
    `leader_offset` (ft) places the leader's origin ahead of the
    follower's; `leader_start_offset` derives it from the two GPS logs.
    Raises PairingError when the logs never overlap.
    """
    # the merge reads Python floats: indexing numpy arrays per element costs 3x
    flat = np.fromiter(chain.from_iterable(_matches(leader.t.tolist(), follower.t.tolist())),
                       dtype=np.intp)
    if not flat.size:
        raise PairingError("leader and follower logs have no overlapping timestamps")
    l_sel, f_sel = flat[0::2], flat[1::2]
    return PairedSeries(
        t=follower.t[f_sel],
        leader_pos=leader.pos[l_sel] + leader_offset,
        leader_speed=leader.speed[l_sel],
        leader_accel=leader.accel[l_sel],
        follower_pos=follower.pos[f_sel],
        follower_speed=follower.speed[f_sel],
        follower_accel=follower.accel[f_sel],
        dt=follower.dt,
    )


def leader_start_offset(
    leader: Trajectory,
    follower: Trajectory,
    leader_log: GpsLog,
    follower_log: GpsLog,
) -> float:
    """`leader_offset` for `pair_trajectories`, from the fixes at the first common time.

    The first pair `pair_trajectories` matches fixes the spacing: the
    distance between the two fixes, negative when the leader lies behind
    the follower along the follower's direction of travel, taken from its
    first nonzero displacement from that fix (positive if it never moves
    again). The offset is that spacing less the difference of the two
    logs' own arc-length positions then. Each trajectory holds one sample
    per fix. Raises PairingError when the logs never overlap.
    """
    first = next(_matches(leader.t.tolist(), follower.t.tolist()), None)
    if first is None:
        raise PairingError("leader and follower logs have no overlapping timestamps")
    li, fi = first
    lat, lon = follower_log.lat, follower_log.lon
    here_lat, here_lon = float(lat[fi]), float(lon[fi])
    ahead_lat, ahead_lon = float(leader_log.lat[li]), float(leader_log.lon[li])
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
    return spacing - float(leader.pos[li] - follower.pos[fi])


def clean_segments(paired: PairedSeries, rules: CleaningRules | None = None) -> list[FollowingSegment]:
    """Filter outliers and return maximal contiguous car-following segments.

    A run breaks where a sample was dropped or where the time step exceeds
    1.5x the nominal cadence; runs shorter than rules.min_segment_len are
    discarded. Raises NoCarFollowingError when nothing survives.
    """
    if rules is None:
        rules = CleaningRules()
    n = len(paired)
    if n == 0:
        raise DomainError("paired series is empty")
    keep = rules.keeps(paired.leader_accel, paired.follower_speed,
                       paired.follower_accel, paired.spacing)
    # a sample joins the previous one when both are kept and no gap lies between
    joined = np.zeros(n, dtype=bool)
    joined[1:] = keep[1:] & keep[:-1] & ~(np.diff(paired.t) > 1.5 * paired.dt)
    starts = np.flatnonzero(keep & ~joined)
    ends = np.flatnonzero(keep & ~np.append(joined[1:], False)) + 1

    segments: list[FollowingSegment] = []
    for lo, hi in zip(starts, ends):
        if hi - lo < rules.min_segment_len:
            continue
        sel = slice(lo, hi)
        segments.append(FollowingSegment(
            id=f"seg-{len(segments):04d}",
            t=paired.t[sel].copy(),
            leader_pos=paired.leader_pos[sel].copy(),
            leader_speed=paired.leader_speed[sel].copy(),
            leader_accel=paired.leader_accel[sel].copy(),
            follower_pos=paired.follower_pos[sel].copy(),
            follower_speed=paired.follower_speed[sel].copy(),
            follower_accel=paired.follower_accel[sel].copy(),
        ))
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
    """
    if len(segments) < 2:
        raise SplitError(f"need at least 2 segments to split, got {len(segments)}")
    if not 0.0 < fraction < 1.0:
        raise SplitError(f"fraction must be in (0, 1), got {fraction}")
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
# segments JSON

def segments_to_dict(segments: list[FollowingSegment]) -> dict:
    return {
        "segments": [
            {
                "id": s.id,
                "t": s.t.tolist(),
                "leader": {
                    "pos": s.leader_pos.tolist(),
                    "speed": s.leader_speed.tolist(),
                    "accel": s.leader_accel.tolist(),
                },
                "follower": {
                    "pos": s.follower_pos.tolist(),
                    "speed": s.follower_speed.tolist(),
                    "accel": s.follower_accel.tolist(),
                },
                "spacing": s.spacing.tolist(),
            }
            for s in segments
        ]
    }


def segments_from_dict(data: dict) -> list[FollowingSegment]:
    require_keys(data, ("segments",), "segments file")
    if not isinstance(data["segments"], list):
        raise DomainError("segments file: 'segments' must be a list")
    out = []
    for i, entry in enumerate(data["segments"]):
        what = f"segment {i}"
        require_keys(entry, ("id", "t", "leader", "follower"), what)
        for side in ("leader", "follower"):
            require_keys(entry[side], ("pos", "speed", "accel"), f"{what} {side}")
        try:
            # one (7, n) block, which a ragged or scalar column cannot form
            columns = np.array([entry["t"]] + [entry[side][key] for side in ("leader", "follower")
                                               for key in ("pos", "speed", "accel")], dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:  # also ints beyond a double
            raise DomainError(f"{what}: {exc}") from None
        if columns.ndim != 2:
            raise DomainError(f"{what}: columns must be equal-length lists of numbers")
        if not np.isfinite(columns).all():
            raise DomainError(f"{what}: values must be finite")
        out.append(FollowingSegment(entry["id"], *columns))
    return out


def write_segments_json(segments: list[FollowingSegment], path: str | Path) -> None:
    write_json(path, segments_to_dict(segments))


def read_segments_json(path: str | Path) -> list[FollowingSegment]:
    return segments_from_dict(read_json_object(path, "segments file"))
