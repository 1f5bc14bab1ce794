"""GPS log ingestion: geodesic distances and derived kinematics.

Raw logs are 1 Hz latitude/longitude fixes. Positions become cumulative
arc length in feet; speed, acceleration, and jerk follow by successive
backward differences. Everything downstream works in feet and seconds.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .errors import DomainError, InsufficientDataError, OrderingError
from .jsonio import (
    is_finite_number, read_json_object, require_keys, require_numbers, write_json)

# Mean Earth radius (m); spherical error is far below GPS noise at
# per-second step lengths.
EARTH_RADIUS_M = 6_371_008.8
FT_PER_M = 1.0 / 0.3048


@dataclass(frozen=True)
class GpsFix:
    """A single GPS fix: time (s), WGS-84 latitude/longitude (degrees)."""

    t: float
    lat: float
    lon: float

    def __post_init__(self):
        if not (-90.0 <= self.lat <= 90.0):
            raise DomainError(f"latitude {self.lat} outside [-90, 90]")
        if not (-180.0 <= self.lon <= 180.0):
            raise DomainError(f"longitude {self.lon} outside [-180, 180]")


TRAJECTORY_COLUMNS = ("t", "pos", "speed", "accel", "jerk")


@dataclass
class Trajectory:
    """Kinematic samples for one vehicle at a nominal cadence, one float array per column.

    Columns: time (s), position (ft), speed (ft/s), accel (ft/s^2), jerk (ft/s^3).
    """

    vehicle_id: str
    t: np.ndarray
    pos: np.ndarray
    speed: np.ndarray
    accel: np.ndarray
    jerk: np.ndarray
    dt: float = 1.0

    def __post_init__(self):
        try:
            for name in TRAJECTORY_COLUMNS:
                setattr(self, name, np.asarray(getattr(self, name), dtype=float))
        except (TypeError, ValueError, OverflowError) as exc:
            raise DomainError(
                f"trajectory {self.vehicle_id!r}: non-numeric column ({exc})") from exc
        shape = self.t.shape
        if len(shape) != 1 or any(getattr(self, n).shape != shape for n in TRAJECTORY_COLUMNS):
            raise DomainError(
                f"trajectory {self.vehicle_id!r}: columns must be 1-d and of equal length")
        if not (is_finite_number(self.dt) and self.dt > 0):
            raise DomainError(
                f"trajectory {self.vehicle_id!r}: dt must be a finite number > 0, got {self.dt!r}")

    def __len__(self) -> int:
        return len(self.t)

    def time_gaps(self, rel_tol: float = 0.1) -> list[int]:
        """Indices i where t[i] - t[i-1] deviates from dt by more than rel_tol."""
        off = np.abs(np.diff(self.t) - self.dt) > rel_tol * self.dt
        return (np.flatnonzero(off) + 1).tolist()


def _haversine_ft(lat1, lon1, lat2, lon2):
    """Great-circle distance in feet, elementwise over scalars or arrays."""
    dlat = np.radians(lat2 - lat1)
    dlon = np.radians(lon2 - lon1)
    h = (np.sin(dlat / 2.0) ** 2
         + np.cos(np.radians(lat1)) * np.cos(np.radians(lat2)) * np.sin(dlon / 2.0) ** 2)
    c = 2.0 * np.arcsin(np.minimum(1.0, np.sqrt(h)))
    return EARTH_RADIUS_M * c * FT_PER_M


def geodesic_distance(a: GpsFix, b: GpsFix) -> float:
    """Great-circle distance between two fixes, in feet (haversine)."""
    return float(_haversine_ft(a.lat, a.lon, b.lat, b.lon))


def kinematics_from_positions(
    t: np.ndarray, pos: np.ndarray, vehicle_id: str = "", dt: float = 1.0
) -> Trajectory:
    """Derive speed/accel/jerk from a position series by backward differences.

    Each derivative level k is valid from index k onward; the leading
    entries are filled by replicating the first valid value, so constant
    acceleration reproduces its ground truth at every index. The
    trajectory holds copies of `t` and `pos`.
    """
    t = np.array(t, dtype=float)
    pos = np.array(pos, dtype=float)
    n = len(t)
    if n < 4:
        raise InsufficientDataError(f"need at least 4 samples for jerk, got {n}")
    steps = np.diff(t)
    if not np.all(steps > 0):
        raise OrderingError("timestamps must be strictly increasing")

    speed = np.empty(n)
    speed[1:] = np.diff(pos) / steps
    speed[0] = speed[1]

    accel = np.empty(n)
    accel[2:] = np.diff(speed[1:]) / steps[1:]
    accel[:2] = accel[2]

    jerk = np.empty(n)
    jerk[3:] = np.diff(accel[2:]) / steps[2:]
    jerk[:3] = jerk[3]

    return Trajectory(vehicle_id, t, pos, speed, accel, jerk, dt=dt)


def derive_kinematics(fixes: list[GpsFix], vehicle_id: str = "", dt: float = 1.0) -> Trajectory:
    """Convert a GPS log into a trajectory: cumulative arc length plus derivatives."""
    if len(fixes) < 4:
        raise InsufficientDataError(f"need at least 4 fixes for jerk, got {len(fixes)}")
    t, lat, lon = np.array([(f.t, f.lat, f.lon) for f in fixes], dtype=float).T
    pos = np.zeros(len(fixes))
    pos[1:] = np.cumsum(_haversine_ft(lat[:-1], lon[:-1], lat[1:], lon[1:]))
    return kinematics_from_positions(t, pos, vehicle_id=vehicle_id, dt=dt)


# ---------------------------------------------------------------------------
# unit conversion

# unit -> (dimension, numerator, denominator); value * num / den gives the
# canonical unit (ft, ft/s, ft/s^2). Rational factors keep mi/h -> ft/s exact.
_UNIT_TABLE = {
    "ft": ("length", 1.0, 1.0),
    "m": ("length", 1.0, 0.3048),
    "ft/s": ("speed", 1.0, 1.0),
    "mi/h": ("speed", 5280.0, 3600.0),
    "m/s": ("speed", 1.0, 0.3048),
    "ft/s^2": ("accel", 1.0, 1.0),
    "m/s^2": ("accel", 1.0, 0.3048),
}

_UNIT_ALIASES = {
    "ft/s2": "ft/s^2",
    "m/s2": "m/s^2",
    "mph": "mi/h",
    "fps": "ft/s",
}


def _lookup_unit(unit: str):
    key = _UNIT_ALIASES.get(unit, unit)
    if key not in _UNIT_TABLE:
        raise DomainError(f"unknown unit {unit!r}")
    return _UNIT_TABLE[key]


def convert_units(value: float, from_unit: str, to_unit: str) -> float:
    """Convert between ft/m length, ft/s / mi/h / m/s speed, and ft/m accel units."""
    dim_a, num_a, den_a = _lookup_unit(from_unit)
    dim_b, num_b, den_b = _lookup_unit(to_unit)
    if dim_a != dim_b:
        raise DomainError(f"cannot convert {from_unit!r} to {to_unit!r}")
    return value * num_a / den_a * den_b / num_b


# ---------------------------------------------------------------------------
# file I/O

def _parse_time(text: str) -> float:
    """Accept epoch seconds or ISO-8601; return finite seconds as float.

    An ISO-8601 time without a zone is read as UTC, never in the host's
    time zone, so naive and zone-aware logs share one clock.
    """
    try:
        value = float(text)
    except ValueError:
        try:
            moment = datetime.fromisoformat(text)
        except ValueError:
            raise ValueError(f"unparseable timestamp {text!r}") from None
        if moment.tzinfo is None:
            moment = moment.replace(tzinfo=timezone.utc)
        return moment.timestamp()
    if not math.isfinite(value):
        raise ValueError(f"non-finite timestamp {text!r}")
    return value


def _read_gps_rows(path: str | Path) -> list[tuple[float, float, float]]:
    path = Path(path)
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise InsufficientDataError(f"{path}: empty file") from None
        if [h.strip().lower() for h in header] != ["t", "lat", "lon"]:
            raise DomainError(f"{path}: header must be exactly 't,lat,lon', got {header}")
        raw = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) == 3:
                try:
                    raw.append((_parse_time(row[0]), float(row[1]), float(row[2])))
                    continue
                except ValueError as exc:
                    problem = str(exc)
            else:
                problem = f"expected 3 columns, got {len(row)}"
            # only a row that did not parse can be blank; blank rows are skipped
            if any(cell.strip() for cell in row):
                raise DomainError(f"{path}:{lineno}: {problem}")
    if not raw:
        raise InsufficientDataError(f"{path}: no data rows")
    return raw


def read_gps_csv(path: str | Path, t0: float | None = None) -> list[GpsFix]:
    """Read a `t,lat,lon` CSV (header required) into GPS fixes.

    Timestamps may be epoch seconds or ISO-8601; they are normalized to
    elapsed seconds from the first fix (or from an explicit t0 so two
    logs can share a clock).
    """
    raw = _read_gps_rows(path)
    base = raw[0][0] if t0 is None else t0
    return [GpsFix(t - base, lat, lon) for t, lat, lon in raw]


def read_gps_pair(
    leader_path: str | Path, follower_path: str | Path
) -> tuple[list[GpsFix], list[GpsFix]]:
    """Read two logs on a shared clock: both normalized to the earlier first fix."""
    leader_raw = _read_gps_rows(leader_path)
    follower_raw = _read_gps_rows(follower_path)
    t0 = min(leader_raw[0][0], follower_raw[0][0])
    leader = [GpsFix(t - t0, lat, lon) for t, lat, lon in leader_raw]
    follower = [GpsFix(t - t0, lat, lon) for t, lat, lon in follower_raw]
    return leader, follower


def trajectory_to_dict(traj: Trajectory) -> dict:
    data = {name: getattr(traj, name).tolist() for name in TRAJECTORY_COLUMNS}
    data.update(vehicle_id=traj.vehicle_id, dt=traj.dt)
    return data


def trajectory_from_dict(data: dict) -> Trajectory:
    require_keys(data, ("vehicle_id",) + TRAJECTORY_COLUMNS, "trajectory JSON")
    require_numbers(data, [key for key in ("dt",) if key in data], "trajectory JSON")
    traj = Trajectory(data["vehicle_id"], *(data[name] for name in TRAJECTORY_COLUMNS),
                      dt=data.get("dt", 1.0))
    if not all(np.isfinite(getattr(traj, name)).all() for name in TRAJECTORY_COLUMNS):
        raise DomainError(f"trajectory {traj.vehicle_id!r}: values must be finite")
    return traj


def write_trajectory_json(traj: Trajectory, path: str | Path) -> None:
    write_json(path, trajectory_to_dict(traj))


def read_trajectory_json(path: str | Path) -> Trajectory:
    return trajectory_from_dict(read_json_object(path, "trajectory JSON"))
