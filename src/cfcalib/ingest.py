"""GPS log ingestion: geodesic distances and derived kinematics.

Raw logs are latitude/longitude fixes, 1 Hz in the field data; the times
give the cadence. A CSV log is UTF-8 text; a leading byte-order mark is
dropped. One that holds only plain numbers is parsed in one np.loadtxt
pass into a GpsLog, one float array per column (t, lat, lon), with no
object per fix. Any other log (ISO-8601 times, quoted cells, rows of
only spaces or commas, a fault) is read again from the top by the
row-wise reader, which gives the same columns or names the first bad
line; a byte that is not UTF-8, or a cell longer than csv's field limit,
is a fault of its line whichever reader meets it. Both logs of a pair
are parsed before either is built, so a parse error is reported before
any out-of-range coordinate and the leader's errors before the
follower's. Positions become cumulative arc length in feet
(geodesic_distance, elementwise); speed and acceleration follow by
backward_rate, the one rate rule. `cleaning.pair_trajectories` pairs the
two trajectories, and the pair JSON holds the paired series, not the
trajectories. Everything downstream works in feet and seconds.

One magnitude rule holds where values enter: a CSV time, every column of
a pair or segments file, every FollowingSegment and every SimLimits
value must be finite and within ±MAX_MAGNITUDE. The data spans of order
1e5 ft and 1e4 s, and no difference, square or product of two such
values overflows, so nothing downstream guards a subtraction.
"""

from __future__ import annotations

import csv
import io
import warnings
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .errors import DomainError, InsufficientDataError, OrderingError

# Mean Earth radius (m); spherical error is far below GPS noise at
# per-second step lengths.
EARTH_RADIUS_M = 6_371_008.8
FT_PER_M = 1.0 / 0.3048


TRAJECTORY_COLUMNS = ("t", "pos", "speed", "accel")
GPS_COLUMNS = ("t", "lat", "lon")

# the largest magnitude an input time, position, speed, acceleration or
# limit may take
MAX_MAGNITUDE = 2.0 ** 53
RANGE_RULE = "must be finite and within [-2^53, 2^53]"


def require_in_range(values: np.ndarray, label: str) -> None:
    """Raise DomainError naming label, the value and the index of the first entry out of range."""
    bad = ~(np.abs(values) <= MAX_MAGNITUDE)  # written so that NaN is out of range
    if bad.any():
        i = int(np.argmax(bad))
        raise DomainError(f"{label}: {float(values[i])!r} at index {i} {RANGE_RULE}")


def require_increasing(t: np.ndarray, label: str) -> None:
    """Raise OrderingError naming label and the first time that does not exceed the one before."""
    bad = ~(t[1:] > t[:-1])  # a comparison, not a difference, cannot overflow
    if bad.any():
        i = int(np.argmax(bad))
        raise OrderingError(f"{label}: times must strictly increase; "
                            f"t[{i + 1}] = {float(t[i + 1])!r} follows t[{i}] = {float(t[i])!r}")


def _float_columns(obj, names: tuple[str, ...], label: str) -> None:
    """Make each named attribute of obj a float array; all must be 1-d and of one length."""
    try:
        for name in names:
            setattr(obj, name, np.asarray(getattr(obj, name), dtype=float))
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"{label}: non-numeric column ({exc})") from exc
    shape = getattr(obj, names[0]).shape
    if len(shape) != 1 or any(getattr(obj, name).shape != shape for name in names):
        raise DomainError(f"{label}: columns must be 1-d and of equal length")


@dataclass
class Trajectory:
    """Kinematic samples for one vehicle, one float array per column; no cadence is stored.

    Columns: time (s), position (ft), speed (ft/s), accel (ft/s^2).
    """

    vehicle_id: str
    t: np.ndarray
    pos: np.ndarray
    speed: np.ndarray
    accel: np.ndarray

    def __post_init__(self):
        _float_columns(self, TRAJECTORY_COLUMNS, f"trajectory {self.vehicle_id!r}")

    def __len__(self) -> int:
        return len(self.t)


@dataclass
class GpsLog:
    """A GPS log, one float array per column: time (s), WGS-84 latitude/longitude (degrees).

    Construction rejects a latitude outside [-90, 90] or a longitude
    outside [-180, 180] (NaN included), naming the first offending fix and
    testing its latitude first.
    """

    t: np.ndarray
    lat: np.ndarray
    lon: np.ndarray

    def __post_init__(self):
        _float_columns(self, GPS_COLUMNS, "GPS log")
        # written so that NaN counts as out of range
        bad_lat = ~((self.lat >= -90.0) & (self.lat <= 90.0))
        bad = bad_lat | ~((self.lon >= -180.0) & (self.lon <= 180.0))
        if bad.any():
            i = int(np.argmax(bad))
            if bad_lat[i]:
                raise DomainError(f"latitude {float(self.lat[i])} outside [-90, 90]")
            raise DomainError(f"longitude {float(self.lon[i])} outside [-180, 180]")

    def __len__(self) -> int:
        return len(self.t)


def geodesic_distance(lat1, lon1, lat2, lon2):
    """Great-circle distance in feet (haversine), elementwise over scalars or arrays."""
    half_dlat = np.sin(np.radians(lat2 - lat1) / 2.0)
    half_dlon = np.sin(np.radians(lon2 - lon1) / 2.0)
    # products, not `** 2`: on numpy scalars that is pow(), which can miss
    # by an ulp, and elementwise calls must give the bits of scalar ones
    h = (half_dlat * half_dlat
         + np.cos(np.radians(lat1)) * np.cos(np.radians(lat2)) * (half_dlon * half_dlon))
    c = 2.0 * np.arcsin(np.minimum(1.0, np.sqrt(h)))
    return EARTH_RADIUS_M * c * FT_PER_M


def backward_rate(values: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The rate of change of a series: each difference over its own time step.

    rate[i] = (values[i] - values[i - 1]) / (t[i] - t[i - 1]) for i >= 1,
    and rate[0] takes rate[1]. This is the one rate rule: speed,
    acceleration and jerk, observed or simulated, all come from it. It
    sets no floating-point error state; callers choose how to treat an
    overflow.
    """
    rate = np.empty(len(values))
    rate[1:] = np.diff(values) / np.diff(t)
    rate[0] = rate[1]
    return rate


def kinematics_from_positions(t: np.ndarray, pos: np.ndarray, vehicle_id: str = "") -> Trajectory:
    """Derive speed and accel from a position series by backward_rate.

    Speed is the rate of the positions and acceleration the rate of the
    speeds. Acceleration is valid from index 2 onward; its first two
    entries take its third, so constant acceleration reproduces its
    ground truth at every index. The trajectory holds copies of `t` and
    `pos`. Raises OrderingError unless the times strictly increase, then
    DomainError where a derivative is not finite or beyond
    ±MAX_MAGNITUDE, the rule `clean` applies to every pair column.
    """
    t = np.array(t, dtype=float)
    pos = np.array(pos, dtype=float)
    n = len(t)
    if n < 3:
        raise InsufficientDataError(f"need at least 3 samples for acceleration, got {n}")
    # an overflow or a NaN is reported below as an error, never as a warning
    with np.errstate(all="ignore"):
        if not np.all(np.diff(t) > 0):
            raise OrderingError("timestamps must be strictly increasing")
        speed = backward_rate(pos, t)
        accel = backward_rate(speed, t)
        accel[:2] = accel[2]

    for name, column in (("speed", speed), ("accel", accel)):
        bad = ~(np.abs(column) <= MAX_MAGNITUDE)  # written so that NaN is out of range
        if bad.any():
            i = int(np.argmax(bad))
            raise DomainError(f"trajectory {vehicle_id!r}: {name} at t={float(t[i])!r} is "
                              f"{float(column[i])!r}, which is not finite or not within "
                              f"[-2^53, 2^53]; the time steps are too short for the distances covered")
    return Trajectory(vehicle_id, t, pos, speed, accel)


def derive_kinematics(log: GpsLog, vehicle_id: str = "") -> Trajectory:
    """Convert a GPS log into a trajectory: cumulative arc length plus derivatives."""
    lat, lon = log.lat, log.lon
    pos = np.zeros(len(log))
    pos[1:] = np.cumsum(geodesic_distance(lat[:-1], lon[:-1], lat[1:], lon[1:]))
    return kinematics_from_positions(log.t, pos, vehicle_id=vehicle_id)


# ---------------------------------------------------------------------------
# file I/O

def _parse_time(text: str) -> float:
    """Accept epoch seconds within ±MAX_MAGNITUDE or ISO-8601; return seconds as float.

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
    if not abs(value) <= MAX_MAGNITUDE:
        raise ValueError(f"timestamp {value!r} {RANGE_RULE}")
    return value


# the characters of an all-numeric log body: a cell of only these reads
# to the same double by float() and by np.loadtxt, which also strips, say,
# "\x1c" around a number where float() refuses it
_NUMERIC_TEXT = b"0123456789+-.eE, \t\r\n"


def _numeric_columns(body: str) -> np.ndarray | None:
    """The (3, n) columns of an all-numeric log body, parsed by one np.loadtxt call.

    None where the row-wise reader must decide: any error or warning
    from loadtxt (an ISO-8601 time fails at once), no rows, other than 3
    columns, a time beyond ±MAX_MAGNITUDE or not finite, a character
    outside _NUMERIC_TEXT, or a line that may be longer than csv's field
    limit (csv refuses such a cell, loadtxt does not). On every other
    body the two readers give the same doubles.
    """
    if not body.isascii():
        return None
    raw = body.encode("ascii")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # loadtxt warns of a body with no rows
            table = np.loadtxt(io.BytesIO(raw), delimiter=",", comments=None, ndmin=2,
                               encoding="ascii")
    except Exception:  # what loadtxt refuses, the row-wise reader judges
        return None
    if table.shape[1] != 3 or not len(table) or not np.all(np.abs(table[:, 0]) <= MAX_MAGNITUDE):
        return None
    if raw.translate(None, _NUMERIC_TEXT):
        return None
    # a line longer than csv's field limit spans a whole block of half that
    # length, so a block with no line break sends the body to the row-wise
    # reader (as does a line of between half the limit and all of it)
    block = max(csv.field_size_limit() // 2, 1)
    if any(raw.find(b"\n", start, start + block) < 0 and raw.find(b"\r", start, start + block) < 0
           for start in range(0, len(raw) - block + 1, block)):
        return None
    return table.T.copy()


def _not_utf8(row: list[str]) -> str | None:
    """The row as bytes, named, if some are not UTF-8; errors="surrogateescape" kept them."""
    raw = ",".join(row).encode("utf-8", "surrogateescape")
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError:
        return f"not UTF-8 text: {raw!r}"
    return None


def _parse_rows(reader, path: Path) -> np.ndarray:
    """The (3, n) columns of the rows after the header, read row by row.

    The first bad row is named by the file line it ends on, which a quoted
    line break puts past the row count.
    """
    ts, lats, lons = [], [], []
    for row in reader:
        if len(row) == 3:
            try:
                t, lat, lon = _parse_time(row[0]), float(row[1]), float(row[2])
            except ValueError as exc:
                problem = str(exc)
            else:
                ts.append(t)
                lats.append(lat)
                lons.append(lon)
                continue
        else:
            problem = f"expected 3 columns, got {len(row)}"
        # only a row that did not parse can be blank; blank rows are skipped
        if any(cell.strip() for cell in row):
            raise DomainError(f"{path}:{reader.line_num}: {_not_utf8(row) or problem}")
    if not ts:
        raise InsufficientDataError(f"{path}: no data rows")
    return np.array([ts, lats, lons])


def _read_header(reader, path: Path) -> None:
    """Read the header row and require it to be `t,lat,lon` (any case, spaces around names)."""
    try:
        header = next(reader)
    except StopIteration:
        raise InsufficientDataError(f"{path}: empty file") from None
    if [h.strip().lower() for h in header] != ["t", "lat", "lon"]:
        raise DomainError(f"{path}: header must be exactly 't,lat,lon', got {header}")


def _read_gps_rows(path: str | Path) -> np.ndarray:
    """The time, latitude and longitude columns of a `t,lat,lon` CSV, as parsed, one row each.

    An all-numeric body takes one np.loadtxt call; any other (ISO-8601
    times, quoted cells, rows of only spaces or commas, a fault) is read
    again from the top by the row-wise reader, which gives the same
    columns or names the first bad row. A leading UTF-8 byte-order mark
    is dropped, on either read; a byte that is not UTF-8 is a fault of
    its row.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8-sig", errors="surrogateescape") as handle:
        reader = csv.reader(handle)
        try:
            _read_header(reader, path)
            columns = _numeric_columns(handle.read())
            if columns is None:
                handle.seek(0)
                reader = csv.reader(handle)
                _read_header(reader, path)
                columns = _parse_rows(reader, path)
        except csv.Error as exc:  # e.g. a cell longer than csv.field_size_limit()
            raise DomainError(f"{path}:{reader.line_num}: {exc}") from None
    return columns


def read_gps_pair(leader_path: str | Path, follower_path: str | Path) -> tuple[GpsLog, GpsLog]:
    """Read two `t,lat,lon` CSVs (header required) on a shared clock.

    Timestamps may be epoch seconds or ISO-8601; both logs are normalized
    to elapsed seconds from the earlier first fix. Both files are parsed
    before either log is built, so a parse error in either file is
    reported before any out-of-range coordinate.
    """
    leader = _read_gps_rows(leader_path)
    follower = _read_gps_rows(follower_path)
    t0 = min(leader[0][0], follower[0][0])
    return tuple(GpsLog(np.array(t) - t0, lat, lon) for t, lat, lon in (leader, follower))
