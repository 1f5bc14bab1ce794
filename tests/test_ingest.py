import csv
import json
import math
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cfcalib import (
    CfCalibError,
    DomainError,
    GpsLog,
    InsufficientDataError,
    OrderingError,
    derive_kinematics,
    geodesic_distance,
    kinematics_from_positions,
)
from cfcalib.cleaning import pair_trajectories, read_pair_json, write_pair_json
from cfcalib.cli import main
from cfcalib.ingest import _parse_time, read_gps_csv, read_gps_pair

# one degree of meridian arc is 69 miles to within spherical-model error
MERIDIAN_DEG_FT = 364_320.0


def haversine_oracle_ft(lat1, lon1, lat2, lon2):
    """Independent scalar haversine (math module), in feet."""
    dlat = math.radians(lat2 - lat1)
    dlon = math.radians(lon2 - lon1)
    lat1, lat2 = math.radians(lat1), math.radians(lat2)
    h = math.sin(dlat / 2.0) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2.0) ** 2
    return 6_371_008.8 * 2.0 * math.asin(min(1.0, math.sqrt(h))) / 0.3048


def meridian_log(n, step_ft, t0=0.0, dt=1.0):
    # equal arc steps straight up a meridian
    deg_per_ft = 1.0 / (6_371_008.8 * math.pi / 180.0 / 0.3048)
    i = np.arange(n)
    return GpsLog(t0 + i * dt, i * step_ft * deg_per_ft, np.zeros(n))


class TestGeodesicDistance:
    def test_identical_fixes_zero(self):
        assert geodesic_distance(28.37, -81.25, 28.37, -81.25) == 0.0

    def test_one_degree_meridian(self):
        d = geodesic_distance(0.0, 0.0, 1.0, 0.0)
        assert d == pytest.approx(MERIDIAN_DEG_FT, rel=2e-3)

    @given(
        lat1=st.floats(-89, 89), lon1=st.floats(-179, 179),
        lat2=st.floats(-89, 89), lon2=st.floats(-179, 179),
    )
    def test_symmetry_and_nonnegative(self, lat1, lon1, lat2, lon2):
        assert geodesic_distance(lat1, lon1, lat2, lon2) == geodesic_distance(lat2, lon2, lat1, lon1)
        assert geodesic_distance(lat1, lon1, lat2, lon2) >= 0.0

    @given(st.lists(st.tuples(st.floats(-90, 90), st.floats(-180, 180),
                              st.floats(-90, 90), st.floats(-180, 180)), min_size=1, max_size=20))
    # a squared sine that numpy's scalar `** 2` (pow) rounds an ulp away from x * x
    @example([(0.0, 0.0, 1.0, 11.404008070950141)])
    def test_elementwise_equals_one_pair_at_a_time(self, pairs):
        got = geodesic_distance(*np.array(pairs).T)
        assert [d.hex() for d in got.tolist()] == [
            float(geodesic_distance(*pair)).hex() for pair in pairs]

    @pytest.mark.parametrize("lat, lon, message", [
        ([0.0, 91.0, 0.0], [0.0, 0.0, 0.0], "latitude 91.0 outside [-90, 90]"),
        ([0.0, 0.0, 0.0], [0.0, -181.0, 0.0], "longitude -181.0 outside [-180, 180]"),
        # the first offending fix is named, its latitude before its longitude
        ([0.0, 95.0, 99.0], [181.0, 190.0, 0.0], "longitude 181.0 outside [-180, 180]"),
        ([0.0, 95.0, 99.0], [0.0, 190.0, 0.0], "latitude 95.0 outside [-90, 90]"),
        ([0.0, float("nan"), 0.0], [0.0, 0.0, float("inf")], "latitude nan outside [-90, 90]"),
        ([0.0, 0.0, 0.0], [0.0, 0.0, float("-inf")], "longitude -inf outside [-180, 180]"),
    ])
    def test_out_of_range_coordinates_rejected(self, lat, lon, message):
        with pytest.raises(DomainError) as caught:
            GpsLog([0.0, 1.0, 2.0], lat, lon)
        assert str(caught.value) == message

    def test_boundary_coordinates_accepted(self):
        log = GpsLog([0.0, 1.0], [-90.0, 90.0], [-180.0, 180.0])
        assert log.lat.dtype == log.lon.dtype == log.t.dtype == np.float64
        assert len(log) == 2

    @pytest.mark.parametrize("t, lat, lon", [
        ([0.0, 1.0], [0.0], [0.0, 0.0]),
        ([[0.0, 1.0]], [[0.0, 0.0]], [[0.0, 0.0]]),
        ([0.0, "x"], [0.0, 0.0], [0.0, 0.0]),
    ])
    def test_ragged_or_non_numeric_columns_rejected(self, t, lat, lon):
        with pytest.raises(DomainError, match="GPS log"):
            GpsLog(t, lat, lon)


class TestDeriveKinematics:
    def test_stationary_log_all_zero(self):
        traj = derive_kinematics(GpsLog(np.arange(5.0), np.full(5, 28.37), np.full(5, -81.25)))
        assert np.all(traj.speed == 0.0)
        assert np.all(traj.accel == 0.0)

    def test_constant_speed_along_meridian(self):
        traj = derive_kinematics(meridian_log(6, 14.39))
        assert traj.speed == pytest.approx(np.full(6, 14.39), abs=1e-6)
        assert traj.accel == pytest.approx(np.zeros(6), abs=1e-6)

    def test_quadratic_positions_constant_accel(self):
        # x = t^2 has backward-difference speed 2t-1 and acceleration 2
        t = np.arange(5.0)
        traj = kinematics_from_positions(t, t ** 2)
        assert traj.speed[1:] == pytest.approx([1.0, 3.0, 5.0, 7.0])
        assert traj.accel == pytest.approx(np.full(5, 2.0), abs=1e-12)

    def test_too_few_fixes(self):
        # acceleration needs two backward differences: three fixes
        with pytest.raises(InsufficientDataError):
            derive_kinematics(meridian_log(2, 10.0))
        assert derive_kinematics(meridian_log(3, 10.0)).accel == pytest.approx(np.zeros(3))

    def test_non_monotone_time(self):
        log = meridian_log(5, 10.0)
        log.t[2] = log.t[1]
        with pytest.raises(OrderingError):
            derive_kinematics(log)

    def test_ordering_is_checked_before_the_derivatives(self):
        # the second step overflows to -inf: that is an ordering fault
        with pytest.raises(OrderingError):
            kinematics_from_positions([0.0, 1.7e308, -1.7e308, 5.0], [0.0, 1.0, 2.0, 3.0])

    @pytest.mark.parametrize("t, pos", [
        ([0.0, 5e-324, 1e-323, 1.5e-323], [0.0, 1.0, 2.0, 3.0]),
        ([0.0, 1e-300, 2e-300, 3e-300], [0.0, 1.0, 3.0, 4.0]),
        ([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, math.nan, 3.0]),
    ])
    def test_non_finite_derivative_rejected(self, t, pos):
        with pytest.raises(DomainError, match="is not finite"):
            kinematics_from_positions(t, pos, vehicle_id="v")

    def test_position_increments_match_pairwise_distances(self):
        lat = [28.3700, 28.3701, 28.3703, 28.3704, 28.3706]
        lon = [-81.2500, -81.2501, -81.2500, -81.2498, -81.2497]
        traj = derive_kinematics(GpsLog(np.arange(5.0), lat, lon))
        pos = traj.pos
        assert pos[0] == 0.0
        assert np.all(np.diff(pos) >= 0.0)
        for i in range(1, len(lat)):
            step = (lat[i - 1], lon[i - 1], lat[i], lon[i])
            # cumulative summation costs at most an ulp per step
            assert pos[i] - pos[i - 1] == pytest.approx(haversine_oracle_ft(*step), abs=1e-9)
            assert geodesic_distance(*step) == pytest.approx(haversine_oracle_ft(*step), abs=1e-9)

    def test_rederiving_from_positions_is_identity(self):
        traj = derive_kinematics(meridian_log(8, 12.0))
        again = kinematics_from_positions(traj.t, traj.pos)
        for key in ("speed", "accel"):
            assert np.array_equal(getattr(traj, key), getattr(again, key))

    @given(a0=st.floats(-5, 5), v0=st.floats(0.1, 20))
    def test_constant_acceleration_recovered(self, a0, v0):
        t = np.arange(10.0)
        pos = v0 * t + 0.5 * a0 * t ** 2
        traj = kinematics_from_positions(t, pos)
        assert traj.accel == pytest.approx(np.full(10, a0), abs=1e-9)

    def test_trajectory_does_not_alias_inputs(self):
        t = np.arange(5.0)
        pos = t * 3.0
        traj = kinematics_from_positions(t, pos)
        t[0] = pos[0] = -1.0
        assert traj.t[0] == 0.0 and traj.pos[0] == 0.0


@pytest.fixture
def host_tz(monkeypatch):
    """Set the process time zone (a POSIX TZ string); restored afterwards."""
    def set_tz(zone):
        monkeypatch.setenv("TZ", zone)
        time.tzset()
    yield set_tz
    monkeypatch.undo()
    time.tzset()


class TestFileIO:
    def test_csv_round_trip(self, tmp_path):
        csv_path = tmp_path / "log.csv"
        csv_path.write_text("t,lat,lon\n0,28.37,-81.25\n1,28.3701,-81.25\n2,28.3702,-81.25\n3,28.3703,-81.25\n")
        log = read_gps_csv(csv_path)
        assert len(log) == 4
        assert log.t[0] == 0.0

    def test_iso_timestamps(self, tmp_path):
        csv_path = tmp_path / "log.csv"
        csv_path.write_text(
            "t,lat,lon\n"
            "2024-05-01T10:00:00,28.37,-81.25\n"
            "2024-05-01T10:00:01,28.3701,-81.25\n"
            "2024-05-01T10:00:02,28.3702,-81.25\n"
            "2024-05-01T10:00:03,28.3703,-81.25\n"
        )
        assert read_gps_csv(csv_path).t.tolist() == [0.0, 1.0, 2.0, 3.0]

    @pytest.mark.parametrize("zone", ["UTC0", "EST5EDT,M3.2.0,M11.1.0", "JST-9"])
    def test_naive_iso_times_read_as_utc(self, tmp_path, host_tz, zone):
        host_tz(zone)
        naive = tmp_path / "naive.csv"
        aware = tmp_path / "aware.csv"
        naive.write_text("t,lat,lon\n" + "".join(
            f"2024-05-01T10:00:0{i},{28.37 + i * 1e-4},-81.25\n" for i in range(4)))
        aware.write_text("t,lat,lon\n" + "".join(
            f"2024-05-01T12:00:0{i}+02:00,{28.37 + i * 1e-4},-81.25\n" for i in range(4)))
        epoch = 1714557600.0  # 2024-05-01T10:00:00Z
        assert read_gps_csv(naive, t0=0.0).t.tolist() == [epoch + i for i in range(4)]
        leader, follower = read_gps_pair(naive, aware)
        assert leader.t.tolist() == follower.t.tolist() == [0.0, 1.0, 2.0, 3.0]

    def test_blank_rows_skipped(self, tmp_path):
        csv_path = tmp_path / "log.csv"
        csv_path.write_text("t,lat,lon\n0,28.37,-81.25\n\n1,28.3701,-81.25\n,,\n"
                            " , ,\t\n2,28.3702,-81.25\n,\n3,28.3703,-81.25\n")
        log = read_gps_csv(csv_path)
        assert list(zip(log.t.tolist(), log.lat.tolist())) == [
            (0.0, 28.37), (1.0, 28.3701), (2.0, 28.3702), (3.0, 28.3703)]

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_times_at_the_bound_kept_and_the_next_double_rejected(self, tmp_path, sign):
        csv_path = tmp_path / "log.csv"
        bound = sign * 2.0 ** 53
        beyond = float(np.nextafter(bound, sign * np.inf))
        rows = "".join(f"{i},{28.37 + i * 1e-4},-81.25\n" for i in range(1, 4))
        csv_path.write_text(f"t,lat,lon\n{bound!r},28.37,-81.25\n" + rows)
        assert read_gps_csv(csv_path, t0=0.0).t.tolist() == [bound, 1.0, 2.0, 3.0]
        csv_path.write_text(f"t,lat,lon\n{beyond!r},28.37,-81.25\n" + rows)
        with pytest.raises(DomainError) as exc:
            read_gps_csv(csv_path)
        assert str(exc.value) == (f"{csv_path}:2: timestamp {beyond!r} "
                                  f"must be finite and within [-2^53, 2^53]")

    def test_bad_header_rejected(self, tmp_path):
        csv_path = tmp_path / "log.csv"
        csv_path.write_text("time,latitude,longitude\n0,28.37,-81.25\n")
        with pytest.raises(DomainError):
            read_gps_csv(csv_path)

    def test_pair_shares_clock(self, tmp_path):
        leader = tmp_path / "leader.csv"
        follower = tmp_path / "follower.csv"
        leader.write_text("t,lat,lon\n" + "".join(
            f"{100 + i},{28.37 + i * 1e-4},-81.25\n" for i in range(5)))
        follower.write_text("t,lat,lon\n" + "".join(
            f"{102 + i},{28.37 + i * 1e-4},-81.25\n" for i in range(5)))
        leader_log, follower_log = read_gps_pair(leader, follower)
        assert leader_log.t[0] == 0.0
        assert follower_log.t[0] == 2.0

    def write_pair(self, path, dt=0.5):
        leader = derive_kinematics(meridian_log(6, 14.0, dt=dt), vehicle_id="lead", dt=dt)
        follower = derive_kinematics(meridian_log(6, 10.0, dt=dt), vehicle_id="shuttle", dt=dt)
        paired = pair_trajectories(leader, follower, leader_offset=120.0)
        write_pair_json(paired, 120.0, path)
        return paired

    def test_pair_json_round_trip(self, tmp_path):
        path = tmp_path / "pair.json"
        paired = self.write_pair(path)
        data = json.loads(path.read_text())
        assert set(data) == {"t", "leader", "follower", "dt", "leader_start_offset_ft"}
        assert set(data["leader"]) == set(data["follower"]) == {"pos", "speed", "accel"}
        loaded = read_pair_json(path)
        assert loaded.dt == paired.dt == 0.5
        for name in ("t", "leader_pos", "leader_speed", "leader_accel",
                     "follower_pos", "follower_speed", "follower_accel"):
            assert getattr(loaded, name).tolist() == getattr(paired, name).tolist()

    @pytest.mark.parametrize("t, named", [
        ([0.0, 1.0, 3.0, 2.0, 4.0, 5.0], "t[3] = 2.0 follows t[2] = 3.0"),
        ([0.0, 1.0, 2.0, 3.0, 4.0, 4.0], "t[5] = 4.0 follows t[4] = 4.0"),
    ], ids=["decreasing", "repeated"])
    def test_pair_times_must_increase(self, tmp_path, t, named):
        path = tmp_path / "pair.json"
        self.write_pair(path)
        data = json.loads(path.read_text())
        data["t"] = t
        path.write_text(json.dumps(data))
        with pytest.raises(OrderingError) as exc:
            read_pair_json(path)
        assert str(exc.value) == f"{path}: pair JSON: times must strictly increase; {named}"


class TestIngestCliContract:
    """Each bad log is ingested once as the leader and once as the follower."""

    GOOD_ROWS = "".join(f"{i},{28.37 + i * 1e-4},-81.25\n" for i in range(4))

    def ingest_error(self, tmp_path, capsys, bad, role) -> dict:
        """The one JSON error line of a failed ingest with `bad` in `role`."""
        good = tmp_path / "good.csv"
        good.write_text("t,lat,lon\n" + self.GOOD_ROWS)
        logs = {"leader": good, "follower": good, role: bad}
        out = tmp_path / "out.json"
        rc = main(["ingest", "--leader", str(logs["leader"]), "--follower",
                   str(logs["follower"]), "--out", str(out)])
        lines = capsys.readouterr().err.strip().splitlines()
        assert rc == 1
        assert len(lines) == 1
        assert not out.exists()
        return json.loads(lines[0])

    @pytest.mark.parametrize("bad_row, line", [
        ("2,north,-81.25", 4),   # non-numeric latitude
        ("nan,28.3702,-81.25", 4),   # non-finite timestamp
        ("2,,-81.25", 4),   # one blank cell
        ("2,28.3702", 4),   # two columns
        ("2,28.3702,-81.25,", 4),   # four columns, the last blank
    ])
    @pytest.mark.parametrize("role", ["leader", "follower"])
    def test_bad_cell_exits_one_naming_path_and_line(self, tmp_path, capsys, bad_row, line,
                                                     role):
        rows = ["0,28.37,-81.25", "1,28.3701,-81.25", bad_row, "3,28.3703,-81.25"]
        csv_path = tmp_path / "log.csv"
        csv_path.write_text("t,lat,lon\n" + "".join(f"{row}\n" for row in rows))
        err = self.ingest_error(tmp_path, capsys, csv_path, role)
        assert err["error"] == "domain"
        assert f"log.csv:{line}" in err["message"]

    @pytest.mark.parametrize("cell, message", [
        ("lat", "latitude 91.0 outside [-90, 90]"),
        ("lon", "longitude -180.5 outside [-180, 180]"),
    ])
    @pytest.mark.parametrize("role", ["leader", "follower"])
    def test_out_of_range_coordinate_exits_one(self, tmp_path, capsys, cell, message, role):
        rows = ["0,28.37,-81.25", "1,28.3701,-81.25", "2,28.3702,-81.25", "3,28.3703,-81.25"]
        rows[2] = "2,91,-81.25" if cell == "lat" else "2,28.3702,-180.5"
        bad = tmp_path / "bad.csv"
        bad.write_text("t,lat,lon\n" + "".join(f"{row}\n" for row in rows))
        assert self.ingest_error(tmp_path, capsys, bad, role) == {"error": "domain",
                                                                 "message": message}

    @pytest.mark.parametrize("times, code, named", [
        # the speed overflows; the speed is finite but beyond 2^53
        (["0", "5e-324", "1e-323", "1.5e-323"], "domain", "bad': speed at t="),
        (["0", "1e-300", "2e-300", "3e-300"], "domain", "bad': speed at t="),
        # times beyond ±2^53, named at parse time, before any ordering fault
        (["-1e308", "1e308", "1.1e308", "1.2e308"], "domain",
         "bad.csv:2: timestamp -1e+308 must be finite and within [-2^53, 2^53]"),
        (["0", "1.7e308", "-1.7e308", "5"], "domain",
         "bad.csv:3: timestamp 1.7e+308 must be finite and within [-2^53, 2^53]"),
    ], ids=["subnormal-steps", "tiny-steps", "out-of-range-span", "out-of-range-unordered"])
    @pytest.mark.parametrize("role", ["leader", "follower"])
    def test_unmeasurable_times_exit_one(self, tmp_path, capsys, times, code, named, role):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,lat,lon\n" + "".join(f"{t},{28.37 + i * 1e-4},-81.25\n"
                                                for i, t in enumerate(times)))
        err = self.ingest_error(tmp_path, capsys, bad, role)
        assert err["error"] == code
        assert named in err["message"]

    def test_derived_values_beyond_the_magnitude_rule_exit_one(self, tmp_path, capsys):
        # fixes 1e-12 s apart give finite speeds of order 1e13 ft/s and
        # accelerations of order 1e25 ft/s^2, which clean would reject
        rows = "".join(f"{i * 1e-12!r},{28.37 + i * i * 1e-4},-81.25\n" for i in range(5))
        leader, follower = tmp_path / "leader.csv", tmp_path / "follower.csv"
        leader.write_text("t,lat,lon\n" + rows)
        follower.write_text("t,lat,lon\n" + rows)
        out = tmp_path / "pair.json"
        rc = main(["ingest", "--leader", str(leader), "--follower", str(follower),
                   "--out", str(out)])
        lines = capsys.readouterr().err.strip().splitlines()
        assert rc == 1
        assert len(lines) == 1
        assert not out.exists()
        err = json.loads(lines[0])
        assert err["error"] == "domain"
        assert err["message"].startswith(
            "trajectory 'leader': accel at t=0.0 is 7.296265107170194e+25, which is not finite "
            "or not within [-2^53, 2^53]")


# ---------------------------------------------------------------------------
# the row-wise reader that GpsLog replaced, kept as the oracle of the
# columnar one: one (t, lat, lon) tuple per fix, each range-checked as it
# is built. Timestamps go through the package's own _parse_time, which
# the columnar change left alone.

def oracle_fix(t, lat, lon):
    if not (-90.0 <= lat <= 90.0):
        raise DomainError(f"latitude {lat} outside [-90, 90]")
    if not (-180.0 <= lon <= 180.0):
        raise DomainError(f"longitude {lon} outside [-180, 180]")
    return t, lat, lon


def oracle_rows(path):
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
            if any(cell.strip() for cell in row):
                raise DomainError(f"{path}:{lineno}: {problem}")
    if not raw:
        raise InsufficientDataError(f"{path}: no data rows")
    return raw


def oracle_fixes(raw, t0):
    return [oracle_fix(t - t0, lat, lon) for t, lat, lon in raw]


def oracle_read_csv(path):
    raw = oracle_rows(path)
    return oracle_fixes(raw, raw[0][0])


def oracle_read_pair(leader_path, follower_path):
    leader_raw = oracle_rows(leader_path)
    follower_raw = oracle_rows(follower_path)
    t0 = min(leader_raw[0][0], follower_raw[0][0])
    return oracle_fixes(leader_raw, t0), oracle_fixes(follower_raw, t0)


def hex_columns(fixes):
    return [[value.hex() for value in column] for column in zip(*fixes)]


def log_columns(log):
    return [[value.hex() for value in getattr(log, name).tolist()]
            for name in ("t", "lat", "lon")]


def outcome(read, *paths):
    """The columns of each log read, in float.hex, or the exception's type and message."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the CLI's stderr must carry one JSON line only
        try:
            logs = read(*paths)
        except CfCalibError as exc:
            return type(exc).__name__, str(exc)
    return logs


def number_text(lo, hi):
    return st.floats(lo, hi).map(repr)


EPOCH_CELL = st.one_of(
    st.integers(0, 2_000_000_000).map(str),
    number_text(-1e308, 1e308),
    st.sampled_from(["1e308", "-1e308", "1.7e308"]))
ISO_CELL = st.builds(
    lambda second, zone: f"2024-05-01T10:00:{second:02d}{zone}",
    st.integers(0, 59), st.sampled_from(["", "+02:00", "-05:30", "+00:00"]))
ODD_CELL = st.sampled_from(
    ["", " ", "north", "nan", "NaN", "inf", "-inf", "Infinity", "1e400", "0x1p3", "2024-13-01"])
LAT_CELL = st.one_of(number_text(-90, 90), st.sampled_from(["90", "-90", "-0.0"]))
LON_CELL = st.one_of(number_text(-180, 180), st.sampled_from(["180", "-180"]))
OUT_OF_RANGE_LAT = st.one_of(number_text(90.0, 1e300).filter(lambda x: float(x) > 90.0),
                             st.sampled_from(["-90.5", "1e300"]))
OUT_OF_RANGE_LON = st.one_of(number_text(-1e300, -180.0).filter(lambda x: float(x) < -180.0),
                             st.sampled_from(["180.0001", "-1e300"]))
NON_FINITE_CELL = st.sampled_from(["nan", "NaN", "inf", "-inf", "Infinity"])
TIME_CELL = st.one_of(EPOCH_CELL, ISO_CELL)


def row_of(t, lat, lon):
    return st.builds(lambda *cells: ",".join(cells), t, lat, lon)


GOOD_ROW = row_of(TIME_CELL, LAT_CELL, LON_CELL)
# every blank-row form of test_blank_rows_skipped, bad cells, 2 and 4
# columns, non-finite cells and out-of-range coordinates
ODD_ROW = st.one_of(
    st.sampled_from(["", ",,", " , ,\t", ","]),
    row_of(st.one_of(TIME_CELL, ODD_CELL), st.one_of(LAT_CELL, ODD_CELL),
           st.one_of(LON_CELL, ODD_CELL)),
    st.lists(st.one_of(TIME_CELL, LAT_CELL, ODD_CELL), min_size=1, max_size=5)
    .filter(lambda cells: len(cells) != 3).map(",".join),
    row_of(TIME_CELL, st.one_of(OUT_OF_RANGE_LAT, NON_FINITE_CELL), LON_CELL),
    row_of(TIME_CELL, LAT_CELL, st.one_of(OUT_OF_RANGE_LON, NON_FINITE_CELL)),
    row_of(TIME_CELL, st.one_of(OUT_OF_RANGE_LAT, NON_FINITE_CELL),
           st.one_of(OUT_OF_RANGE_LON, NON_FINITE_CELL)),
)
HEADER = st.sampled_from(["t,lat,lon", "T, Lat ,LON", "time,lat,lon", "t,lat"])


@st.composite
def csv_texts(draw):
    rows = draw(st.lists(GOOD_ROW, max_size=8))
    for odd in draw(st.lists(ODD_ROW, max_size=3)):
        rows.insert(draw(st.integers(0, len(rows))), odd)
    if draw(st.integers(0, 19)) == 19:
        return ""
    header = draw(st.one_of(st.just("t,lat,lon"), HEADER))
    return "".join(f"{line}\n" for line in [header] + rows)


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("oracle")


class TestColumnarReaderMatchesRowWise:
    @settings(max_examples=300, deadline=None)
    @given(text=csv_texts())
    def test_read_gps_csv(self, csv_dir, text):
        path = csv_dir / "log.csv"
        path.write_text(text)
        expected = outcome(oracle_read_csv, path)
        got = outcome(read_gps_csv, path)
        if isinstance(expected, list):
            assert log_columns(got) == hex_columns(expected)
        else:
            assert got == expected

    @settings(max_examples=300, deadline=None)
    @given(leader_text=csv_texts(), follower_text=csv_texts())
    def test_read_gps_pair(self, csv_dir, leader_text, follower_text):
        leader, follower = csv_dir / "leader.csv", csv_dir / "follower.csv"
        leader.write_text(leader_text)
        follower.write_text(follower_text)
        expected = outcome(oracle_read_pair, leader, follower)
        got = outcome(read_gps_pair, leader, follower)
        if isinstance(expected, tuple) and isinstance(expected[0], str):
            assert got == expected
        else:
            assert [log_columns(log) for log in got] == [hex_columns(fixes) for fixes in expected]

    @pytest.mark.parametrize("leader_bad, follower_bad", [
        ("2,north,-81.25", "2,28.37,-81.25,1"),   # two parse errors: the leader's wins
        ("2,91,-81.25", "2,north,-81.25"),   # a parse error wins over a range error
        ("2,91,-81.25", "2,28.37,181"),   # two range errors: the leader's wins
        ("2,28.37,181", "2,-91,-81.25"),
    ])
    def test_leader_error_wins_and_parse_before_range(self, tmp_path, leader_bad, follower_bad):
        paths = []
        for name, bad in (("leader", leader_bad), ("follower", follower_bad)):
            path = tmp_path / f"{name}.csv"
            path.write_text(f"t,lat,lon\n0,28.37,-81.25\n1,28.3701,-81.25\n{bad}\n")
            paths.append(path)
        expected = outcome(oracle_read_pair, *paths)
        assert isinstance(expected, tuple) and isinstance(expected[0], str)
        assert outcome(read_gps_pair, *paths) == expected
