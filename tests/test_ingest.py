import json
import math
import time

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cfcalib import (
    DomainError,
    GpsFix,
    InsufficientDataError,
    OrderingError,
    convert_units,
    derive_kinematics,
    geodesic_distance,
    kinematics_from_positions,
)
from cfcalib.cli import main
from cfcalib.ingest import (
    read_gps_csv,
    read_gps_pair,
    read_trajectory_json,
    write_trajectory_json,
)

# one degree of meridian arc is 69 miles to within spherical-model error
MERIDIAN_DEG_FT = 364_320.0


def haversine_oracle_ft(a, b):
    """Independent scalar haversine (math module), in feet."""
    lat1, lat2 = math.radians(a.lat), math.radians(b.lat)
    dlat = math.radians(b.lat - a.lat)
    dlon = math.radians(b.lon - a.lon)
    h = math.sin(dlat / 2.0) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2.0) ** 2
    return 6_371_008.8 * 2.0 * math.asin(min(1.0, math.sqrt(h))) / 0.3048


def meridian_fixes(n, step_ft, t0=0.0, dt=1.0):
    # equal arc steps straight up a meridian
    deg_per_ft = 1.0 / (6_371_008.8 * math.pi / 180.0 / 0.3048)
    return [GpsFix(t0 + i * dt, i * step_ft * deg_per_ft, 0.0) for i in range(n)]


class TestGeodesicDistance:
    def test_identical_fixes_zero(self):
        a = GpsFix(0.0, 28.37, -81.25)
        b = GpsFix(1.0, 28.37, -81.25)
        assert geodesic_distance(a, b) == 0.0

    def test_one_degree_meridian(self):
        d = geodesic_distance(GpsFix(0, 0.0, 0.0), GpsFix(1, 1.0, 0.0))
        assert d == pytest.approx(MERIDIAN_DEG_FT, rel=2e-3)

    @given(
        lat1=st.floats(-89, 89), lon1=st.floats(-179, 179),
        lat2=st.floats(-89, 89), lon2=st.floats(-179, 179),
    )
    def test_symmetry_and_nonnegative(self, lat1, lon1, lat2, lon2):
        a = GpsFix(0.0, lat1, lon1)
        b = GpsFix(1.0, lat2, lon2)
        assert geodesic_distance(a, b) == geodesic_distance(b, a)
        assert geodesic_distance(a, b) >= 0.0

    def test_out_of_range_coordinates_rejected(self):
        with pytest.raises(DomainError):
            GpsFix(0.0, 91.0, 0.0)
        with pytest.raises(DomainError):
            GpsFix(0.0, 0.0, 181.0)


class TestDeriveKinematics:
    def test_stationary_log_all_zero(self):
        fixes = [GpsFix(float(i), 28.37, -81.25) for i in range(5)]
        traj = derive_kinematics(fixes)
        assert np.all(traj.speed == 0.0)
        assert np.all(traj.accel == 0.0)
        assert np.all(traj.jerk == 0.0)

    def test_constant_speed_along_meridian(self):
        traj = derive_kinematics(meridian_fixes(6, 14.39))
        assert traj.speed == pytest.approx(np.full(6, 14.39), abs=1e-6)
        assert traj.accel == pytest.approx(np.zeros(6), abs=1e-6)

    def test_quadratic_positions_constant_accel(self):
        # x = t^2 has backward-difference speed 2t-1 and acceleration 2
        t = np.arange(5.0)
        traj = kinematics_from_positions(t, t ** 2)
        assert traj.speed[1:] == pytest.approx([1.0, 3.0, 5.0, 7.0])
        assert traj.accel == pytest.approx(np.full(5, 2.0), abs=1e-12)
        assert traj.jerk == pytest.approx(np.zeros(5), abs=1e-12)

    def test_too_few_fixes(self):
        with pytest.raises(InsufficientDataError):
            derive_kinematics(meridian_fixes(3, 10.0))

    def test_non_monotone_time(self):
        fixes = meridian_fixes(5, 10.0)
        fixes[2] = GpsFix(fixes[1].t, fixes[2].lat, fixes[2].lon)
        with pytest.raises(OrderingError):
            derive_kinematics(fixes)

    def test_position_increments_match_pairwise_distances(self):
        fixes = [
            GpsFix(0.0, 28.3700, -81.2500),
            GpsFix(1.0, 28.3701, -81.2501),
            GpsFix(2.0, 28.3703, -81.2500),
            GpsFix(3.0, 28.3704, -81.2498),
            GpsFix(4.0, 28.3706, -81.2497),
        ]
        traj = derive_kinematics(fixes)
        pos = traj.pos
        assert pos[0] == 0.0
        assert np.all(np.diff(pos) >= 0.0)
        for i in range(1, len(fixes)):
            # cumulative summation costs at most an ulp per step
            assert pos[i] - pos[i - 1] == pytest.approx(
                haversine_oracle_ft(fixes[i - 1], fixes[i]), abs=1e-9)
            assert geodesic_distance(fixes[i - 1], fixes[i]) == pytest.approx(
                haversine_oracle_ft(fixes[i - 1], fixes[i]), abs=1e-9)

    def test_rederiving_from_positions_is_identity(self):
        traj = derive_kinematics(meridian_fixes(8, 12.0))
        again = kinematics_from_positions(traj.t, traj.pos)
        for key in ("speed", "accel", "jerk"):
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

    def test_time_gap_flagging(self):
        t = np.array([0.0, 1.0, 2.0, 3.5, 4.5])
        traj = kinematics_from_positions(t, np.zeros(5) + np.arange(5))
        assert traj.time_gaps() == [3]


class TestConvertUnits:
    def test_speed_cap_in_ft_per_s(self):
        assert convert_units(15.0, "mi/h", "ft/s") == 22.0

    def test_zero_is_zero(self):
        for unit in ("ft", "m", "ft/s", "mi/h", "m/s", "ft/s^2", "m/s^2"):
            assert convert_units(0.0, unit, unit) == 0.0

    def test_metric_speed(self):
        assert convert_units(1.0, "m/s", "ft/s") == pytest.approx(3.2808, abs=1e-4)

    def test_unknown_unit(self):
        with pytest.raises(DomainError):
            convert_units(1.0, "furlong/fortnight", "ft/s")

    def test_cross_dimension_rejected(self):
        with pytest.raises(DomainError):
            convert_units(1.0, "ft", "ft/s")

    @given(value=st.floats(-1e6, 1e6))
    def test_round_trip(self, value):
        assert convert_units(convert_units(value, "ft/s", "m/s"), "m/s", "ft/s") == pytest.approx(value, abs=1e-9)


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
        fixes = read_gps_csv(csv_path)
        assert len(fixes) == 4
        assert fixes[0].t == 0.0

    def test_iso_timestamps(self, tmp_path):
        csv_path = tmp_path / "log.csv"
        csv_path.write_text(
            "t,lat,lon\n"
            "2024-05-01T10:00:00,28.37,-81.25\n"
            "2024-05-01T10:00:01,28.3701,-81.25\n"
            "2024-05-01T10:00:02,28.3702,-81.25\n"
            "2024-05-01T10:00:03,28.3703,-81.25\n"
        )
        fixes = read_gps_csv(csv_path)
        assert [f.t for f in fixes] == [0.0, 1.0, 2.0, 3.0]

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
        assert [f.t for f in read_gps_csv(naive, t0=0.0)] == [epoch + i for i in range(4)]
        lf, ff = read_gps_pair(naive, aware)
        assert [f.t for f in lf] == [f.t for f in ff] == [0.0, 1.0, 2.0, 3.0]

    def test_blank_rows_skipped(self, tmp_path):
        csv_path = tmp_path / "log.csv"
        csv_path.write_text("t,lat,lon\n0,28.37,-81.25\n\n1,28.3701,-81.25\n,,\n"
                            " , ,\t\n2,28.3702,-81.25\n,\n3,28.3703,-81.25\n")
        fixes = read_gps_csv(csv_path)
        assert [(f.t, f.lat) for f in fixes] == [
            (0.0, 28.37), (1.0, 28.3701), (2.0, 28.3702), (3.0, 28.3703)]

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
        lf, ff = read_gps_pair(leader, follower)
        assert lf[0].t == 0.0
        assert ff[0].t == 2.0

    def test_trajectory_json_round_trip(self, tmp_path):
        traj = derive_kinematics(meridian_fixes(6, 10.0), vehicle_id="shuttle")
        path = tmp_path / "traj.json"
        write_trajectory_json(traj, path)
        loaded = read_trajectory_json(path)
        assert loaded.vehicle_id == "shuttle"
        assert loaded.dt == traj.dt
        for key in ("t", "pos", "speed", "accel", "jerk"):
            assert np.array_equal(getattr(traj, key), getattr(loaded, key))


class TestIngestCliContract:
    @pytest.mark.parametrize("bad_row, line", [
        ("2,north,-81.25", 4),   # non-numeric latitude
        ("nan,28.3702,-81.25", 4),   # non-finite timestamp
        ("2,,-81.25", 4),   # one blank cell
        ("2,28.3702", 4),   # two columns
        ("2,28.3702,-81.25,", 4),   # four columns, the last blank
    ])
    def test_bad_cell_exits_one_naming_path_and_line(self, tmp_path, capsys, bad_row, line):
        rows = ["0,28.37,-81.25", "1,28.3701,-81.25", bad_row, "3,28.3703,-81.25"]
        csv_path = tmp_path / "log.csv"
        csv_path.write_text("t,lat,lon\n" + "".join(f"{row}\n" for row in rows))
        out = tmp_path / "traj.json"
        rc = main(["ingest", "--input", str(csv_path), "--out", str(out)])
        lines = capsys.readouterr().err.strip().splitlines()
        assert rc == 1
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "domain"
        assert f"log.csv:{line}" in err["message"]
        assert not out.exists()
