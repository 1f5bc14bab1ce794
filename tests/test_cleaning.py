import dataclasses
import hashlib
import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from cfcalib import (
    CleaningRules,
    DomainError,
    FollowingSegment,
    NoCarFollowingError,
    OrderingError,
    PairedSeries,
    PairingError,
    SplitError,
    clean_segments,
    pair_trajectories,
    retained_samples,
    split_segments,
)
from cfcalib.cleaning import (
    COLUMNS, columns_path, leader_start_offset, read_pair_json, read_segments_json,
    segments_from_dict, segments_to_dict, series_columns, series_to_dict, write_pair_json,
    write_segments_json)
from cfcalib.fixtures import constant_leader_segment, rule_violation_series
from cfcalib.ingest import (
    GpsLog, Trajectory, derive_kinematics, geodesic_distance, kinematics_from_positions)

DEG_PER_FT = 1.0 / (6_371_008.8 * np.pi / 180.0 / 0.3048)


def make_trajectory(t0, n, speed=10.0, vehicle_id="v"):
    t = t0 + np.arange(n, dtype=float)
    pos = speed * np.arange(n, dtype=float)
    return kinematics_from_positions(t, pos, vehicle_id=vehicle_id)


def make_paired(n, follower_speed=10.0, spacing=100.0, accel=0.0):
    t = np.arange(n, dtype=float)
    follower_pos = follower_speed * t
    return PairedSeries(
        t=t,
        leader_pos=follower_pos + spacing,
        leader_speed=np.full(n, follower_speed),
        leader_accel=np.full(n, accel),
        follower_pos=follower_pos,
        follower_speed=np.full(n, follower_speed),
        follower_accel=np.full(n, accel),
    )


class TestPairTrajectories:
    def test_identical_grids_pair_fully(self):
        leader = make_trajectory(0.0, 100)
        follower = make_trajectory(0.0, 100)
        paired = pair_trajectories(leader, follower)
        assert len(paired) == 100

    def test_offset_start_pairs_overlap_only(self):
        leader = make_trajectory(0.0, 110)
        follower = make_trajectory(10.0, 100)
        paired = pair_trajectories(leader, follower)
        assert len(paired) == 100
        assert paired.t[0] == 10.0

    def test_spacing_is_position_difference(self):
        leader = make_trajectory(0.0, 20)
        follower = make_trajectory(0.0, 20)
        # shift the leader 100 ft ahead
        leader.pos += 100.0
        paired = pair_trajectories(leader, follower)
        assert paired.spacing == pytest.approx(np.full(20, 100.0))

    def test_jitter_within_tolerance_matches(self):
        # the follower's last time, 49.05 s, lies past the leader's last fix;
        # at each other one the leader has gone 0.05 s further than at its fix
        leader = make_trajectory(0.0, 50)
        follower = make_trajectory(0.05, 50)
        paired = pair_trajectories(leader, follower)
        assert len(paired) == 49
        assert paired.spacing == pytest.approx(np.full(49, 0.5))

    def test_fix_at_a_gap_edge_pairs_and_times_inside_it_drop(self):
        leader = make_trajectory(0.0, 20)
        leader.t[10:] += 5.0  # a 6-s leader step from 9 s to 15 s
        follower = make_trajectory(0.0, 25)
        paired = pair_trajectories(leader, follower)
        assert paired.t.tolist() == [*range(10), *range(15, 25)]
        assert paired.leader_pos.tolist() == leader.pos.tolist()

    def test_disjoint_ranges_raise(self):
        leader = make_trajectory(0.0, 10)
        follower = make_trajectory(1000.0, 10)
        with pytest.raises(PairingError):
            pair_trajectories(leader, follower)


def meridian_log(t0, start_ft, n, speed=12.0, lat0=40.0):
    """A GPS log at 1 Hz along a meridian; negative speed drives south."""
    along = start_ft + speed * np.arange(n)
    return GpsLog(t0 + np.arange(n), lat0 + along * DEG_PER_FT, np.full(n, -83.0)), along


class TestLeaderStartOffset:
    def paired_spacing(self, leader_log, follower_log):
        leader_gps, _ = leader_log
        follower_gps, _ = follower_log
        leader = derive_kinematics(leader_gps, vehicle_id="leader")
        follower = derive_kinematics(follower_gps, vehicle_id="follower")
        offset = leader_start_offset(leader, follower, leader_gps, follower_gps)
        return pair_trajectories(leader, follower, leader_offset=offset).spacing

    @pytest.mark.parametrize("speed", [12.0, -12.0])
    def test_follower_log_starts_later_past_leader_start(self, speed):
        # leader logs from t = 0 at 0 ft; the follower's log starts at
        # t = 10 at 50 ft, with the leader 70 ft ahead of it by then
        leader = meridian_log(0.0, 0.0, 60, speed=speed)
        follower = meridian_log(10.0, 50.0 * np.sign(speed), 40, speed=speed)
        spacing = self.paired_spacing(leader, follower)
        truth = np.abs(leader[1][10:50] - follower[1])
        assert spacing == pytest.approx(truth, rel=1e-6)
        assert spacing[0] == pytest.approx(70.0, rel=1e-6)

    def test_leader_log_starts_later(self):
        leader = meridian_log(5.0, 160.0, 40)
        follower = meridian_log(0.0, 0.0, 50)
        spacing = self.paired_spacing(leader, follower)
        assert spacing == pytest.approx(leader[1] - follower[1][5:45], rel=1e-6)

    def test_leader_behind_follower_is_negative(self):
        leader = meridian_log(0.0, 70.0, 30)
        follower = meridian_log(0.0, 100.0, 30)
        spacing = self.paired_spacing(leader, follower)
        assert spacing == pytest.approx(np.full(30, -30.0), rel=1e-6)

    def test_same_start_is_the_start_distance(self):
        leader_gps, _ = meridian_log(0.0, 120.0, 20)
        follower_gps, _ = meridian_log(0.0, 0.0, 20)
        offset = leader_start_offset(derive_kinematics(leader_gps), derive_kinematics(follower_gps),
                                     leader_gps, follower_gps)
        assert offset == geodesic_distance(follower_gps.lat[0], follower_gps.lon[0],
                                           leader_gps.lat[0], leader_gps.lon[0])

    def test_interpolates_across_the_antimeridian(self):
        # eastward along the equator, the leader 100 ft ahead and half a second
        # out of phase; it crosses 180 degrees between its first two fixes,
        # around the follower's first paired time
        def equator_log(t, along):
            lon = (180.0 - 110.0 * DEG_PER_FT + along * DEG_PER_FT + 180.0) % 360.0 - 180.0
            return GpsLog(t, np.zeros(len(t)), lon)

        lt, ft = 0.5 + np.arange(30.0), np.arange(30.0)
        leader = (equator_log(lt, 100.0 + 12.0 * lt), None)
        follower = (equator_log(ft, 12.0 * ft), None)
        spacing = self.paired_spacing(leader, follower)
        assert spacing == pytest.approx(np.full(29, 100.0), rel=1e-6)

    def test_disjoint_logs_raise(self):
        leader_gps, _ = meridian_log(0.0, 0.0, 10)
        follower_gps, _ = meridian_log(1000.0, 0.0, 10)
        with pytest.raises(PairingError):
            leader_start_offset(derive_kinematics(leader_gps), derive_kinematics(follower_gps),
                                leader_gps, follower_gps)


def interpolation_oracle(lt, lv, ft):
    """(follower index, leader value) of each follower time that pairs, by a loop over leader fixes.

    A follower time equal to a leader fix takes that fix's value. One
    strictly between two fixes takes np.interp's line through them, unless
    that step exceeds 1.5x the lower median step. Any other time is dropped.
    """
    median = sorted(b - a for a, b in zip(lt, lt[1:]))[(len(lt) - 2) // 2]
    out = []
    for i, t in enumerate(ft):
        for k, x in enumerate(lt):
            if x == t:
                out.append((i, lv[k]))
            elif k + 1 < len(lt) and x < t < lt[k + 1] and lt[k + 1] - x <= 1.5 * median:
                slope = (lv[k + 1] - lv[k]) / (lt[k + 1] - x)
                out.append((i, slope * (t - x) + lv[k]))
    return out


# strictly increasing times, on a 0.05-s grid (so that follower times hit
# leader fixes) or anywhere (so that leader steps vary and some are gaps)
TIMES = st.lists(st.one_of(st.integers(0, 200).map(lambda k: k * 0.05), st.floats(0.0, 10.0)),
                 min_size=2, max_size=40, unique=True).map(sorted)
VALUES = st.lists(st.floats(-1e6, 1e6), min_size=40, max_size=40)


class TestPairingMatchesInterpolationOracle:
    @settings(max_examples=300, deadline=None)
    @given(lt=TIMES, ft=TIMES, pos=VALUES, speed=VALUES)
    def test_pairs_and_offset_bit_for_bit(self, lt, ft, pos, speed):
        n, m = len(lt), len(ft)
        accel = [1e3 * k for k in range(n)]
        leader = Trajectory("leader", lt, pos[:n], speed[:n], accel)
        # a parked follower: the spacing at the first pair is that between the two logs' fixes
        follower = Trajectory("follower", ft, 1e6 * np.arange(m), np.zeros(m), np.zeros(m))
        leader_log = GpsLog(lt, np.full(n, 40.001), np.full(n, -83.0))
        follower_log = GpsLog(ft, np.full(m, 40.0), np.full(m, -83.0))
        pairs = interpolation_oracle(lt, pos[:n], ft)
        if not pairs:
            with pytest.raises(PairingError):
                leader_start_offset(leader, follower, leader_log, follower_log)
            with pytest.raises(PairingError):
                pair_trajectories(leader, follower)
            return
        fi = [i for i, _ in pairs]
        paired = pair_trajectories(leader, follower, leader_offset=250.0)
        assert paired.t.tolist() == [ft[i] for i in fi]
        assert paired.follower_pos.tolist() == follower.pos[fi].tolist()
        assert (np.array([v for _, v in pairs]) + 250.0).tobytes() == paired.leader_pos.tobytes()
        for name, values in (("speed", speed[:n]), ("accel", accel)):
            want = np.array([v for _, v in interpolation_oracle(lt, values, ft)])
            assert want.tobytes() == getattr(paired, f"leader_{name}").tobytes(), name
        spacing = float(geodesic_distance(40.0, -83.0, 40.001, -83.0))
        expected = spacing - float(pairs[0][1] - follower.pos[fi[0]])
        assert leader_start_offset(leader, follower, leader_log, follower_log) == expected


class TestOutOfPhaseLogs:
    """A leader at 15 ft/s, then accelerating at 3 ft/s^2, logged out of phase with the follower.

    Linear interpolation between 1-Hz fixes misses a constant-acceleration
    path by at most a * h^2 / 8; nearest-fix pairing misses it by v * phase.
    """

    ACCEL = 3.0

    def leader_along(self, t):
        return 200.0 + 15.0 * t + 0.5 * self.ACCEL * np.maximum(t - 40.0, 0.0) ** 2

    @pytest.mark.parametrize("phase", [0.0, 0.05, 0.2, 0.5])
    def test_every_follower_time_in_span_pairs_within_the_bound(self, phase):
        lt = phase + np.arange(80.0)
        ft = np.arange(81.0)
        follower_along = 12.0 * ft
        leader_log = GpsLog(lt, 40.0 + self.leader_along(lt) * DEG_PER_FT, np.full(80, -83.0))
        follower_log = GpsLog(ft, 40.0 + follower_along * DEG_PER_FT, np.full(81, -83.0))
        leader, follower = derive_kinematics(leader_log), derive_kinematics(follower_log)
        offset = leader_start_offset(leader, follower, leader_log, follower_log)
        paired = pair_trajectories(leader, follower, leader_offset=offset)
        inside = (ft >= lt[0]) & (ft <= lt[-1])
        assert paired.t.tolist() == ft[inside].tolist()
        truth = self.leader_along(paired.t) - 12.0 * paired.t
        # a phase of 0.5 s reaches the bound, at the middle of each step; 1e-6 ft
        # covers the round trip through degrees and the great-circle distance
        assert np.abs(paired.spacing - truth).max() <= self.ACCEL * 1.0 ** 2 / 8.0 + 1e-6


def brute_force_runs(keep_mask, min_len):
    """Independent oracle: indices of retained samples, grouped by contiguity."""
    runs, current = [], []
    for i, keep in enumerate(keep_mask):
        if keep:
            current.append(i)
        elif current:
            runs.append(current)
            current = []
    if current:
        runs.append(current)
    return [r for r in runs if len(r) >= min_len]


class TestCleanSegments:
    def test_engineered_counts_survive_exactly(self):
        paired = rule_violation_series()
        assert len(paired) == 6433
        segments = clean_segments(paired)
        assert retained_samples(segments) == 4427

    def test_counts_say_what_cleaning_did(self):
        """Each failed condition, the gap that breaks a run, the cadence and the short run."""
        paired = make_paired(60)
        paired.follower_speed[3] = 0.0          # leaves a 3-sample run, dropped as short
        paired.follower_accel[3] = 19.0         # the same sample fails a second condition
        paired.leader_pos[30] = paired.follower_pos[30] - 1.0
        paired.t[45:] += 4.0                    # a gap inside a kept run
        counts = {}
        segments = clean_segments(paired, counts=counts)
        assert [len(s) for s in segments] == [26, 14, 15]
        assert counts == {
            "failed_follower_moving": 1, "failed_follower_speed_in_cap": 0,
            "failed_leader_ahead": 1, "failed_leader_in_sensor_range": 0,
            "failed_leader_accel_plausible": 0, "failed_follower_accel_plausible": 1,
            "runs_broken_at_gap": 1, "cadence_s": 1.0, "runs_dropped_short": 1, "segments": 3}

    def test_all_stopped_raises(self):
        paired = make_paired(50, follower_speed=0.0)
        with pytest.raises(NoCarFollowingError):
            clean_segments(paired)

    def test_single_outlier_splits_run(self):
        paired = make_paired(30)
        paired.follower_accel[14] = 19.0  # above the 18 ft/s^2 cap
        segments = clean_segments(paired)
        keep = [i != 14 for i in range(30)]
        expected = brute_force_runs(keep, 10)
        assert [len(s) for s in segments] == [len(r) for r in expected]
        assert retained_samples(segments) == 29

    def test_outlier_near_edge_shortens_run(self):
        paired = make_paired(30)
        paired.follower_accel[3] = 19.0
        segments = clean_segments(paired)
        # the 3-sample prefix dies under the minimum length rule
        assert [len(s) for s in segments] == [26]

    def test_retained_samples_satisfy_every_rule(self):
        rng = np.random.default_rng(5)
        n = 400
        t = np.arange(n, dtype=float)
        follower_speed = rng.uniform(-1.0, 25.0, n)
        spacing = rng.uniform(-50.0, 800.0, n)
        follower_pos = np.cumsum(np.abs(follower_speed))
        paired = PairedSeries(
            t=t, leader_pos=follower_pos + spacing,
            leader_speed=rng.uniform(0, 25, n),
            leader_accel=rng.uniform(-25, 25, n),
            follower_pos=follower_pos, follower_speed=follower_speed,
            follower_accel=rng.uniform(-25, 25, n),
        )
        rules = CleaningRules()
        try:
            segments = clean_segments(paired, rules)
        except NoCarFollowingError:
            return
        for seg in segments:
            for i in range(len(seg)):
                assert all(rules.conditions(seg.leader_accel[i], seg.follower_speed[i],
                                            seg.follower_accel[i], seg.spacing[i]).values())
            assert np.all(np.diff(seg.t) <= 1.5 * np.median(np.diff(paired.t)))
            assert len(seg) >= rules.min_segment_len

    def test_run_breaks_at_time_gap(self):
        paired = make_paired(40)
        paired.t[20:] += 5.0  # 6-second hole in an otherwise clean series
        segments = clean_segments(paired)
        assert [len(s) for s in segments] == [20, 20]

    @pytest.mark.parametrize("t, lengths", [
        # a 0.5-s cadence with one fix missing: its 1.0-s step is a gap
        (np.delete(np.arange(40) * 0.5, 20), [20, 19]),
        # a fix 0.01 s after another leaves the 1-s cadence, and the run whole
        (np.insert(np.arange(40.0), 21, 20.01), [41]),
        # half of the steps are dropouts: the lower median is still the 1-s cadence
        (np.append(np.arange(21.0), 20.0 + 2.0 * np.arange(1, 21)), [21]),
    ], ids=["half-second-cadence", "duplicate-fix", "half-the-steps-dropouts"])
    def test_cadence_is_the_median_step(self, t, lengths):
        paired = make_paired(len(t))
        paired.t[:] = t
        assert [len(s) for s in clean_segments(paired)] == lengths

    def test_segments_json_round_trip(self, tmp_path):
        segments = clean_segments(make_paired(25))
        path = tmp_path / "segments.json"
        write_segments_json(segments, path)
        loaded = read_segments_json(path)
        assert len(loaded) == len(segments)
        assert np.array_equal(loaded[0].spacing, segments[0].spacing)

    def test_segments_json_keys_and_the_old_spacing_column(self, tmp_path):
        """An entry holds id and the columns; a file that still has `spacing` reads the same."""
        segments = clean_segments(make_paired(25))
        path = tmp_path / "segments.json"
        write_segments_json(segments, path)
        data = json.loads(path.read_text())
        assert [set(entry) for entry in data["segments"]] == [
            {"id", "t", "leader", "follower"}] * len(segments)
        for entry, seg in zip(data["segments"], segments):
            entry["spacing"] = seg.spacing.tolist()
        old = tmp_path / "old.json"
        old.write_text(json.dumps(data))
        for got, want in zip(read_segments_json(old), read_segments_json(path), strict=True):
            assert got.id == want.id
            for name in COLUMNS:
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


class TestFollowingSegment:
    def test_rejects_nonpositive_spacing(self):
        n = 12
        t = np.arange(n, dtype=float)
        with pytest.raises(DomainError):
            FollowingSegment(
                id="bad", t=t,
                leader_pos=np.zeros(n), leader_speed=np.zeros(n), leader_accel=np.zeros(n),
                follower_pos=np.zeros(n), follower_speed=np.zeros(n), follower_accel=np.zeros(n),
            )

    def test_rejects_short_segments(self):
        with pytest.raises(DomainError):
            constant_leader_segment(10.0, 5, 50.0)

    @pytest.mark.parametrize("i, value, named", [
        (6, 4.0, "t[6] = 4.0 follows t[5] = 5.0"),
        (6, 5.0, "t[6] = 5.0 follows t[5] = 5.0"),
        (6, float("nan"), "t[6] = nan follows t[5] = 5.0"),
    ], ids=["decreasing", "repeated", "nan"])
    def test_rejects_times_not_increasing(self, i, value, named):
        segment = constant_leader_segment(10.0, 11, 50.0, seg_id="s")
        t = segment.t.copy()
        t[i] = value
        with pytest.raises(OrderingError) as exc:
            dataclasses.replace(segment, t=t)
        assert str(exc.value) == f"segment s: times must strictly increase; {named}"

    # a NaN time is an ordering fault, named first (test_rejects_times_not_increasing)
    @pytest.mark.parametrize("name, value", [
        (name, value) for name in COLUMNS for value in (1.7e308, float("inf"), float("nan"))
        if not (name == "t" and value != value)])
    def test_rejects_values_out_of_range(self, name, value):
        segment = constant_leader_segment(10.0, 11, 50.0, seg_id="s")
        column = getattr(segment, name).copy()
        i = len(column) - 1  # a time that still increases
        column[i] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and no numpy warning on the way
            with pytest.raises(DomainError) as exc:
                dataclasses.replace(segment, **{name: column})
        assert str(exc.value) == (f"segment s {name}: {value!r} at index {i} "
                                  f"must be finite and within [-2^53, 2^53]")

    def test_range_is_checked_before_the_spacing(self):
        segment = constant_leader_segment(10.0, 11, 50.0, seg_id="s")
        leader_pos = segment.leader_pos.copy()
        leader_pos[2] = -50.0  # behind the follower
        leader_pos[6] = 1.7e308
        with pytest.raises(DomainError, match="segment s leader_pos: 1.7e\\+308 at index 6"):
            dataclasses.replace(segment, leader_pos=leader_pos)
        leader_pos[6] = segment.leader_pos[6]
        with pytest.raises(DomainError, match="segment s: spacing must stay positive"):
            dataclasses.replace(segment, leader_pos=leader_pos)

    # each column at the bound, with the sign that keeps the times
    # increasing and the spacing positive
    BOUND = 2.0 ** 53
    AT_BOUND = {"t": BOUND, "leader_pos": BOUND, "leader_speed": BOUND, "leader_accel": -BOUND,
                "follower_pos": -BOUND, "follower_speed": -BOUND, "follower_accel": BOUND}

    @pytest.mark.parametrize("name", COLUMNS)
    def test_values_at_the_bound_kept_and_the_next_double_rejected(self, name):
        segment = constant_leader_segment(10.0, 11, 50.0, seg_id="s")
        column = getattr(segment, name).copy()
        i = len(column) - 1
        column[i] = self.AT_BOUND[name]
        kept = dataclasses.replace(segment, **{name: column})
        assert getattr(kept, name)[i] == self.AT_BOUND[name]
        assert np.all(np.isfinite(kept.spacing)) and np.all(kept.spacing > 0.0)
        beyond = float(np.nextafter(column[i], np.copysign(np.inf, column[i])))
        column[i] = beyond
        named = f"segment s {name}: {beyond!r} at index {i} "
        with pytest.raises(DomainError, match=re.escape(named)):
            dataclasses.replace(segment, **{name: column})


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_pair_column_at_the_bound_kept_and_the_next_double_rejected(tmp_path, sign):
    path = tmp_path / "pair.json"
    write_pair_json(make_paired(20), 0.0, path)
    data = json.loads(path.read_text())
    bound = sign * 2.0 ** 53
    data["leader"]["speed"][3] = bound
    path.write_text(json.dumps(data))
    assert read_pair_json(path).leader_speed[3] == bound
    beyond = float(np.nextafter(bound, sign * np.inf))
    data["leader"]["speed"][3] = beyond
    path.write_text(json.dumps(data))
    with pytest.raises(DomainError) as exc:
        read_pair_json(path)
    assert str(exc.value) == (f"{path}: pair JSON leader speed: {beyond!r} at index 3 "
                              f"must be finite and within [-2^53, 2^53]")


def columns_of(series):
    return [getattr(series, name) for name in COLUMNS]


def test_dicts_of_numpy_columns_read_back_in_process():
    # series_to_dict hands out numpy columns; the readers take them as the
    # lists write_json writes for them
    segments = [constant_leader_segment(10.0, 11, 50.0, seg_id="a"),
                FollowingSegment("b", *columns_of(make_paired(12, spacing=0.1 + 0.2)))]
    back = segments_from_dict(segments_to_dict(segments))
    assert [s.id for s in back] == ["a", "b"]
    for got, expected in zip(back, segments):
        for name in COLUMNS:
            assert getattr(got, name).tobytes() == getattr(expected, name).tobytes(), name
    paired = make_paired(7, accel=-0.0)
    columns = series_columns(series_to_dict(paired), "pair")
    assert columns.tobytes() == np.array(columns_of(paired)).tobytes()
    # a numpy column is held to the rule a list is
    entry = series_to_dict(paired)
    entry["leader"]["speed"] = np.full(7, True)
    with pytest.raises(DomainError, match="pair leader speed: values must be numbers, not bool"):
        series_columns(entry, "pair")


def equal_segments(count, length=20):
    return [constant_leader_segment(10.0, length - 1, 50.0, seg_id=f"s{i}")
            for i in range(count)]


class TestSplitSegments:
    def test_eighty_twenty_on_ten_equal_segments(self):
        calibration, validation = split_segments(equal_segments(10), 0.8, seed=7)
        assert len(calibration) == 8
        assert len(validation) == 2

    def test_two_segments_forced_one_one(self):
        calibration, validation = split_segments(equal_segments(2), 0.8, seed=0)
        assert len(calibration) == 1
        assert len(validation) == 1

    def test_determinism(self):
        segments = equal_segments(9)
        first = split_segments(segments, 0.8, seed=123)
        second = split_segments(segments, 0.8, seed=123)
        assert [s.id for s in first[0]] == [s.id for s in second[0]]
        assert [s.id for s in first[1]] == [s.id for s in second[1]]

    def test_needs_two_segments(self):
        with pytest.raises(SplitError):
            split_segments(equal_segments(1), 0.8, seed=0)

    def test_bad_fraction(self):
        with pytest.raises(SplitError):
            split_segments(equal_segments(4), 1.2, seed=0)

    @given(count=st.integers(2, 12), seed=st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_partition_is_disjoint_and_complete(self, count, seed):
        segments = equal_segments(count)
        calibration, validation = split_segments(segments, 0.8, seed=seed)
        ids = sorted(s.id for s in calibration) + sorted(s.id for s in validation)
        assert sorted(ids) == sorted(s.id for s in segments)
        assert calibration and validation

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_share_within_one_segment_of_target(self, seed):
        segments = equal_segments(10, length=30)
        calibration, _ = split_segments(segments, 0.8, seed=seed)
        total = 10 * 30
        share = sum(len(s) for s in calibration) / total
        assert abs(share - 0.8) <= 30 / total


# ---------------------------------------------------------------------------
# the binary sidecar of a segments file

# doubles at the edges of what a segment may hold
EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.0 ** 53, -(2.0 ** 53), 2.0 ** 53 - 1, 0.1]
VALUES = st.one_of(st.sampled_from(EDGE_VALUES),
                   st.floats(-(2.0 ** 53), 2.0 ** 53, allow_nan=False))


@st.composite
def sidecar_segments(draw):
    """Valid segments: up to three drawn, repeated under drawn ids to 0-3 or 32-40 of them."""
    bases = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(10, 14))
        t = sorted(draw(st.lists(VALUES, min_size=n, max_size=n, unique=True)))
        # the leader ahead: the larger of two distinct positions
        pairs = draw(st.lists(st.tuples(VALUES, VALUES).filter(lambda p: p[0] != p[1]),
                              min_size=n, max_size=n))
        rest = [draw(st.lists(VALUES, min_size=n, max_size=n)) for _ in range(4)]
        bases.append(FollowingSegment(
            "", t, [max(p) for p in pairs], rest[0], rest[1], [min(p) for p in pairs],
            rest[2], rest[3]))
    count = draw(st.one_of(st.integers(0, 3), st.integers(32, 40)))
    ids = draw(st.lists(st.text(max_size=8), min_size=count, max_size=count))
    return [dataclasses.replace(bases[i % len(bases)], id=ids[i]) for i in range(count)]


def exact(segments) -> list:
    """Each segment's id and every value as float.hex, in order."""
    return [(s.id, [[float.hex(float(v)) for v in getattr(s, name)] for name in COLUMNS])
            for s in segments]


class TestColumnsSidecar:
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture,
                                     HealthCheck.too_slow])
    @given(segments=sidecar_segments())
    @example(segments=[constant_leader_segment(12.0, 20, 60.0, seg_id="Ström-1 ✓")])
    def test_sidecar_reads_what_the_json_reads(self, tmp_path, segments):
        path = tmp_path / "segments.json"
        write_segments_json(segments, path)
        from_columns = read_segments_json(path)
        columns_path(path).unlink()
        from_json = read_segments_json(path)
        assert (from_columns.read_from, from_json.read_from) == ("columns", "json")
        assert exact(from_columns) == exact(from_json) == exact(segments)

    def test_sidecar_layout(self, tmp_path):
        """One header line, then each segment's columns in COLUMNS order as little-endian doubles."""
        segments = [constant_leader_segment(12.0, 20, 60.0, seg_id="a"),
                    constant_leader_segment(10.0, 11, 40.0, seg_id="b")]
        path = tmp_path / "segments.json"
        write_segments_json(segments, path)
        header, _, payload = columns_path(path).read_bytes().partition(b"\n")
        header = json.loads(header)
        assert header["ids"] == [s.id for s in segments]
        assert header["lengths"] == [len(s) for s in segments]
        assert header["json_sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
        assert payload == b"".join(getattr(s, name).astype("<f8").tobytes()
                                   for s in segments for name in COLUMNS)

    def test_readers_write_no_sidecar(self, tmp_path):
        path = tmp_path / "segments.json"
        path.write_text(json.dumps(segments_to_dict([constant_leader_segment(12.0, 20, 60.0)]),
                                   default=lambda a: a.tolist()))
        assert read_segments_json(path).read_from == "json"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["segments.json"]

    def test_extra_keys_keep_the_json_bytes(self, tmp_path):
        segments = [constant_leader_segment(12.0, 20, 60.0)]
        path = tmp_path / "segments.json"
        write_segments_json(segments, path, retained_samples=len(segments[0]), paired_samples=99)
        expected = {**segments_to_dict(segments), "retained_samples": len(segments[0]),
                    "paired_samples": 99}
        assert path.read_text() == json.dumps(expected, sort_keys=True,
                                              default=lambda a: a.tolist()) + "\n"
