import dataclasses
import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    COLUMNS, PAIR_TOLERANCE_S, leader_start_offset, read_pair_json, read_segments_json,
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
        leader = make_trajectory(0.0, 50)
        follower = make_trajectory(0.05, 50)
        paired = pair_trajectories(leader, follower)
        assert len(paired) == 50

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

    def test_disjoint_logs_raise(self):
        leader_gps, _ = meridian_log(0.0, 0.0, 10)
        follower_gps, _ = meridian_log(1000.0, 0.0, 10)
        with pytest.raises(PairingError):
            leader_start_offset(derive_kinematics(leader_gps), derive_kinematics(follower_gps),
                                leader_gps, follower_gps)


def nearest_first_pair(lt, ft):
    """(leader index, follower index) of the first common fix, by brute force.

    Each follower sample takes its nearest leader sample (the last on a
    tie); the first follower sample whose match lies within the pairing
    tolerance wins. None when no sample matches.
    """
    dist = np.abs(lt[None, :] - ft[:, None])
    li = len(lt) - 1 - np.argmin(dist[:, ::-1], axis=1)
    common = np.flatnonzero(dist[np.arange(len(ft)), li] <= PAIR_TOLERANCE_S)
    if common.size == 0:
        return None
    return int(li[common[0]]), int(common[0])


# strictly increasing times, on a 0.05-s grid (whose rounding puts pairs
# right at the tolerance) or anywhere
TIMES = st.lists(st.one_of(st.integers(0, 200).map(lambda k: k * 0.05), st.floats(0.0, 10.0)),
                 min_size=2, max_size=40, unique=True).map(sorted)


class TestFirstPairMatchesBruteForce:
    @settings(max_examples=300, deadline=None)
    @given(lt=TIMES, ft=TIMES)
    def test_offset_and_first_pair(self, lt, ft):
        # parked vehicles keep the spacing fixed; the trajectories'
        # positions are apart enough that the offset tells the pair
        def parked(t, lat, step):
            n = len(t)
            zeros = np.zeros(n)
            return (Trajectory("v", t, step * np.arange(n), zeros, zeros),
                    GpsLog(t, np.full(n, lat), np.full(n, -83.0)))

        leader, leader_log = parked(lt, 40.001, 1e3)
        follower, follower_log = parked(ft, 40.0, 1e6)
        first = nearest_first_pair(np.array(lt), np.array(ft))
        if first is None:
            with pytest.raises(PairingError):
                leader_start_offset(leader, follower, leader_log, follower_log)
            with pytest.raises(PairingError):
                pair_trajectories(leader, follower)
            return
        li, fi = first
        spacing = float(geodesic_distance(40.0, -83.0, 40.001, -83.0))
        expected = spacing - float(leader.pos[li] - follower.pos[fi])
        assert leader_start_offset(leader, follower, leader_log, follower_log) == expected
        paired = pair_trajectories(leader, follower)
        assert (paired.t[0], paired.leader_pos[0]) == (ft[fi], leader.pos[li])


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
                assert rules.keeps(seg.leader_accel[i], seg.follower_speed[i],
                                   seg.follower_accel[i], seg.spacing[i])
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
