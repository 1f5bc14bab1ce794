import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cfcalib import (
    CleaningRules,
    DomainError,
    FollowingSegment,
    NoCarFollowingError,
    PairedSeries,
    PairingError,
    SplitError,
    clean_segments,
    pair_trajectories,
    retained_samples,
    split_segments,
)
from cfcalib.cleaning import (
    PAIR_TOLERANCE_S, leader_start_offset, read_segments_json, write_segments_json)
from cfcalib.fixtures import constant_leader_segment, rule_violation_series
from cfcalib.ingest import (
    GpsLog, Trajectory, derive_kinematics, geodesic_distance, kinematics_from_positions)

DEG_PER_FT = 1.0 / (6_371_008.8 * np.pi / 180.0 / 0.3048)


def make_trajectory(t0, n, speed=10.0, vehicle_id="v", dt=1.0):
    t = t0 + np.arange(n, dtype=float) * dt
    pos = speed * np.arange(n, dtype=float) * dt
    return kinematics_from_positions(t, pos, vehicle_id=vehicle_id, dt=dt)


def make_paired(n, follower_speed=10.0, spacing=100.0, accel=0.0, dt=1.0):
    t = np.arange(n, dtype=float) * dt
    follower_pos = follower_speed * t
    return PairedSeries(
        t=t,
        leader_pos=follower_pos + spacing,
        leader_speed=np.full(n, follower_speed),
        leader_accel=np.full(n, accel),
        follower_pos=follower_pos,
        follower_speed=np.full(n, follower_speed),
        follower_accel=np.full(n, accel),
        dt=dt,
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
            return (Trajectory("v", t, step * np.arange(n), zeros, zeros, zeros),
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
            assert np.all(np.diff(seg.t) <= 1.5 * paired.dt)
            assert len(seg) >= rules.min_segment_len

    def test_run_breaks_at_time_gap(self):
        paired = make_paired(40)
        paired.t[20:] += 5.0  # 6-second hole in an otherwise clean series
        segments = clean_segments(paired)
        assert [len(s) for s in segments] == [20, 20]

    def test_segments_json_round_trip(self, tmp_path):
        segments = clean_segments(make_paired(25))
        path = tmp_path / "segments.json"
        write_segments_json(segments, path)
        loaded = read_segments_json(path)
        assert len(loaded) == len(segments)
        assert np.array_equal(loaded[0].spacing, segments[0].spacing)


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
