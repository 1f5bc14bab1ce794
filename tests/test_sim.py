import ast
import copy
import dataclasses
import hashlib
import math
from itertools import chain
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cfcalib import (
    AccParams,
    BlendParams,
    CfState,
    ConfigError,
    DomainError,
    FollowingSegment,
    IdmParams,
    SimLimits,
    calib,
    equilibrium_spacing,
    linear_acc_accel,
    sim,
    simulate_all,
    simulate_follower,
)
from cfcalib.fixtures import (
    constant_leader_segment,
    hard_stop_segment,
    idm_response_segments,
    model_response_segments,
    short_trip_segments,
)
from cfcalib.models import (
    GENE_BOUNDS,
    blend_accel_raw,
    default_params,
    genes_to_params,
    idm_accel_raw,
    linear_acc_accel_raw,
    params_row,
)
from cfcalib.sim import BATCH_MIN_SEGMENTS, SegmentSet

SHUTTLE_IDM = IdmParams(a=2.76, delta=1, v0=20.0, s0=9.89, T=2.79, b=24.58)
SHUTTLE_ACC = AccParams(t_des=4.96, k1=0.01, k2=0.43, d0=15.0)
# both collide on the hard stop below
SLUGGISH_ACC = AccParams(t_des=0.1, k1=0.001, k2=0.001, d0=15.0)
TAILGATING_IDM = IdmParams(a=2.76, delta=1, v0=20.0, s0=1.0, T=0.1, b=0.5)


def table_of(models):
    """The kind and (rows, fields) parameter table of parameter sets of one kind."""
    kinds, rows = zip(*map(params_row, models))
    assert len(set(kinds)) == 1
    return kinds[0], np.array(rows)


def replay_linear_acc(seg, params, limits, dt=1.0):
    """Independent spreadsheet-style replay of the linear controller."""
    x = float(seg.follower_pos[0])
    v = float(seg.follower_speed[0])
    spacing = [float(seg.leader_pos[0]) - x]
    collisions = 0
    for i in range(1, len(seg)):
        e = float(seg.leader_pos[i - 1]) - x - params.d0 - params.t_des * v
        a = params.k1 * e + params.k2 * (float(seg.leader_speed[i - 1]) - v)
        a = min(max(a, limits.a_min), limits.a_max)
        v_new = min(max(v + a * dt, limits.v_min), limits.v_max)
        x += 0.5 * (v + v_new) * dt
        v = v_new
        raw = float(seg.leader_pos[i]) - x
        if raw <= 0.0:
            collisions += 1
            raw = 0.01
        spacing.append(raw)
    return np.array(spacing), collisions


class TestSimulateFollower:
    def test_equilibrium_spacing_holds(self):
        s_e = equilibrium_spacing(SHUTTLE_IDM, 14.0)
        seg = constant_leader_segment(14.0, 100, s_e)
        result = simulate_follower(SHUTTLE_IDM, seg)
        assert np.max(np.abs(result.spacing - s_e)) < 1e-6
        assert result.collisions == 0

    def test_zero_accel_model_advances_linearly(self):
        # 80 ft = d0 + t_des * v exactly: zero gap error at matched speeds,
        # so the commanded acceleration is exactly 0 on every step
        at_gap = AccParams(t_des=6.5, k1=0.5, k2=0.5, d0=15.0)
        assert linear_acc_accel(at_gap, CfState(s=80.0, v=10.0, v_l=10.0,
                                                x_l=80.0, x_f=0.0)) == 0.0
        seg = constant_leader_segment(10.0, 30, 80.0)
        result = simulate_follower(at_gap, seg)
        assert np.all(np.diff(result.follower_pos) == 10.0)
        assert np.all(result.follower_speed == 10.0)
        assert np.all(result.spacing == 80.0)

    def test_hard_stop_matches_independent_replay(self):
        seg = hard_stop_segment(initial_speed=18.0, initial_spacing=50.0)
        limits = SimLimits()
        result = simulate_follower(SHUTTLE_ACC, seg, limits)
        expected_spacing, expected_collisions = replay_linear_acc(seg, SHUTTLE_ACC, limits)
        assert result.spacing == pytest.approx(expected_spacing, abs=1e-9)
        assert result.collisions == expected_collisions

    def test_sluggish_gains_collide_and_recover(self):
        # bounds-minimum gains barely brake, so the follower overruns the
        # stopped leader; events are counted and the run keeps going
        sluggish = AccParams(t_des=0.1, k1=0.001, k2=0.001, d0=15.0)
        seg = hard_stop_segment(initial_speed=18.0, initial_spacing=50.0)
        limits = SimLimits()
        result = simulate_follower(sluggish, seg, limits)
        expected_spacing, expected_collisions = replay_linear_acc(seg, sluggish, limits)
        assert expected_collisions > 0
        assert result.collisions == expected_collisions
        assert result.spacing == pytest.approx(expected_spacing, abs=1e-9)
        assert np.all(result.spacing >= 0.01)

    def test_outputs_respect_limits(self):
        limits = SimLimits()
        seg = hard_stop_segment(initial_speed=19.0, initial_spacing=30.0)
        result = simulate_follower(SHUTTLE_IDM, seg, limits)
        assert np.all(result.follower_speed >= limits.v_min)
        assert np.all(result.follower_speed <= limits.v_max)
        assert np.all(result.follower_accel >= limits.a_min - 1e-12)
        assert np.all(result.follower_accel <= limits.a_max + 1e-12)
        assert np.all(np.isfinite(result.follower_pos))

    def test_substepping_changes_smooth_run_little(self):
        seg = idm_response_segments(SHUTTLE_IDM, n_segments=1, seconds=120)[0]
        coarse = simulate_follower(SHUTTLE_IDM, seg, dt=1.0)
        fine = simulate_follower(SHUTTLE_IDM, seg, dt=0.5)
        rel = abs(fine.spacing[-1] - coarse.spacing[-1]) / coarse.spacing[-1]
        assert rel < 0.01

    def test_collision_free_from_equilibrium_or_wider(self):
        for extra in (0.0, 20.0, 60.0):
            seg = model_response_segments(
                SHUTTLE_IDM, n_segments=1, seconds=150,
                initial_spacing=equilibrium_spacing(SHUTTLE_IDM, 10.0) + extra)[0]
            result = simulate_follower(SHUTTLE_IDM, seg)
            assert result.collisions == 0

    def test_dt_must_divide_interval(self):
        seg = constant_leader_segment(10.0, 20, 60.0)
        with pytest.raises(ConfigError):
            simulate_follower(SHUTTLE_IDM, seg, dt=0.3)
        with pytest.raises(ConfigError):
            simulate_follower(SHUTTLE_IDM, seg, dt=-1.0)

    def test_speed_clamp_forbids_reversing(self):
        seg = hard_stop_segment(initial_speed=15.0, initial_spacing=20.0)
        result = simulate_follower(SHUTTLE_IDM, seg)
        assert np.all(result.follower_speed >= 0.0)

    def test_unsupported_model_rejected(self):
        seg = constant_leader_segment(10.0, 20, 60.0)
        with pytest.raises(DomainError):
            simulate_follower("not a model", seg)


class TestSimulateAll:
    def test_one_result_per_segment_in_order(self):
        segments = idm_response_segments(SHUTTLE_IDM, n_segments=3, seconds=60)
        results = simulate_all(SHUTTLE_IDM, segments)
        assert len(results) == 3
        for seg, res in zip(segments, results):
            assert res.follower_pos[0] == seg.follower_pos[0]

    def test_empty_list(self):
        assert simulate_all(SHUTTLE_IDM, []) == []

    def test_permutation_purity(self):
        segments = idm_response_segments(SHUTTLE_IDM, n_segments=3, seconds=60)
        forward = simulate_all(SHUTTLE_IDM, segments)
        backward = simulate_all(SHUTTLE_IDM, segments[::-1])
        for res_f, res_b in zip(forward, backward[::-1]):
            assert np.array_equal(res_f.spacing, res_b.spacing)
            assert res_f.collisions == res_b.collisions


class TestSimLimits:
    def test_invariants(self):
        with pytest.raises(DomainError):
            SimLimits(a_min=1.0)
        with pytest.raises(DomainError):
            SimLimits(v_min=20.0, v_max=19.5)

    @pytest.mark.parametrize("name, bound", [
        ("a_min", -2.0 ** 53), ("a_max", 2.0 ** 53), ("v_max", 2.0 ** 53)])
    def test_values_at_the_bound_kept_and_the_next_double_rejected(self, name, bound):
        limits = SimLimits(**{name: bound})
        simulate_all(SHUTTLE_IDM, [constant_leader_segment(10.0, 20, 50.0)], limits)
        beyond = float(np.nextafter(bound, math.copysign(math.inf, bound)))
        with pytest.raises(DomainError) as exc:
            SimLimits(**{name: beyond})
        assert str(exc.value) == (f"limits {name}: {beyond!r} "
                                  f"must be finite and within [-2^53, 2^53]")

    def test_defaults(self):
        limits = SimLimits()
        assert limits.a_min == -26.0
        assert limits.a_max == 10.0
        assert limits.v_max == 19.5
        assert limits.v_min == 0.0


def block_fixture(dt):
    """At least BATCH_MIN_SEGMENTS short segments of ragged length.

    Short, so that last-bit differences of numpy's power and tanh cannot
    grow; three lanes are a hard stop, where tailgating models collide.
    At dt 0.5 one lane on a 0.5-s grid takes one sub-step per interval
    while the others take two.
    """
    segments = short_trip_segments(SHUTTLE_IDM, n_trips=26, trip_seconds=10)
    segments += short_trip_segments(SHUTTLE_IDM, n_trips=4, trip_seconds=17)
    segments += [hard_stop_segment(initial_speed=18.0, initial_spacing=50.0,
                                   duration_s=20)] * 3
    if dt == 0.5:
        segments.append(constant_leader_segment(10.0, 12, 60.0, dt=0.5))
    return segments


class TestBlockPath:
    @pytest.mark.parametrize("dt", [1.0, 0.5])
    @pytest.mark.parametrize("params", [
        SHUTTLE_IDM, TAILGATING_IDM, default_params("blend"),
        BlendParams(a=2.76, delta=4, v0=20.0, s0=1.0, T=0.1, b=0.5, c=0.99),
        SHUTTLE_ACC, SLUGGISH_ACC,
    ], ids=["idm", "idm-tailgating", "blend", "blend-cah", "linear_acc", "linear_acc-sluggish"])
    def test_matches_scalar_per_segment(self, params, dt):
        segments = block_fixture(dt)
        assert len(segments) >= BATCH_MIN_SEGMENTS
        limits = SimLimits()
        # the block itself runs; a numpy fault would hand over to the scalar loop
        assert SegmentSet(segments, limits, dt)._run_block(*table_of([params])) is not None
        results = simulate_all(params, segments, limits, dt)
        assert len(results) == len(segments)
        # without power or tanh both engines do the same IEEE operations
        exact = isinstance(params, AccParams) or (isinstance(params, IdmParams)
                                                  and params.delta == 1)
        for seg, res in zip(segments, results):
            ref = simulate_follower(params, seg, limits, dt)
            assert res.collisions == ref.collisions
            assert np.array_equal(res.t, ref.t)
            for name in ("spacing", "follower_pos", "follower_speed", "follower_accel"):
                if exact:
                    assert np.array_equal(getattr(res, name), getattr(ref, name)), name
                else:
                    assert getattr(res, name) == pytest.approx(
                        getattr(ref, name), rel=1e-12, abs=1e-12), name

    @pytest.mark.parametrize("params, limits", [
        (SLUGGISH_ACC, SimLimits()),
        (TAILGATING_IDM, SimLimits()),
        # weak brakes overrun the stopped leader by far more than the
        # jam distance, where only the 0.01 ft floor keeps IDM braking
        (SHUTTLE_IDM, SimLimits(a_min=-2.0)),
        (default_params("blend"), SimLimits(a_min=-2.0)),
    ], ids=["linear_acc-sluggish", "idm-tailgating", "idm-weak-brakes", "blend-weak-brakes"])
    def test_collisions_are_counted_per_lane(self, params, limits):
        segments = block_fixture(1.0)
        one_stop = simulate_follower(params, segments[-1], limits)
        assert one_stop.collisions > 0
        results = simulate_all(params, segments, limits)
        assert [r.collisions for r in results[-3:]] == [one_stop.collisions] * 3
        for res in results[-3:]:
            assert res.spacing == pytest.approx(one_stop.spacing, rel=1e-12)
            assert res.follower_pos == pytest.approx(one_stop.follower_pos, rel=1e-12)

    @pytest.mark.parametrize("params", [SHUTTLE_ACC, SHUTTLE_IDM], ids=["linear_acc", "idm"])
    def test_collision_counts_stay_in_their_segment(self, params):
        """A segment that collides in its first interval, between two that never do.

        Each engine credits every floored sample to its own segment, and no
        segment's first sample is floored. linear_acc and idm with delta 1
        take no power or tanh, so the engines agree bit for bit.
        """
        n = 12
        zeros = np.zeros(n)
        # stopped 5 ft ahead of a follower at top speed: past it within 1 s
        crash = FollowingSegment("crash", np.arange(n, dtype=float), np.full(n, 5.0), zeros,
                                 zeros, zeros, np.where(np.arange(n) == 0, 19.5, 0.0), zeros)
        steady = constant_leader_segment(10.0, n - 1, 60.0)
        scalar = simulate_all(params, [steady, crash, steady])
        assert [res.collisions for res in scalar] == [0, n - 1, 0]
        assert scalar[1].spacing[0] == 5.0 and (scalar[1].spacing[1:] == 0.01).all()
        segments = [steady, crash, steady] * 11
        assert SegmentSet(segments)._run_block(*table_of([params])) is not None
        block = simulate_all(params, segments)
        assert [res.collisions for res in block] == [0, n - 1, 0] * 11
        for res, ref in zip(block, scalar * 11):
            assert np.array_equal(res.spacing, ref.spacing)
            assert np.array_equal(res.follower_pos, ref.follower_pos)

    def test_dt_must_divide_interval(self):
        segments = block_fixture(1.0)
        with pytest.raises(ConfigError) as scalar:
            simulate_follower(SHUTTLE_IDM, segments[0], dt=0.3)
        with pytest.raises(ConfigError) as block:
            simulate_all(SHUTTLE_IDM, segments, dt=0.3)
        assert str(block.value) == str(scalar.value)
        with pytest.raises(ConfigError):
            simulate_all(SHUTTLE_IDM, segments, dt=0.0)

    def test_overflowing_block_runs_the_scalar_loop(self):
        # the squared gap ratio overflows: plain floats give inf, which the
        # acceleration clamp absorbs, while numpy raises
        params = IdmParams(a=1.0, delta=1, v0=20.0, s0=1e160, T=1.0, b=1.0)
        segments = block_fixture(1.0)
        with pytest.raises(FloatingPointError):
            SegmentSet(segments)._run_block(*table_of([params]))
        for seg, res in zip(segments, simulate_all(params, segments)):
            ref = simulate_follower(params, seg)
            assert np.array_equal(res.spacing, ref.spacing)
            assert np.array_equal(res.follower_speed, ref.follower_speed)

    @pytest.mark.parametrize("dt", [1.0, 0.1])
    def test_rows_go_to_the_block_at_most_a_cap_at_a_time(self, dt, monkeypatch):
        segments = block_fixture(dt)
        kind, table = table_of([IdmParams(a=2.76, delta=1, v0=20.0, s0=s0, T=2.79, b=24.58)
                                for s0 in np.linspace(2.0, 12.0, 10)])
        expected = SegmentSet(segments, dt=dt).pooled_spacing(kind, table)
        capped = SegmentSet(segments, dt=dt)
        # the cap counts the values of the (records, rows, lanes) position array alone
        assert capped._rows_per_run == (3 << 20) // (len(capped._records) * len(segments))
        capped._rows_per_run = 4
        widths = []
        run_block = capped._run_block
        monkeypatch.setattr(capped, "_run_block", lambda kind, table, **kwargs: widths.append(
            len(table)) or run_block(kind, table, **kwargs))
        got = capped.pooled_spacing(kind, table)
        assert widths == [4, 4, 2]
        assert got[0].shape == (10, capped.samples)
        assert all(np.array_equal(a, b) for a, b in zip(got, expected))


def gap_trips():
    """60 twelve-sample trips; in the eighth, a 2,000-s interval takes the place of a 1-s one."""
    segments = short_trip_segments(SHUTTLE_IDM, n_trips=60, trip_seconds=11)
    t = segments[7].t.copy()
    t[6:] += 1999.0
    segments[7] = dataclasses.replace(segments[7], t=t)
    return segments


@pytest.mark.parametrize("dt", [1.0, 0.5])
def test_long_gap_packs_the_block_by_real_sub_steps(dt):
    """The block's arrays hold the longest lane's sub-steps, not every lane padded to the gap."""
    segments = gap_trips()
    segment_set = SegmentSet(segments, dt=dt)
    assert [col.shape for col in segment_set.schedule] == [(round(2010 / dt), 60)] * 4
    # linear_acc and idm with delta 1 take no power or tanh: bit for bit on both engines
    for params in (SHUTTLE_IDM, SHUTTLE_ACC):
        assert segment_set._run_block(*table_of([params])) is not None
        for res, seg in zip(segment_set.results(params), segments):
            alone = simulate_follower(params, seg, dt=dt)
            assert res.collisions == alone.collisions
            for name in ("t", "spacing", "follower_pos", "follower_speed", "follower_accel"):
                assert ([value.hex() for value in getattr(res, name).tolist()]
                        == [value.hex() for value in getattr(alone, name).tolist()]), name


@pytest.mark.parametrize("n_trips", [2, 32], ids=["scalar-loop", "block"])
def test_non_finite_run_faults(n_trips):
    # the IDM term is -inf and (1 - c) * -inf is NaN, which the clamps let through
    nan_blend = BlendParams(a=1.0, delta=4, v0=20.0, s0=1e200, T=1.0, b=3.0, c=1.0)
    segments = short_trip_segments(SHUTTLE_IDM, n_trips=n_trips, trip_seconds=12)
    segment_set = SegmentSet(segments)
    (_, good), fault = segment_set.pooled_spacing(*table_of([nan_blend,
                                                             default_params("blend")]))
    assert fault.tolist() == [True, False]
    assert np.all(np.isfinite(good))
    with pytest.raises(DomainError, match=f"^segment {segments[0].id}: "):
        segment_set.results(nan_blend)
    with pytest.raises(DomainError, match=f"^segment {segments[0].id}: "):
        calib.gof_report(nan_blend, segments)


# The scalar step loop as it was before the kernels were written inline,
# and before it left the spacing to SegmentSet._spacing: one accel function
# call per sub-step, built on the raw kernels of models.py, with the
# spacing floored and collisions counted at each observation. The step loops
# of sim (_acc_step_loop, _idm_step_loop) plus the pooled epilogue must give
# its outcome bit for bit.

def reference_accel_fn(model):
    if isinstance(model, IdmParams):
        two = 2.0 * math.sqrt(model.a * model.b)
        return lambda s, v, v_l, a_l, x_l, x_f: idm_accel_raw(
            model.a, model.delta, model.v0, model.s0, model.T, two, s, v, v - v_l)
    if isinstance(model, BlendParams):
        two = 2.0 * math.sqrt(model.a * model.b)
        return lambda s, v, v_l, a_l, x_l, x_f: blend_accel_raw(
            model.a, model.delta, model.v0, model.s0, model.T, model.b, two, model.c,
            s, v, v_l, a_l)
    return lambda s, v, v_l, a_l, x_l, x_f: linear_acc_accel_raw(
        model.k1, model.k2, model.t_des, model.d0, x_l, x_f, v, v_l)


def reference_step_loop(accel_fn, lists, limits):
    x, v, xl0, *schedule = lists
    v = min(max(v, limits.v_min), limits.v_max)
    pos, speed, spacing, collisions = [x], [v], [xl0 - x], 0
    for xl, vl, al, h, end in zip(*schedule):
        s = xl - x
        if s <= 0.0:
            s = sim.SPACING_FLOOR_FT
        a_cmd = min(max(accel_fn(s, v, vl, al, xl, x), limits.a_min), limits.a_max)
        v_new = min(max(v + a_cmd * h, limits.v_min), limits.v_max)
        x += 0.5 * (v + v_new) * h
        v = v_new
        if end is not None:
            pos.append(x)
            speed.append(v)
            raw = end - x
            if raw <= 0.0:
                collisions += 1
                raw = sim.SPACING_FLOOR_FT
            spacing.append(raw)
    if not (math.isfinite(x) and math.isfinite(v)):
        raise ArithmeticError("non-finite end state")
    return pos, speed, spacing, collisions


def loop_outcome(run):
    """float.hex of every output and the collision counts, or the exception type."""
    try:
        pos, speed, spacing, collisions = run()
    except ArithmeticError as exc:
        return type(exc)
    return [[value.hex() for value in column] for column in (pos, speed, spacing)], collisions


def reference_lists(segment_set):
    """reference_step_loop's inputs per segment of a set on the scalar loop.

    These are the loop's own lists, with the leader's first position and,
    per sub-step, the leader position at the observation it completes
    (None inside an interval), counted from each interval's length and dt.
    """
    out = []
    for seg, (x, v, *schedule) in zip(segment_set.segments, segment_set._scalar_lists()):
        end = []
        for i, interval in enumerate(np.diff(seg.t).tolist()):
            end += [None] * (round(interval / segment_set.dt) - 1) + [float(seg.leader_pos[i + 1])]
        assert len(end) == len(schedule[0])
        out.append((x, v, float(seg.leader_pos[0]), *schedule, end))
    return out


def assert_loop_matches_reference(model, segment_set, lists):
    """The loop and the pooled epilogue over a set give the reference run on `lists`, chained."""
    kind, row = params_row(model)

    def run():
        runs = list(segment_set._scalar_runs(kind, row, states=True))
        pos, speed = (segment_set._observations(run[j] for run in runs) for j in range(2))
        with np.errstate(over="ignore"):  # as in pooled_run
            spacing, collisions = segment_set._spacing(pos, counts=True)
        return pos.tolist(), speed.tolist(), spacing.tolist(), collisions.tolist()

    def reference():
        runs = [reference_step_loop(reference_accel_fn(model), one, segment_set.limits)
                for one in lists]
        return (*(list(chain.from_iterable(run[j] for run in runs)) for j in range(3)),
                [run[3] for run in runs])

    assert loop_outcome(run) == loop_outcome(reference)


def oracle_set(dt):
    """A scalar-loop set of a smooth response, a hard stop and, at dt 0.5, a 0.5-s grid."""
    segments = [model_response_segments(default_params("blend"), n_segments=1, seconds=60)[0],
                hard_stop_segment(initial_speed=18.0, initial_spacing=50.0, duration_s=20)]
    if dt == 0.5:
        segments.append(constant_leader_segment(10.0, 12, 60.0, dt=0.5))
    return SegmentSet(segments, dt=dt)


ORACLE_SETS = {dt: oracle_set(dt) for dt in (1.0, 0.5)}
ORACLE_LISTS = {dt: reference_lists(segment_set) for dt, segment_set in ORACLE_SETS.items()}


def oracle_schedule(seg, dt):
    """x0, v0 and per sub-step the leader's position, speed and accel and h, from `seg` alone.

    Each interval takes round(interval / dt) sub-steps; sub-step k of m
    starts at the interval's first sample plus k / m of its change.
    """
    columns = [float(seg.follower_pos[0]), float(seg.follower_speed[0]), [], [], [], []]
    leader = [col.tolist() for col in (seg.leader_pos, seg.leader_speed, seg.leader_accel)]
    t = seg.t.tolist()
    for i in range(1, len(t)):
        interval = t[i] - t[i - 1]
        m = round(interval / dt)
        for k in range(m):
            for out, col in zip(columns[2:], leader):
                out.append(col[i - 1] if k == 0 else col[i - 1] + (col[i] - col[i - 1]) * (k / m))
            columns[5].append(interval / m)
    return columns


def hex_columns(columns):
    return [value.hex() if isinstance(value, float) else [x.hex() for x in value]
            for value in columns]


@pytest.mark.parametrize("dt", [1.0, 0.5, 0.1])
def test_scalar_lists_match_the_schedule_oracle(dt):
    # at dt 0.5 the last lane lies on a 0.5-s grid: one sub-step per interval;
    # at dt 0.1 an interval's ten sub-steps take fractions k / 10 that no
    # power of two gives exactly
    segment_set = ORACLE_SETS.get(dt) or SegmentSet(ORACLE_SETS[1.0].segments, dt=dt)
    assert len(segment_set.segments) == (3 if dt == 0.5 else 2)
    for seg, lists in zip(segment_set.segments, segment_set._scalar_lists()):
        assert hex_columns(lists) == hex_columns(oracle_schedule(seg, dt))


def in_bounds_genes(kind):
    return st.tuples(*[st.integers(int(lo), int(hi)) if integer else st.floats(lo, hi)
                       for _, lo, hi, integer in GENE_BOUNDS[kind]])


# rows that fault or overflow in the scalar loop (those of
# test_faulting_rows_score_fault_alone), and blend rows whose IDM term is
# -inf, with c = 1 turning the blend NaN
EDGE_ROWS = {
    "idm": [[2.0, 2.0, 1e-300, 8.0, 3.0, 20.0], [1.0, 1.0, 20.0, 1e160, 1.0, 1.0]],
    "blend": [[2.0, 2.0, 1e-300, 8.0, 3.0, 20.0, 0.5], [1.0, 1.0, 20.0, 1e160, 1.0, 1.0, 0.5],
              [1.0, 4.0, 20.0, 1e200, 1.0, 3.0, 1.0], [1.0, 4.0, 20.0, 1e200, 1.0, 3.0, 0.5]],
    "linear_acc": [[0.1, 0.001, 0.001], [9.0, 1.0, 1.0]],
}


# NaN, signed zeros, infinities, a subnormal, huge and ordinary values
EDGE_VALUES = [math.nan, 0.0, -0.0, math.inf, -math.inf, 5e-324, 1e200, -1e200, 12.0, -3.0]
any_value = st.one_of(st.sampled_from(EDGE_VALUES), st.floats())


class TestStepLoopMatchesReference:
    @pytest.mark.parametrize("dt", [1.0, 0.5])
    @pytest.mark.parametrize("kind", ["idm", "blend", "linear_acc"])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_in_bounds_rows(self, kind, dt, data):
        model = genes_to_params(kind, data.draw(in_bounds_genes(kind)))
        assert_loop_matches_reference(model, ORACLE_SETS[dt], ORACLE_LISTS[dt])

    @pytest.mark.parametrize("dt", [1.0, 0.5])
    @pytest.mark.parametrize("kind", ["idm", "blend", "linear_acc"])
    def test_edge_rows(self, kind, dt):
        for genes in EDGE_ROWS[kind]:
            model = genes_to_params(kind, genes)
            assert_loop_matches_reference(model, ORACLE_SETS[dt], ORACLE_LISTS[dt])
            # a row that faults on a later segment only: each segment alone
            for seg, lists in zip(ORACLE_SETS[dt].segments, ORACLE_LISTS[dt]):
                assert_loop_matches_reference(model, SegmentSet([seg], dt=dt), [lists])

    @pytest.mark.parametrize("kind", ["idm", "blend", "linear_acc"])
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_any_leader_values(self, kind, data):
        """Leader columns of any float: a NaN or infinite a_c, a NaN a_i and more.

        A leader acceleration of -inf or NaN makes the CAH term NaN, and a
        NaN leader position the IDM term.
        """
        model = genes_to_params(kind, data.draw(in_bounds_genes(kind)))
        steps = data.draw(st.integers(1, 6))
        column = st.lists(any_value, min_size=steps, max_size=steps)
        x, v, xl0 = data.draw(st.tuples(any_value, any_value, any_value))
        xl, vl, al = data.draw(column), data.draw(column), data.draw(column)
        h = data.draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=steps,
                               max_size=steps))
        end = data.draw(st.lists(st.one_of(st.none(), st.floats()), min_size=steps,
                                 max_size=steps))
        # a one-segment set whose observations are the start and the sub-steps with an end
        segment_set = copy.copy(ORACLE_SETS[1.0])
        segment_set._lists = [(x, v, xl, vl, al, h)]
        segment_set._observed = np.flatnonzero([True] + [e is not None for e in end])
        segment_set._leader_pos = np.array([xl0] + [e for e in end if e is not None])
        segment_set._starts = np.array([0])
        assert_loop_matches_reference(model, segment_set, [(x, v, xl0, xl, vl, al, h, end)])


def observed_positions(segment_set, model, states):
    """float.hex of the scalar loop's observed positions, or the exception type where it faults."""
    kind, row = params_row(model)
    try:
        runs = list(segment_set._scalar_runs(kind, row, states))
    except ArithmeticError as exc:
        return type(exc)
    assert all((speed is None) is not states for _, speed in runs)
    return [value.hex() for value in segment_set._observations(run[0] for run in runs)]


class TestGaRowMatchesStatesRun:
    """A GA row (states=False) steps the positions of the run that records speed too."""

    @pytest.mark.parametrize("dt", [1.0, 0.5])
    @pytest.mark.parametrize("kind", ["idm", "blend", "linear_acc"])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_in_bounds_rows(self, kind, dt, data):
        model = genes_to_params(kind, data.draw(in_bounds_genes(kind)))
        segment_set = ORACLE_SETS[dt]
        assert (observed_positions(segment_set, model, False)
                == observed_positions(segment_set, model, True))

    @pytest.mark.parametrize("dt", [1.0, 0.5])
    @pytest.mark.parametrize("kind", ["idm", "blend", "linear_acc"])
    def test_edge_rows(self, kind, dt):
        # EDGE_ROWS and more rows that fault: those of FITNESS_EDGE_GENES in the domain
        models = []
        for genes in FITNESS_EDGE_GENES[kind]:
            try:
                models.append(genes_to_params(kind, genes))
            except DomainError:
                pass
        faults = 0
        for model in models:
            for segment_set in [ORACLE_SETS[dt]] + [SegmentSet([seg], dt=dt)
                                                   for seg in ORACLE_SETS[dt].segments]:
                ga_row = observed_positions(segment_set, model, False)
                assert ga_row == observed_positions(segment_set, model, True)
                faults += not isinstance(ga_row, list)
        assert faults > 0


# The block stepper as it was before it wrote its kernels inline: one
# accel function call per sub-step, built on these array kernels.
# SegmentSet._run_block must give its outcome bit for bit.

def idm_accel_array(a, delta, v0, s0, T, two_sqrt_ab, s, v, dv):
    s_star = s0 + np.maximum(0.0, v * T + v * dv / two_sqrt_ab)
    ratio = s_star / s
    return a * (1.0 - (v / v0) ** delta - ratio * ratio)


def cah_accel_array(a, s, v, v_l, a_l):
    a_tilde = np.minimum(a_l, a)
    denom = v_l * v_l - 2.0 * s * a_tilde
    bounded = (v_l * (v - v_l) <= -2.0 * s * a_tilde) & (denom > 0.0)
    dv = v - v_l
    unbounded = np.where(dv >= 0.0, a_tilde - dv * dv / (2.0 * s), a_tilde)
    return np.where(bounded, v * v * a_tilde / np.where(bounded, denom, 1.0), unbounded)


def blend_accel_array(a, delta, v0, s0, T, b, two_sqrt_ab, c, s, v, v_l, a_l):
    a_i = idm_accel_array(a, delta, v0, s0, T, two_sqrt_ab, s, v, v - v_l)
    a_c = cah_accel_array(a, s, v, v_l, a_l)
    blended = (1.0 - c) * a_i + c * (a_c + b * np.tanh((a_i - a_c) / b))
    return np.where(a_i >= a_c, a_i, blended)


def reference_block_accel_fn(models, lanes):
    def columns(objs, *names):
        return [np.repeat([float(getattr(o, name)) for o in objs], lanes) for name in names]

    if isinstance(models[0], IdmParams):
        a, delta, v0, s0, T, b = columns(models, "a", "delta", "v0", "s0", "T", "b")
        two = 2.0 * np.sqrt(a * b)
        return lambda s, v, v_l, a_l, x_l, x_f: idm_accel_array(
            a, delta, v0, s0, T, two, s, v, v - v_l)
    if isinstance(models[0], BlendParams):
        a, delta, v0, s0, T, b, c = columns(models, "a", "delta", "v0", "s0", "T", "b", "c")
        two = 2.0 * np.sqrt(a * b)
        return lambda s, v, v_l, a_l, x_l, x_f: blend_accel_array(
            a, delta, v0, s0, T, b, two, c, s, v, v_l, a_l)
    k1, k2, t_des, d0 = columns(models, "k1", "k2", "t_des", "d0")
    return lambda s, v, v_l, a_l, x_l, x_f: linear_acc_accel_raw(
        k1, k2, t_des, d0, x_l, x_f, v, v_l)


def reference_run_block(segment_set, models):
    """(pos, speed, spacing, collisions) of each row, pooled as _run_block returns them.

    Steps the (step, lane) schedule one step at a time, recording every
    step, and observes each lane after the sub-steps its own intervals
    take, counted from the segment's times and dt.
    """
    steps, lanes = segment_set.schedule[3].shape
    rows = len(models)
    accel_fn = reference_block_accel_fn(models, lanes)
    limits = segment_set.limits
    # rows side by side in flat lanes, the schedule tiled once per row
    xl, vl, al, h = (np.tile(col, rows) for col in segment_set.schedule)
    pos, speed = (np.empty((steps + 1, rows * lanes)) for _ in range(2))
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        x = np.tile(segment_set.x0, rows)
        v = np.tile(np.minimum(np.maximum(segment_set.v0, limits.v_min), limits.v_max), rows)
        pos[0], speed[0] = x, v
        for j in range(steps):
            s = xl[j] - x
            s[s <= 0.0] = sim.SPACING_FLOOR_FT
            a_cmd = np.minimum(np.maximum(accel_fn(s, v, vl[j], al[j], xl[j], x),
                                          limits.a_min), limits.a_max)
            v_new = np.minimum(np.maximum(v + a_cmd * h[j], limits.v_min), limits.v_max)
            x = x + 0.5 * (v + v_new) * h[j]
            v = v_new
            pos[j + 1], speed[j + 1] = x, v
        pos, speed = (col.reshape(steps + 1, rows, lanes) for col in (pos, speed))
        columns, collisions = [], []
        for lane, seg in enumerate(segment_set.segments):
            # the lane's start, then the step that ends each of its intervals
            at = np.cumsum([0] + [round(i / segment_set.dt) for i in np.diff(seg.t).tolist()])
            spacing = seg.leader_pos[:, None] - pos[at, :, lane]
            hit = spacing[1:] <= 0.0
            collisions.append(hit.sum(axis=0))
            spacing[1:][hit] = sim.SPACING_FLOOR_FT
            columns.append((pos[at, :, lane], speed[at, :, lane], spacing))
    return [np.concatenate(col).T for col in zip(*columns)] + [np.stack(collisions, axis=1)]


def block_outcome(run):
    """The bytes of every output array, or FloatingPointError."""
    try:
        return [col.tobytes() for col in run()]
    except FloatingPointError:
        return FloatingPointError


BLOCK_SETS = {dt: SegmentSet(block_fixture(dt), dt=dt) for dt in (1.0, 0.5)}


def assert_block_matches_reference(models, dt, segment_set=None):
    segment_set = segment_set or BLOCK_SETS[dt]

    got = block_outcome(lambda: segment_set._run_block(*table_of(models)))
    assert got == block_outcome(lambda: reference_run_block(segment_set, models))


class TestBlockMatchesReference:
    @pytest.mark.parametrize("dt", [1.0, 0.5])
    @pytest.mark.parametrize("kind", ["idm", "blend", "linear_acc"])
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_in_bounds_rows(self, kind, dt, data):
        rows = data.draw(st.lists(in_bounds_genes(kind), min_size=1, max_size=3))
        assert_block_matches_reference([genes_to_params(kind, genes) for genes in rows], dt)

    @pytest.mark.parametrize("dt", [1.0, 0.5])
    @pytest.mark.parametrize("kind", ["idm", "blend", "linear_acc"])
    def test_edge_rows(self, kind, dt):
        models = [genes_to_params(kind, genes) for genes in EDGE_ROWS[kind]]
        for model in models:
            assert_block_matches_reference([model], dt)
        assert_block_matches_reference(models, dt)
        assert_block_matches_reference([default_params(kind)] + models, dt)

    @pytest.mark.parametrize("kind", ["idm", "blend", "linear_acc"])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_small_state_and_leader_values(self, kind, data):
        """Start states and leader columns of few small values, signed zeros included.

        They make ties likely: a spacing of exactly 0 on the floor's edge,
        and CAH's bounded test taken with equality.
        """
        rows = data.draw(st.lists(in_bounds_genes(kind), min_size=1, max_size=3))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        values = np.array([0.0, -0.0, 0.5, 1.0, 2.0, 3.0, -1.0, -2.0])
        segment_set = copy.copy(BLOCK_SETS[1.0])
        segment_set.x0, segment_set.v0 = rng.choice(values, (2, len(segment_set.x0)))
        *leader, h = segment_set.schedule
        segment_set.schedule = (*(rng.choice(values, col.shape) for col in leader), h)
        assert_block_matches_reference([genes_to_params(kind, genes) for genes in rows], 1.0,
                                       segment_set)


# per kind, a row whose block overflows where the scalar loop clamps the
# acceleration, and for idm and blend one that faults on both engines
BLOCK_FAULT_ROWS = {
    "idm": [genes_to_params("idm", genes) for genes in EDGE_ROWS["idm"]],
    "blend": [genes_to_params("blend", genes) for genes in EDGE_ROWS["blend"]],
    "linear_acc": [AccParams(k1=1e308, k2=0.43, t_des=4.96, d0=15.0)],
}


def results_spacing(segment_set, model):
    """The bytes of results()' spacing, segments concatenated; None where it faults."""
    try:
        return np.concatenate([res.spacing for res in segment_set.results(model)]).tobytes()
    except DomainError:
        return None


@pytest.mark.parametrize("dt", [1.0, 0.5])
@pytest.mark.parametrize("kind", ["idm", "blend", "linear_acc"])
def test_spacing_only_block_matches_full_block(kind, dt):
    """pooled_spacing runs the block without pos and speed; results() keeps all three."""
    rng = np.random.default_rng(0)
    rows = [genes_to_params(kind, [rng.integers(lo, hi + 1) if integer else rng.uniform(lo, hi)
                                   for _, lo, hi, integer in GENE_BOUNDS[kind]])
            for _ in range(40)]
    segment_set = BLOCK_SETS[dt]
    assert segment_set._run_block(*table_of(rows)) is not None
    # no speeds or collision counts for GA rows
    _, speed, _, collisions = segment_set._run_block(*table_of(rows), states=False)
    assert speed is None and collisions is None
    faulting = rows[:2] + BLOCK_FAULT_ROWS[kind]
    # the block faults, so pooled_spacing retries it row by row
    with pytest.raises(FloatingPointError):
        segment_set._run_block(*table_of(faulting))
    for models in ([default_params(kind)], rows[:3], rows, faulting):
        spacing, fault = segment_set.pooled_spacing(*table_of(models))
        got = [None if bad else row.tobytes() for row, bad in zip(spacing, fault)]
        assert got == [results_spacing(segment_set, model) for model in models]


# per kind, rows outside the model's domain, rows that fault on the
# block or on both engines, and a blend row that turns NaN
FITNESS_EDGE_GENES = {
    "idm": EDGE_ROWS["idm"] + [[-1.0, 1.0, 19.0, 8.0, 3.0, 20.0], [2.0, 0.4, 19.0, 8.0, 3.0, 20.0]],
    "blend": EDGE_ROWS["blend"] + [[2.0, 2.0, 19.0, 8.0, 3.0, 20.0, 1.5]],
    "linear_acc": EDGE_ROWS["linear_acc"] + [[4.96, 1e308, 0.43], [4.96, 1e308, 1e308],
                                             [4.96, -0.01, 0.43]],
}


@pytest.mark.parametrize("fixture", ["block", "three"])
@pytest.mark.parametrize("dt", [1.0, 0.5])
@pytest.mark.parametrize("kind", ["idm", "blend", "linear_acc"])
def test_pooled_fitness_rows_equal_each_row_alone(kind, dt, fixture):
    """A block of gene rows scores each row as calib.fitness scores it alone, bit for bit.

    Each row is also gof() of its results() spacing, and a row outside
    the domain or whose simulation faults scores FAULT_FITNESS.
    """
    segments = block_fixture(dt) if fixture == "block" else three_segment_fixture()
    rng = np.random.default_rng(7)
    bounds = np.array([(lo, hi) for _, lo, hi, _ in GENE_BOUNDS[kind]])
    random_rows = rng.uniform(bounds[:, 0], bounds[:, 1], size=(10, len(bounds)))
    genes = np.vstack([random_rows[:5], FITNESS_EDGE_GENES[kind], random_rows[5:]])
    pooled = calib._make_fitness(kind, segments, None, dt)(genes)
    alone = np.array([calib.fitness(kind, row, segments, dt=dt) for row in genes])
    assert pooled.tobytes() == alone.tobytes()
    assert (pooled == calib.FAULT_FITNESS).any() and (pooled < calib.FAULT_FITNESS).sum() >= 10
    segment_set = SegmentSet(segments, dt=dt)
    obs = np.concatenate([seg.spacing for seg in segments])
    for row, value in zip(genes, pooled):
        try:
            spacing = np.concatenate([res.spacing
                                      for res in segment_set.results(genes_to_params(kind, row))])
        except DomainError:
            assert value == calib.FAULT_FITNESS
            continue
        nrmse = calib.gof(spacing, obs)[2]
        assert value == (nrmse if math.isfinite(nrmse) else calib.FAULT_FITNESS)


def _digest(results) -> str:
    h = hashlib.sha256()
    for res in results:
        for name in ("spacing", "follower_pos", "follower_speed"):
            h.update(getattr(res, name).astype("<f8").tobytes())
    return h.hexdigest()


def three_segment_fixture():
    """Two smooth 60-s responses and a hard stop: under BATCH_MIN_SEGMENTS."""
    return (idm_response_segments(SHUTTLE_IDM, n_segments=2, seconds=60)
            + [hard_stop_segment(initial_speed=18.0, initial_spacing=50.0)])


# SHA-256 of simulate_all's spacing, follower_pos and follower_speed bytes,
# recorded before the two engines shared one sub-step schedule. The idm
# (delta 1) and linear_acc runs use only IEEE-exact arithmetic; the blend
# runs also take numpy's power and tanh on the block path, so their
# digests hold for the x86-64 AVX-512 build of numpy 2.4 they came from.
GOLDEN_DIGESTS = {
    ("three", "idm", 1.0):
        "c989ff107cb0bc95de9157c7ea9b5b6ce7a7e753cd7d1391d574b17cae4043b6",
    ("three", "idm", 0.5):
        "97c960fb69c315e423ab3d1af5e341eb8c091b4a932c92ce90349d375059afa2",
    ("three", "blend", 1.0):
        "5419abe0cd842c4cdb28088e8afb92b65970c2984128e2ca88ef8b827f2a234d",
    ("three", "blend", 0.5):
        "df8ef6cdd8e0f547dfb30e72e6a718eb3cff1e4a8c236e634644351b2e3dddae",
    ("three", "linear_acc", 1.0):
        "fc5a61eb138fd862b11c47c748e648dd8be690e0b4ea082a97a6b7c18196c71f",
    ("three", "linear_acc", 0.5):
        "4bdc3c2e5f940de9688b365df3fb334a835177955a5237cae61b23144300cd08",
    ("block", "idm", 1.0):
        "d11b759b446a40a9e2b6b12df0fb8dfa1b908dd169ec51574e105d1d53664ab4",
    ("block", "idm", 0.5):
        "0b3a330ae71112b1d6d222a40cf01159a09a091855749451dec6f961dd46d89c",
    ("block", "blend", 1.0):
        "b46cb9c1fe130f1246851a2dc66d9593e57ed0112c24b33032425c8d21942d27",
    ("block", "blend", 0.5):
        "e9f281511eb98afe83e929d0046d79b08bd7027272fe64d288c7967350f1727b",
    ("block", "linear_acc", 1.0):
        "cf88fb7158f910983df1842ec87a9b5fc3776a46da61a6d4e777061bb566fda5",
    ("block", "linear_acc", 0.5):
        "c028d4dabf84d3b8e5a72cea0e5a1172502bdb8e29e8452668eba6dba0c9cbeb",
}


@pytest.mark.parametrize("fixture, kind, dt", sorted(GOLDEN_DIGESTS))
def test_outputs_match_golden_digests(fixture, kind, dt):
    segments = three_segment_fixture() if fixture == "three" else block_fixture(dt)
    results = simulate_all(default_params(kind), segments, SimLimits(), dt)
    assert _digest(results) == GOLDEN_DIGESTS[fixture, kind, dt]


SRC = Path(__file__).resolve().parents[1] / "src" / "cfcalib"
# the engines, their path rule and their fault handling belong to sim.SegmentSet
ENGINE_NAMES = {"_step_loop", "_acc_step_loop", "_idm_step_loop", "_accel_fn", "SegmentBlock",
                "array_accel_fn", "BATCH_MIN_SEGMENTS"}


def test_engine_internals_are_named_only_in_sim():
    problems = []
    modules = sorted(SRC.glob("*.py"))
    assert any(p.name == "sim.py" for p in modules)
    for module in modules:
        if module.name == "sim.py":
            continue
        for node in ast.walk(ast.parse(module.read_text(), filename=str(module))):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.alias):
                names = [node.name, node.asname]
            elif isinstance(node, ast.Constant):  # getattr(sim, "...")
                names = [node.value]
            else:
                continue
            problems += [f"{module.name}:{node.lineno}: {name}"
                         for name in names if name in ENGINE_NAMES]
    assert problems == []
