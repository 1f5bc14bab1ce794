"""Forward simulation of a follower along a recorded leader trajectory.

The follower starts from the segment's first observed sample and is
integrated ballistically (constant acceleration per step) with zero
reaction time. Commanded acceleration is clamped first, then speed; the
effective acceleration is recomputed after clamping so positions stay
consistent. Collisions never abort a run: the spacing fed to the model
and recorded for error accounting is floored at 0.01 ft and each
colliding output sample counts as one event.

Two engines share these rules and step one sub-step schedule, which
SegmentSet precomputes: each observation interval cut into dt sub-steps,
the leader interpolated linearly to the start of each. Both read a
parameter set as one row of a parameter table (models.TABLE_FIELDS) and
write the kernels of every model kind inline; the raw kernels in
models.py are the reference they are tested against. The scalar loop
steps one segment at a time in plain Python floats, so that a sub-step
calls no kernel. It comes as two loops, which SegmentSet._scalar_runs
picks by kind once per run, so that no sub-step tests the kind:
_acc_step_loop for linear_acc, which reads neither the leader accel nor
a floored spacing, and _idm_step_loop for idm and blend, which share the
IDM kernel, the CAH blend added behind a flag. The block stepper,
SegmentSet._run_block, advances a (table rows x segments) state per step
in numpy, over the schedule packed per segment. Both record the follower
state only: positions, and speeds unless for a GA generation. The
engines differ only in power and tanh. SegmentSet alone picks the engine: the block
when the set has BATCH_MIN_SEGMENTS segments or more, never depending on
how many rows are stepped together. A block that overflows or turns NaN
is stepped again row by row, and a row that still does runs the scalar
loop, so every row gets exactly what it gets stepped alone.

Results come pooled, the segments concatenated in order, and
SegmentSet._spacing takes the spacing, its floor and the collision
counts from the pooled positions in one numpy pass: a GA generation's
spacing as one (rows, samples) array, and one parameter set's positions,
speeds and spacing, which the fit report reads as they are and results()
splits per segment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .cleaning import FollowingSegment
from .errors import ConfigError, DomainError
from .ingest import MAX_MAGNITUDE, RANGE_RULE
from .jsonio import read_json_object, require_keys, require_numbers
from .models import ModelParams, params_row

SPACING_FLOOR_FT = 0.01

# Segment sets at least this large take the block stepper. Below it the
# fixed cost of each numpy call outweighs the lanes it covers: stepping one
# parameter set over 31-sample segments, the crossovers sit near 33
# segments for idm, 37 for linear_acc and 54 for blend (README, "Simulation
# paths"), but moving the threshold would move sets onto numpy's power and
# tanh and change their results in the last bits. The path must not depend
# on the number of parameter sets either, or a fitness the GA reports could
# not be reproduced by calib.fitness if a wider population switched engines.
BATCH_MIN_SEGMENTS = 32

# numpy errors that make the block stepper give way to the scalar loop,
# whose plain floats handle (or fault on) these cases in their own way
_RAISE_ON_FAULT = {"over": "raise", "divide": "raise", "invalid": "raise"}

# values (24 MB of float64) in the (records x rows x segments) position
# array of one block run; a GA generation with more rows takes several runs
_BLOCK_VALUES = 3 << 20


@dataclass(frozen=True)
class SimLimits:
    """Actuation envelope applied to every simulated step (ft/s units).

    Each value must be finite and within ±2^53 (ingest.MAX_MAGNITUDE).
    """

    a_min: float = -26.0
    a_max: float = 10.0
    v_max: float = 19.5
    v_min: float = 0.0

    def __post_init__(self):
        for name in ("a_min", "a_max", "v_max", "v_min"):
            value = getattr(self, name)
            if not abs(value) <= MAX_MAGNITUDE:
                raise DomainError(f"limits {name}: {value!r} {RANGE_RULE}")
        if not self.a_min < 0.0 < self.a_max:
            raise DomainError("need a_min < 0 < a_max")
        if not 0.0 <= self.v_min < self.v_max:
            raise DomainError("need 0 <= v_min < v_max")


@dataclass
class SimResult:
    """Simulated follower series on the segment's observation timestamps."""

    t: np.ndarray
    follower_pos: np.ndarray
    follower_speed: np.ndarray
    follower_accel: np.ndarray
    spacing: np.ndarray
    collisions: int = 0

    def __len__(self) -> int:
        return len(self.t)


def simulate_follower(model: ModelParams, seg: FollowingSegment,
                      limits: SimLimits | None = None, dt: float = 1.0) -> SimResult:
    """Simulate the follower over one segment, sampled at the observation times.

    dt must divide every observation interval; sub-steps interpolate the
    leader linearly. Returns the simulated series plus a collision count.
    """
    return SegmentSet([seg], limits, dt).results(model)[0]


def _acc_step_loop(row: list, lists: tuple, limits: SimLimits, states: bool = False):
    """Step one segment's sub-steps of a linear_acc row; returns the follower's (pos, speed).

    Each list holds the start value and the value after every sub-step;
    speed is None unless `states`, as a GA row reads positions only.
    `row` is one linear_acc parameter set as Python floats: its class's
    fields in order, models.TABLE_FIELDS, the genes first (params_row);
    `lists` is one segment's start and slice of the flat schedule
    (SegmentSet._scalar_lists), whose leader accel the model never reads.
    A NaN, once in, stays in x, so a run ending non-finite raises
    ArithmeticError.

    The acceleration is linear_acc_accel_raw's IEEE operations in the same
    order, written inline: the gap error takes the unfloored spacing.
    """
    t_des, k1, k2, d0 = row
    x, v, xl, vl, _, h = lists
    a_min, a_max = limits.a_min, limits.a_max
    v_min, v_max = limits.v_min, limits.v_max
    v = min(max(v, v_min), v_max)

    pos = [x]
    speed = [v]
    keep_x = pos.append
    keep_v = speed.append

    for xl_j, vl_j, h_j in zip(xl, vl, h):
        a_cmd = k1 * (xl_j - x - d0 - t_des * v) + k2 * (vl_j - v)
        if a_cmd < a_min:
            a_cmd = a_min
        elif a_cmd > a_max:
            a_cmd = a_max
        v_new = v + a_cmd * h_j
        if v_new < v_min:
            v_new = v_min
        elif v_new > v_max:
            v_new = v_max
        x += 0.5 * (v + v_new) * h_j
        v = v_new
        keep_x(x)
        if states:
            keep_v(v)

    if not (math.isfinite(x) and math.isfinite(v)):
        raise ArithmeticError(f"the follower state turns non-finite (x={x}, v={v})")
    return pos, speed if states else None


def _idm_step_loop(blend: bool, row: list, lists: tuple, limits: SimLimits,
                   states: bool = False):
    """Step one segment's sub-steps of an idm or blend row; returns the follower's (pos, speed).

    As _acc_step_loop, for IDM with, if `blend`, the CAH blend on top;
    `row` is an idm or blend parameter set, and the CAH term reads the
    leader accel.

    The acceleration is computed inline, so a sub-step makes no Python
    call but the blend's tanh: the IEEE operations of
    models.idm_accel_raw or blend_accel_raw in the same order, which give
    the same bits. The IDM exponent is a float here: a float raised to an
    int converts the int to a float first, so the power is the same.
    """
    a, delta, v0, s0, T, b = row[:6]
    two_sqrt_ab = 2.0 * math.sqrt(a * b)
    if blend:
        c = row[6]
        keep = 1.0 - c
        tanh = math.tanh
    x, v, *schedule = lists
    a_min, a_max = limits.a_min, limits.a_max
    v_min, v_max = limits.v_min, limits.v_max
    v = min(max(v, v_min), v_max)

    pos = [x]
    speed = [v]
    keep_x = pos.append
    keep_v = speed.append

    for xl, vl, al, h in zip(*schedule):
        s = xl - x
        if s <= 0.0:
            s = SPACING_FLOOR_FT
        # idm_accel_raw
        dv = v - vl
        q = v * T + v * dv / two_sqrt_ab
        s_star = s0 + (q if q > 0.0 else 0.0)
        ratio = s_star / s
        a_cmd = a * (1.0 - (v / v0) ** delta - ratio * ratio)
        if blend:
            # cah_accel_raw; brake is its -2.0 * s * a_tilde, as negation is
            # exact, and adding it subtracts 2.0 * s * a_tilde
            a_tilde = a if a < al else al
            two_s = 2.0 * s
            brake = -two_s * a_tilde
            denom = vl * vl + brake
            if vl * dv <= brake and denom > 0.0:
                a_c = v * v * a_tilde / denom
            elif dv >= 0.0:
                a_c = a_tilde - dv * dv / two_s
            else:
                a_c = a_tilde
            # blend_accel_raw keeps a_i (a_cmd here) if a_i >= a_c; a NaN
            # on either side fails that test and takes the blend
            if not a_cmd >= a_c:
                a_cmd = keep * a_cmd + c * (a_c + b * tanh((a_cmd - a_c) / b))
        if a_cmd < a_min:
            a_cmd = a_min
        elif a_cmd > a_max:
            a_cmd = a_max
        v_new = v + a_cmd * h
        if v_new < v_min:
            v_new = v_min
        elif v_new > v_max:
            v_new = v_max
        x += 0.5 * (v + v_new) * h
        v = v_new
        keep_x(x)
        if states:
            keep_v(v)

    if not (math.isfinite(x) and math.isfinite(v)):
        raise ArithmeticError(f"the follower state turns non-finite (x={x}, v={v})")
    return pos, speed if states else None


class SegmentSet:
    """Segments under one set of limits and one dt; picks the engine for them.

    Construction checks dt against every interval and builds the schedule
    both engines step: one flat list of sub-steps, segments in order, each
    with the leader's position, speed and accel and the step length. A set
    that takes the block also packs it into (step, lane) arrays, a lane per
    segment from step 0; past its end a lane steps by h = 0, which leaves
    the follower state as it is.
    """

    def __init__(self, segments: list[FollowingSegment], limits: SimLimits | None = None,
                 dt: float = 1.0):
        if not 0.0 < dt < math.inf:  # written so that a NaN fails too
            raise ConfigError(f"dt must be a finite number > 0, got {dt}")
        self.segments = list(segments)
        self.limits = limits or SimLimits()
        self.dt = dt
        lengths = np.array([len(seg) for seg in self.segments], dtype=int)
        self.samples = int(lengths.sum())
        # results come pooled: where each segment starts, and the leader there
        self._starts = np.cumsum(lengths) - lengths
        self._leader_pos = np.concatenate([[]] + [seg.leader_pos for seg in self.segments])
        # the scalar loop's inputs, cut on its first run, and where its
        # observations fall in them; an empty set has neither
        self._lists, self._observed = (None, None) if self.segments else ([], self._starts)
        # for a set that takes the block, its (step, lane) arrays and rows per run
        self.schedule, self._rows_per_run = None, math.inf
        if self.segments:
            self._plan(lengths)

    def _plan(self, lengths: np.ndarray) -> None:
        segments, dt = self.segments, self.dt
        lanes = len(segments)
        t, lx, lv, la = (np.concatenate([getattr(seg, name) for seg in segments])
                         for name in ("t", "leader_pos", "leader_speed", "leader_accel"))
        self.x0 = np.array([seg.follower_pos[0] for seg in segments])
        self.v0 = np.array([seg.follower_speed[0] for seg in segments])
        lane = np.repeat(np.arange(lanes), lengths)  # of each sample
        ends = np.delete(np.arange(self.samples), self._starts)  # each interval's last sample

        # a step count that overflows for a tiny dt is inf, rejected below;
        # so is one above `most`, which keeps the (step, lane) arrays of
        # float64 within what numpy indexes
        most = np.iinfo(np.intp).max / (8 * int(lengths.max()) * lanes)
        interval = t[ends] - t[ends - 1]
        with np.errstate(over="ignore"):
            m = np.rint(interval / dt)
            bad = ~((m >= 1) & (m < most)
                    & (np.abs(interval - m * dt) <= 1e-6 * np.maximum(1.0, interval)))
        if bad.any():
            raise ConfigError(  # first bad interval in segment order
                f"dt={dt} does not divide the {interval[bad.argmax()]:.6g} s observation interval")
        m = m.astype(int)  # sub-steps per interval
        before = np.concatenate([[0], np.cumsum(m)])  # sub-steps before each interval, pooled
        k = np.arange(before[-1]) - np.repeat(before[:-1], m)  # of each sub-step in its interval
        end = np.repeat(ends, m)
        frac = k / np.repeat(m, m)

        def leader(col):
            # the sample itself at k = 0, then linear in k/m across the interval
            start = col[end - 1]
            return np.where(k == 0, start, start + (col[end] - start) * frac)

        self._flat = (leader(lx), leader(lv), leader(la), np.repeat(interval / m, m))
        # per sample, the sub-steps done by it, segments pooled; the scalar
        # loop's lists hold one value more per segment, its start
        done = before[np.arange(self.samples) - lane]
        self._observed = done + lane
        self._bounds = np.append(done[self._starts], done[-1])  # each lane's slice
        if lanes < BATCH_MIN_SEGMENTS:
            return
        # the block records the state after each step at which some lane
        # observes; a sample's record and lane pick it out of (record, row,
        # lane) arrays
        per_lane = np.diff(self._bounds)
        step = done - self._bounds[lane]  # sub-steps done in the sample's own lane
        observes = np.zeros(per_lane.max() + 1, bool)
        observes[step] = True
        self._records = np.flatnonzero(observes).tolist()
        self._picks = ((np.cumsum(observes) - 1)[step], slice(None), lane)
        self._rows_per_run = max(1, _BLOCK_VALUES // (len(self._records) * lanes))
        # (step, lane) arrays: each lane's sub-steps from step 0, then its
        # last leader sample and h = 0
        last = self._starts + lengths - 1
        real = np.arange(per_lane.max()) < per_lane[:, None]  # (lane, step)
        self.schedule = tuple(np.tile(pad, (per_lane.max(), 1))
                              for pad in (lx[last], lv[last], la[last], np.zeros(lanes)))
        for out, col in zip(self.schedule, self._flat):
            out.T[real] = col

    def results(self, model: ModelParams) -> list[SimResult]:
        """Simulate each segment independently, re-initialized from its first sample.

        Splits the one pooled_run of the model per segment, and raises
        as it does.
        """
        pos, speed, spacing, collisions = self.pooled_run(model)
        bounds = self._starts.tolist() + [self.samples]
        out = []
        for seg, lo, hi, hits in zip(self.segments, bounds, bounds[1:], collisions):
            accel = np.empty(hi - lo)
            accel[1:] = np.diff(speed[lo:hi]) / np.diff(seg.t)
            accel[0] = accel[1]
            out.append(SimResult(seg.t.copy(), pos[lo:hi], speed[lo:hi], accel, spacing[lo:hi],
                                 int(hits)))
        return out

    def pooled_run(self, model: ModelParams):
        """Simulate one parameter set over every segment, each from its first sample.

        Returns (pos, speed, spacing, collisions): the simulated follower
        position, speed and spacing on the observation times, the segments
        concatenated in order, and the collision count of each segment.
        Raises DomainError naming the first segment on which the scalar
        loop overflows, divides by zero or ends with a non-finite state.
        """
        kind, row = params_row(model)
        try:
            block = self._run_block(kind, np.array([row]))
        except FloatingPointError:
            block = None
        if block is not None:
            return tuple(col[0] for col in block)
        runs = []
        try:
            for run in self._scalar_runs(kind, row, states=True):
                runs.append(run)
        except ArithmeticError as exc:
            raise DomainError(f"segment {self.segments[len(runs)].id}: the simulation "
                              f"faults ({type(exc).__name__}: {exc})") from None
        pos, speed = (self._observations(run[j] for run in runs) for j in range(2))
        return (pos, speed, *self._spacing(pos, counts=True))

    def pooled_spacing(self, kind: str, table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The simulated spacing of each row of a parameter table, segments concatenated.

        `table` is a (rows, fields) array of parameter sets of one kind,
        each row its class's fields in order, models.TABLE_FIELDS, as
        models.genes_table builds it, and inside the kind's domain. Returns a
        (rows, samples) spacing array and a (rows,) mask of the rows whose
        simulation overflows, turns NaN or divides by zero; their spacing
        means nothing. Every row gets the values it gets stepped alone.
        """
        if len(table) > self._rows_per_run:
            return self._joined(kind, table, self._rows_per_run)
        try:
            block = self._run_block(kind, table, states=False)
        except FloatingPointError:
            if len(table) > 1:
                return self._joined(kind, table, 1)
            block = None
        if block is not None:
            return block[2], np.zeros(len(table), bool)
        pos = np.full((len(table), self.samples), np.nan)
        fault = np.zeros(len(table), bool)
        for r, row in enumerate(table.tolist()):
            try:
                pos[r] = self._observations(run[0] for run in self._scalar_runs(kind, row))
            except ArithmeticError:
                fault[r] = True
        return self._spacing(pos)[0], fault

    def _joined(self, kind: str, table: np.ndarray, rows: int):
        """pooled_spacing of the table taken `rows` rows at a time, joined."""
        parts = [self.pooled_spacing(kind, table[i:i + rows]) for i in range(0, len(table), rows)]
        return tuple(np.concatenate(part) for part in zip(*parts))

    def _scalar_runs(self, kind: str, row: list, states: bool = False):
        """The kind's step loop's output per segment, each stepped as it is drawn."""
        if self._lists is None:
            self._lists = self._scalar_lists()
        if kind == "linear_acc":
            return (_acc_step_loop(row, lists, self.limits, states) for lists in self._lists)
        blend = kind == "blend"
        return (_idm_step_loop(blend, row, lists, self.limits, states) for lists in self._lists)

    def _scalar_lists(self) -> list[tuple]:
        """Per segment, x0, v0 and its slice of each schedule column, in plain floats."""
        bounds = self._bounds.tolist()
        return [(x, v, *(col[lo:hi].tolist() for col in self._flat))
                for x, v, lo, hi in zip(self.x0.tolist(), self.v0.tolist(), bounds, bounds[1:])]

    def _observations(self, lists) -> np.ndarray:
        """The observed values of per-sub-step lists, one per segment in order, pooled."""
        return np.fromiter(chain.from_iterable(lists), float)[self._observed]

    def _spacing(self, pos: np.ndarray, counts: bool = False):
        """The spacing of (..., samples) pooled positions, and (..., segments) collision counts.

        The spacing, leader less follower, is floored at SPACING_FLOOR_FT
        where it is not positive, one collision each, except at a segment's
        first sample. The counts are None unless `counts`. No difference
        overflows: the leader positions lie within ±2^53, and a finite
        run's follower within 2^53 ft plus v_max times the segment's span.
        """
        spacing = self._leader_pos - pos
        hit = spacing <= 0.0
        hit[..., self._starts] = False
        spacing[hit] = SPACING_FLOOR_FT
        if not counts:
            return spacing, None
        return spacing, np.add.reduceat(hit, self._starts, axis=-1, dtype=int)

    def _run_block(self, kind: str, table: np.ndarray, states: bool = True):
        """Step each row of a parameter table over every lane in lockstep.

        Returns (pos, speed, spacing, collisions): three (rows, samples)
        arrays on the observation times, segments concatenated, and a
        (rows, segments) count, with speed and the count None unless
        `states` is true; None when the set takes the scalar loop. The
        block records positions (and speeds) after each step at which some
        lane observes, and _spacing takes the rest from them. Raises
        FloatingPointError where a value, the spacing included, overflows or
        turns NaN.

        The rows are of one kind, whose kernel is written inline as in
        the step loops: the raw kernel's IEEE operations in the same order,
        with each branch computed on every lane and picked by np.where.
        """
        if self.schedule is None:
            return None
        lanes = len(self.segments)
        rows, fields = table.shape
        # C-contiguous (rows, lanes) state, over which the (lanes,) schedule
        # columns broadcast; one row steps on (lanes,), which numpy
        # handles at less cost per call
        shape = (rows, lanes) if rows > 1 else (lanes,)
        acc = kind == "linear_acc"
        blend = kind == "blend"
        # each field of the (rows, fields) table repeated over the lanes
        # into one contiguous (rows, lanes) column: power and tanh take
        # their SIMD loops on contiguous operands only
        columns = np.repeat(table.T, lanes, axis=1).reshape(fields, *shape)
        if acc:
            t_des, k1, k2, d0 = columns
        else:
            a, delta, v0, s0, T, b = columns[:6]
            two_sqrt_ab = 2.0 * np.sqrt(a * b)
            if blend:
                c = columns[6]
                keep = 1.0 - c
        # 0-d arrays cost numpy less per call than Python floats
        a_min, a_max, v_min, v_max = (
            np.array(value) for value in (self.limits.a_min, self.limits.a_max,
                                          self.limits.v_min, self.limits.v_max))
        xl, vl, al, h = self.schedule
        pos = np.empty((len(self._records), rows, lanes))
        speed = np.empty_like(pos) if states else None
        with np.errstate(**_RAISE_ON_FAULT):
            x = np.broadcast_to(self.x0, shape)
            v = np.broadcast_to(np.minimum(np.maximum(self.v0, v_min), v_max), shape)
            # the first span is empty: record 0 is the start
            for r, (lo, hi) in enumerate(zip([0] + self._records, self._records)):
                for j in range(lo, hi):
                    vl_j, step = vl[j], h[j]
                    s = xl[j] - x
                    if acc:
                        # the gap error takes the unfloored spacing
                        a_cmd = k1 * (s - d0 - t_des * v) + k2 * (vl_j - v)
                    else:
                        s[s <= 0.0] = SPACING_FLOOR_FT
                        dv = v - vl_j
                        ratio = (s0 + np.maximum(0.0, v * T + v * dv / two_sqrt_ab)) / s
                        a_cmd = a * (1.0 - (v / v0) ** delta - ratio * ratio)
                        if blend:
                            # brake is -2.0 * s * a_tilde, as negation is
                            # exact, and adding it subtracts 2.0 * s * a_tilde
                            a_tilde = np.minimum(al[j], a)
                            two_s = 2.0 * s
                            brake = -two_s * a_tilde
                            denom = vl_j * vl_j + brake
                            bounded = (vl_j * dv <= brake) & (denom > 0.0)
                            # lanes off the bounded branch divide by 1
                            a_c = np.where(
                                bounded, v * v * a_tilde / np.where(bounded, denom, 1.0),
                                np.where(dv >= 0.0, a_tilde - dv * dv / two_s, a_tilde))
                            a_cmd = np.where(
                                a_cmd >= a_c, a_cmd,
                                keep * a_cmd + c * (a_c + b * np.tanh((a_cmd - a_c) / b)))
                    a_cmd = np.minimum(np.maximum(a_cmd, a_min), a_max)
                    v_new = np.minimum(np.maximum(v + a_cmd * step, v_min), v_max)
                    x = x + 0.5 * (v + v_new) * step
                    v = v_new
                pos[r] = x
                if states:
                    speed[r] = v
            pos, speed = (None if col is None else col[self._picks].T for col in (pos, speed))
            return (pos, speed, *self._spacing(pos, counts=states))


def simulate_all(model: ModelParams, segments: list[FollowingSegment],
                 limits: SimLimits | None = None, dt: float = 1.0) -> list[SimResult]:
    """Simulate each segment independently, re-initialized from its first sample."""
    return SegmentSet(segments, limits, dt).results(model)


def limits_from_dict(data: dict) -> SimLimits:
    require_keys(data, (), "limits")
    given = [key for key in ("a_min", "a_max", "v_max", "v_min") if key in data]
    require_numbers(data, given, "limits")
    return SimLimits(**{key: data[key] for key in given})


def load_limits(path: str | Path) -> SimLimits:
    return limits_from_dict(read_json_object(path, "limits"))


def result_to_dict(result: SimResult, segment_id: str = "") -> dict:
    return {"id": segment_id, "collisions": result.collisions,
            **{name: getattr(result, name)
               for name in ("t", "follower_pos", "follower_speed", "follower_accel", "spacing")}}
