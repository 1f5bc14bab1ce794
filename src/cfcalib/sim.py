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
the leader interpolated linearly to the start of each. Both write the
kernels of every model kind inline; the raw kernels in models.py are the
reference they are tested against. The scalar loop, _step_loop, steps
one segment at a time in plain Python floats, so that a sub-step makes
no Python call. The block stepper, SegmentSet._run_block, advances a
whole (parameter sets x segments) block per sub-step in numpy. They
differ only in power and tanh. SegmentSet alone picks the engine: the
block when the set has BATCH_MIN_SEGMENTS segments or more, never
depending on how many parameter sets are stepped together. A block that
overflows or turns NaN is stepped again row by row, and a row that
still does runs the scalar loop, so every parameter set gets exactly
what it gets stepped alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cleaning import FollowingSegment
from .errors import ConfigError, DomainError
from .jsonio import read_json_object, require_keys, require_numbers
from .models import AccParams, BlendParams, IdmParams, ModelParams

SPACING_FLOOR_FT = 0.01

# Segment sets at least this large take the block stepper. Below it the
# fixed cost of each numpy call outweighs the lanes it covers: stepping
# one parameter set over 31-sample segments (2-core x86-64, Python 3.11,
# numpy 2.4), the block ran at 0.3-0.5x the scalar loop's speed on 16
# segments; 0.6x (blend), 0.9x (linear_acc) and 1.0x (idm) on 32;
# 0.75x, 1.1x and 1.2x on 40; and 1.2x, 1.7x and 1.9x on 64. The
# crossovers sit near 33 segments for idm, 37 for linear_acc and 54 for
# blend, but moving the threshold would move sets onto numpy's power and
# tanh and change their results in the last bits.
# A GA generation steps many parameter sets at once and gains far more.
# The path must not depend on the number of parameter sets: numpy's
# power and tanh differ from libm in the last bit, so a fitness the GA
# reports could not be reproduced by calib.fitness if a wider population
# switched engines.
BATCH_MIN_SEGMENTS = 32

# numpy errors that make the block stepper give way to the scalar loop,
# whose plain floats handle (or fault on) these cases in their own way
_RAISE_ON_FAULT = {"over": "raise", "divide": "raise", "invalid": "raise"}

# values (8 MB of float64) in each array the block stepper allocates:
# its (samples x rows x segments) results and each tile of a schedule column
_BLOCK_VALUES = 1 << 20


@dataclass(frozen=True)
class SimLimits:
    """Actuation envelope applied to every simulated step (ft/s units)."""

    a_min: float = -26.0
    a_max: float = 10.0
    v_max: float = 19.5
    v_min: float = 0.0

    def __post_init__(self):
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


def simulate_follower(
    model: ModelParams,
    seg: FollowingSegment,
    limits: SimLimits | None = None,
    dt: float = 1.0,
) -> SimResult:
    """Simulate the follower over one segment, sampled at the observation times.

    dt must divide every observation interval; sub-steps interpolate the
    leader linearly. Returns the simulated series plus a collision count.
    """
    return SegmentSet([seg], limits, dt).results(model)[0]


def _step_loop(model: ModelParams, lists: tuple, limits: SimLimits):
    """Step one segment's sub-steps; returns (pos, speed, spacing, collisions) as lists.

    `lists` is one of SegmentSet._scalar_lists; `end` is the leader position
    at the observation a sub-step completes, None inside an interval. A
    NaN, once in, stays in x, so a run ending non-finite raises
    ArithmeticError.

    The acceleration is computed inline, so a sub-step makes no Python
    call: linear_acc, or IDM with the CAH blend on top. Each kind does the
    IEEE operations of its models.*_accel_raw kernel in the same order,
    and gives the same bits.
    """
    acc = isinstance(model, AccParams)
    blend = isinstance(model, BlendParams)
    if acc:
        k1, k2, t_des, d0 = model.k1, model.k2, model.t_des, model.d0
    else:
        p = model.idm if blend else model
        a, delta, v0, s0, T, b = p.a, p.delta, p.v0, p.s0, p.T, p.b
        two_sqrt_ab = 2.0 * math.sqrt(a * b)
        if blend:
            c = model.c
            keep = 1.0 - c
            tanh = math.tanh
    x, v, xl0, *schedule = lists
    a_min, a_max = limits.a_min, limits.a_max
    v_min, v_max = limits.v_min, limits.v_max
    v = min(max(v, v_min), v_max)

    pos = [x]
    speed = [v]
    spacing = [xl0 - x]
    collisions = 0

    for xl, vl, al, h, end in zip(*schedule):
        s = xl - x
        if acc:
            # linear_acc_accel_raw: the gap error takes the unfloored spacing
            a_cmd = k1 * (s - d0 - t_des * v) + k2 * (vl - v)
        else:
            if s <= 0.0:
                s = SPACING_FLOOR_FT
            # idm_accel_raw
            dv = v - vl
            q = v * T + v * dv / two_sqrt_ab
            s_star = s0 + (q if q > 0.0 else 0.0)
            ratio = s_star / s
            a_cmd = a * (1.0 - (v / v0) ** delta - ratio * ratio)
            if blend:
                # cah_accel_raw; -two_s * a_tilde is its -2.0 * s * a_tilde,
                # as negation is exact
                a_tilde = a if a < al else al
                two_s = 2.0 * s
                denom = vl * vl - two_s * a_tilde
                if vl * dv <= -two_s * a_tilde and denom > 0.0:
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
        if end is not None:
            pos.append(x)
            speed.append(v)
            raw = end - x
            if raw <= 0.0:
                collisions += 1
                raw = SPACING_FLOOR_FT
            spacing.append(raw)

    if not (math.isfinite(x) and math.isfinite(v)):
        raise ArithmeticError(f"the follower state turns non-finite (x={x}, v={v})")
    return pos, speed, spacing, collisions


def _result(seg: FollowingSegment, pos, speed, spacing, collisions: int) -> SimResult:
    speed_arr = np.array(speed)
    accel = np.empty(len(speed_arr))
    accel[1:] = np.diff(speed_arr) / np.diff(seg.t)
    accel[0] = accel[1]
    return SimResult(
        t=seg.t.copy(), follower_pos=np.array(pos), follower_speed=speed_arr,
        follower_accel=accel, spacing=np.array(spacing), collisions=collisions,
    )


class SegmentSet:
    """Segments under one set of limits and one dt; picks the engine for them.

    Construction checks dt against every interval and builds the schedule
    both engines step: the set padded to its longest member, one lane per
    segment, with per (interval, sub-step, lane) the leader's position,
    speed and accel and the step length. Past a segment's end, or past an
    interval's sub-step count, a lane takes sub-steps of length 0, which
    leave the follower state unchanged and are left out of every result.
    """

    def __init__(self, segments: list[FollowingSegment], limits: SimLimits | None = None,
                 dt: float = 1.0):
        if dt <= 0:
            raise ConfigError(f"dt must be positive, got {dt}")
        self.segments = list(segments)
        self.limits = limits or SimLimits()
        self.dt = dt
        self._lists = None if self.segments else []  # cut on the scalar loop's first run
        if self.segments:
            self._pad()

    def _pad(self) -> None:
        segments, dt = self.segments, self.dt
        lengths = np.array([len(seg) for seg in segments])
        starts = np.cumsum(lengths) - lengths
        n = int(lengths.max())
        rows = np.arange(n)[:, None]
        self.valid = rows < lengths  # (n, lanes)
        # (n, lanes) positions in the concatenated columns; past its end a
        # lane repeats its last sample
        gather = starts + np.minimum(rows, lengths - 1)
        t, self.lx, lv, la = (
            np.concatenate([getattr(seg, name) for seg in segments])[gather]
            for name in ("t", "leader_pos", "leader_speed", "leader_accel"))
        self.x0 = np.array([seg.follower_pos[0] for seg in segments])
        self.v0 = np.array([seg.follower_speed[0] for seg in segments])

        interval = np.diff(t, axis=0)
        m = np.rint(interval / dt)
        # written so that a NaN interval counts as bad
        bad = self.valid[1:] & ~(
            (m >= 1) & (np.abs(interval - m * dt) <= 1e-6 * np.maximum(1.0, interval)))
        if bad.any():
            lane, i = np.argwhere(bad.T)[0]  # first bad interval in segment order
            raise ConfigError(
                f"dt={dt} does not divide the {interval[i, lane]:.6g} s observation interval")
        self.m = np.where(self.valid[1:], m, 0).astype(int)  # sub-steps per interval
        m = self.m[:, None, :]
        k = np.arange(max(1, int(m.max())))[None, :, None]
        per_lane = np.maximum(m, 1)
        frac = k / per_lane

        def leader(col):
            # the sample itself at k = 0, then linear in k/m across the interval
            at = col[:-1, None, :] + np.diff(col, axis=0)[:, None, :] * frac
            at[:, 0] = col[:-1]
            return at

        # (interval, sub-step, lane) arrays
        self.schedule = (leader(self.lx), leader(lv), leader(la),
                         np.where(k < m, interval[:, None, :] / per_lane, 0.0))
        self.substeps = self.m.max(axis=1).tolist()  # per interval, the most of any lane
        self._rows_per_run = max(1, _BLOCK_VALUES // self.valid.size)

    def results(self, model: ModelParams) -> list[SimResult]:
        """Simulate each segment independently, re-initialized from its first sample.

        Raises DomainError naming the first segment on which the scalar
        loop overflows, divides by zero or ends with a non-finite state.
        """
        try:
            block = self._run_block([model])
        except FloatingPointError:
            block = None
        if block is not None:
            pos, speed, spacing, collisions = block
            return [_result(seg, pos[:len(seg), 0, lane], speed[:len(seg), 0, lane],
                            spacing[:len(seg), 0, lane], int(collisions[0, lane]))
                    for lane, seg in enumerate(self.segments)]
        results = []
        try:
            for run in self._scalar_runs(model):
                results.append(_result(self.segments[len(results)], *run))
        except ArithmeticError as exc:
            raise DomainError(f"segment {self.segments[len(results)].id}: the simulation "
                              f"faults ({type(exc).__name__}: {exc})") from None
        return results

    def pooled_spacing(self, models: list) -> list[np.ndarray | None]:
        """Each model's simulated spacing, its segments concatenated in order.

        None marks a model whose simulation overflows, turns NaN or
        divides by zero. Every model gets the values it gets stepped alone:
        models of mixed kinds are stepped kind by kind, so that each takes
        the engine it takes alone.
        """
        kinds = dict.fromkeys(type(model) for model in models)
        if len(kinds) > 1:
            spacings = [None] * len(models)
            for kind in kinds:
                rows = [i for i, model in enumerate(models) if type(model) is kind]
                for i, spacing in zip(rows, self.pooled_spacing([models[i] for i in rows])):
                    spacings[i] = spacing
            return spacings
        if len(models) > self._rows_per_run:
            return [spacing for i in range(0, len(models), self._rows_per_run)
                    for spacing in self.pooled_spacing(models[i:i + self._rows_per_run])]
        try:
            block = self._run_block(models)
        except FloatingPointError:
            if len(models) > 1:
                return [spacing for model in models for spacing in self.pooled_spacing([model])]
            block = None
        if block is not None:
            return list(block[2].transpose(1, 2, 0)[:, self.valid.T])
        return [self._scalar_spacing(model) for model in models]

    def _scalar_spacing(self, model) -> np.ndarray | None:
        try:
            return np.concatenate([run[2] for run in self._scalar_runs(model)])
        except ArithmeticError:
            return None

    def _scalar_runs(self, model):
        """_step_loop's output per segment, each stepped as it is drawn."""
        if not isinstance(model, ModelParams):
            raise DomainError(f"unsupported model type {type(model).__name__}")
        if self._lists is None:
            self._lists = self._scalar_lists()
        return (_step_loop(model, lists, self.limits) for lists in self._lists)

    def _scalar_lists(self) -> list[tuple]:
        """Per segment, x0, v0, the leader's first position and its real sub-steps.

        Plain float lists keep the step loop off numpy scalar arithmetic;
        each column is cut in one pass, in segment order, then sliced.
        """
        _, substeps, lanes = self.schedule[3].shape
        lane, i, k = np.nonzero(np.arange(substeps) < self.m.T[:, :, None])
        at = (i * substeps + k) * lanes + lane
        xl, vl, al, h = (col.ravel()[at].tolist() for col in self.schedule)
        end = np.where(k == self.m[i, lane] - 1, self.lx[i + 1, lane], None).tolist()
        bounds = np.searchsorted(lane, np.arange(lanes + 1)).tolist()
        return [(x, v, lx, xl[lo:hi], vl[lo:hi], al[lo:hi], h[lo:hi], end[lo:hi])
                for x, v, lx, lo, hi in zip(self.x0.tolist(), self.v0.tolist(),
                                            self.lx[0].tolist(), bounds, bounds[1:])]

    def _run_block(self, models: list):
        """Step one row per model over every lane in lockstep.

        Returns (pos, speed, spacing, collisions): three (samples, rows,
        lanes) arrays on the observation grid and a (rows, lanes) count;
        None when the set or the models take the scalar loop. Raises
        FloatingPointError where a value overflows or turns NaN.

        The models are all of one kind, whose kernel is written inline as
        in _step_loop: the raw kernel's IEEE operations in the same order,
        with each branch computed on every lane and picked by np.where.
        """
        if len(self.segments) < BATCH_MIN_SEGMENTS:
            return None
        n, lanes = self.lx.shape
        rows = len(models)

        def columns(objs, *names):
            # one value per (row, lane), rows side by side
            return [np.repeat([float(getattr(o, name)) for o in objs], lanes) for name in names]

        kind = type(models[0])
        acc = kind is AccParams
        blend = kind is BlendParams
        if acc:
            k1, k2, t_des, d0 = columns(models, "k1", "k2", "t_des", "d0")
        elif blend or kind is IdmParams:
            a, delta, v0, s0, T, b = columns(
                [m.idm for m in models] if blend else models, "a", "delta", "v0", "s0", "T", "b")
            two_sqrt_ab = 2.0 * np.sqrt(a * b)
            if blend:
                (c,) = columns(models, "c")
                keep = 1.0 - c
        else:
            return None
        # 0-d arrays cost numpy less per call than Python floats
        a_min, a_max, v_min, v_max = (
            np.array(value) for value in (self.limits.a_min, self.limits.a_max,
                                          self.limits.v_min, self.limits.v_max))
        # rows side by side in flat contiguous lanes: same-shape 1-d
        # operands keep numpy's per-call cost at its lowest
        lx = np.tile(self.lx, rows)
        pos = np.empty((n, rows * lanes))
        speed = np.empty((n, rows * lanes))
        spacing = np.empty((n, rows * lanes))
        with np.errstate(**_RAISE_ON_FAULT):
            x = np.tile(self.x0, rows)
            v = np.tile(np.minimum(np.maximum(self.v0, v_min), v_max), rows)
            pos[0], speed[0] = x, v
            np.subtract(lx[0], x, out=spacing[0])
            for lo, (xl, vl, al, h) in self._schedule_tiles(rows):
                for j, substeps in enumerate(self.substeps[lo:lo + len(h)]):
                    for k in range(substeps):
                        vl_k, step = vl[j, k], h[j, k]
                        s = xl[j, k] - x
                        if acc:
                            # the gap error takes the unfloored spacing
                            a_cmd = k1 * (s - d0 - t_des * v) + k2 * (vl_k - v)
                        else:
                            s[s <= 0.0] = SPACING_FLOOR_FT
                            dv = v - vl_k
                            ratio = (s0 + np.maximum(0.0, v * T + v * dv / two_sqrt_ab)) / s
                            a_cmd = a * (1.0 - (v / v0) ** delta - ratio * ratio)
                            if blend:
                                # brake is -2.0 * s * a_tilde, as negation is
                                # exact, and adding it subtracts 2.0 * s * a_tilde
                                a_tilde = np.minimum(al[j, k], a)
                                two_s = 2.0 * s
                                brake = -two_s * a_tilde
                                denom = vl_k * vl_k + brake
                                bounded = (vl_k * dv <= brake) & (denom > 0.0)
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
                    i = lo + j + 1
                    pos[i], speed[i] = x, v
                    np.subtract(lx[i], x, out=spacing[i])
        pos, speed, spacing = (col.reshape(n, rows, lanes) for col in (pos, speed, spacing))
        hit = spacing[1:] <= 0.0
        collisions = (hit & self.valid[1:, None, :]).sum(axis=0)
        spacing[1:][hit] = SPACING_FLOOR_FT
        return pos, speed, spacing, collisions

    def _schedule_tiles(self, rows: int):
        """(first interval, schedule columns tiled rows times) per chunk of intervals.

        A chunk holds as many intervals as keep each tiled column within
        _BLOCK_VALUES values, at least one, so the block's memory does not
        grow with the sub-step count.
        """
        intervals, substeps, lanes = self.schedule[3].shape
        chunk = max(1, _BLOCK_VALUES // (substeps * rows * lanes))
        for lo in range(0, intervals, chunk):
            yield lo, tuple(np.tile(col[lo:lo + chunk], rows) for col in self.schedule)


def simulate_all(
    model: ModelParams,
    segments: list[FollowingSegment],
    limits: SimLimits | None = None,
    dt: float = 1.0,
) -> list[SimResult]:
    """Simulate each segment independently, re-initialized from its first sample."""
    return SegmentSet(segments, limits, dt).results(model)


def limits_from_dict(data: dict) -> SimLimits:
    require_keys(data, (), "limits")
    require_numbers(data, [key for key in ("a_min", "a_max", "v_max", "v_min") if key in data],
                    "limits")
    return SimLimits(
        a_min=data.get("a_min", -26.0),
        a_max=data.get("a_max", 10.0),
        v_max=data.get("v_max", 19.5),
        v_min=data.get("v_min", 0.0),
    )


def load_limits(path: str | Path) -> SimLimits:
    return limits_from_dict(read_json_object(path, "limits"))


def result_to_dict(result: SimResult, segment_id: str = "") -> dict:
    return {
        "id": segment_id,
        "t": result.t.tolist(),
        "follower_pos": result.follower_pos.tolist(),
        "follower_speed": result.follower_speed.tolist(),
        "follower_accel": result.follower_accel.tolist(),
        "spacing": result.spacing.tolist(),
        "collisions": result.collisions,
    }
