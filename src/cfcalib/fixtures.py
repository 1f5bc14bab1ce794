"""Deterministic synthetic fixtures for tests, demos, and benchmarks.

Field logs from the shuttle deployment are not redistributable, so the
suite exercises the pipeline on engineered data: a paired series with a
known clean/outlier split, a jerk series with exact comfort shares, and
leader/follower segments generated by the bundled models themselves.
"""

from __future__ import annotations

import numpy as np

from .ingest import backward_rate
from .models import BlendParams, IdmParams, ModelParams, equilibrium_spacing
from .series import MIN_SEGMENT_SAMPLES, FollowingSegment, PairedSeries
from .sim import SimLimits, simulate_follower

# Exact composition of the jerk comfort fixture: (|jerk| value, count).
# Shares over n=10000: 16% above 0.92, 3.57% above 4.03, 2.24% above 4.82.
_JERK_BLOCKS = ((0.5, 8400), (2.0, 1243), (4.5, 133), (6.0, 224))

# Target composition of the cleaning-count fixture.
CLEANING_TOTAL = 6433
CLEANING_RETAINED = 4427
CLEANING_VIOLATIONS = CLEANING_TOTAL - CLEANING_RETAINED


def jerk_comfort_series(seed: int = 7) -> np.ndarray:
    """10,000 signed jerk samples with exact comfort-threshold shares."""
    values = np.concatenate([np.full(count, mag) for mag, count in _JERK_BLOCKS])
    signs = np.where(np.arange(values.size) % 2 == 0, 1.0, -1.0)
    rng = np.random.default_rng(seed)
    order = rng.permutation(values.size)
    return (values * signs)[order]


def _violation(kind: int) -> tuple[float, float, float, float]:
    """(follower_speed, follower_accel, leader_accel, spacing) breaking one rule."""
    table = [
        (0.0, 0.5, 0.5, 100.0),     # follower stopped
        (10.0, 0.5, 0.5, -10.0),    # leader not in front
        (10.0, 19.0, 0.5, 100.0),   # follower accel above 18
        (23.0, 0.5, 0.5, 100.0),    # follower speed above the 22 ft/s cap
        (10.0, 0.5, 0.5, 700.0),    # spacing beyond sensor range
        (10.0, 0.5, -19.0, 100.0),  # leader accel above 18
    ]
    return table[kind % len(table)]


def rule_violation_series(seed: int = 11) -> PairedSeries:
    """6,433 paired samples of which exactly 4,427 survive the default rules.

    Clean samples sit in runs of at least MIN_SEGMENT_SAMPLES so the minimum
    segment length never drops a survivor; violations arrive in blocks.
    """
    rng = np.random.default_rng(seed)
    flags = []  # True = clean sample
    remaining_clean = CLEANING_RETAINED
    remaining_viol = CLEANING_VIOLATIONS
    while remaining_clean > 0 or remaining_viol > 0:
        if remaining_clean > 0:
            run = int(rng.integers(MIN_SEGMENT_SAMPLES, 61))
            run = min(run, remaining_clean)
            if 0 < remaining_clean - run < MIN_SEGMENT_SAMPLES:
                run = remaining_clean
            flags.extend([True] * run)
            remaining_clean -= run
        if remaining_viol > 0:
            block = int(min(rng.integers(1, 11), remaining_viol))
            flags.extend([False] * block)
            remaining_viol -= block
    n = len(flags)
    assert n == CLEANING_TOTAL

    t = np.arange(n, dtype=float)
    follower_speed = np.empty(n)
    follower_accel = np.empty(n)
    leader_accel = np.empty(n)
    spacing = np.empty(n)
    viol_count = 0
    for i, clean in enumerate(flags):
        if clean:
            follower_speed[i] = float(rng.uniform(2.0, 20.0))
            follower_accel[i] = float(rng.uniform(-2.0, 2.0))
            leader_accel[i] = float(rng.uniform(-2.0, 2.0))
            spacing[i] = float(rng.uniform(30.0, 300.0))
        else:
            fs, fa, la, sp = _violation(viol_count)
            follower_speed[i], follower_accel[i] = fs, fa
            leader_accel[i], spacing[i] = la, sp
            viol_count += 1

    follower_pos = np.concatenate([[0.0], np.cumsum(np.abs(follower_speed[1:]))])
    leader_pos = follower_pos + spacing
    leader_speed = follower_speed.copy()
    return PairedSeries(
        t=t, leader_pos=leader_pos, leader_speed=leader_speed,
        leader_accel=leader_accel, follower_pos=follower_pos,
        follower_speed=follower_speed, follower_accel=follower_accel,
    )


def steady_pair(n: int, follower_speed: float = 10.0, spacing: float = 100.0,
                accel: float = 0.0) -> PairedSeries:
    """`n` 1-s samples of two vehicles at one speed and acceleration, `spacing` ft apart."""
    t = np.arange(n, dtype=float)
    follower_pos = follower_speed * t
    return PairedSeries(
        t=t, leader_pos=follower_pos + spacing, leader_speed=np.full(n, follower_speed),
        leader_accel=np.full(n, accel), follower_pos=follower_pos,
        follower_speed=np.full(n, follower_speed), follower_accel=np.full(n, accel),
    )


def constant_leader_segment(
    speed: float,
    duration_s: int,
    initial_spacing: float,
    seg_id: str = "const",
    dt: float = 1.0,
) -> FollowingSegment:
    """Leader at constant speed; observed follower tracks at fixed spacing."""
    n = int(round(duration_s / dt)) + 1
    t = np.arange(n, dtype=float) * dt
    leader_pos = initial_spacing + speed * t
    leader_speed = np.full(n, float(speed))
    leader_accel = np.zeros(n)
    follower_pos = leader_pos - initial_spacing
    return FollowingSegment(
        id=seg_id, t=t,
        leader_pos=leader_pos, leader_speed=leader_speed, leader_accel=leader_accel,
        follower_pos=follower_pos, follower_speed=leader_speed.copy(),
        follower_accel=np.zeros(n),
    )


def hard_stop_segment(
    initial_speed: float = 18.0,
    initial_spacing: float = 50.0,
    brake: float = -8.0,
    duration_s: int = 60,
    dt: float = 1.0,
) -> FollowingSegment:
    """Leader brakes to a standstill and parks; follower observed at start only."""
    n = int(round(duration_s / dt)) + 1
    t = np.arange(n, dtype=float) * dt
    leader_speed = np.maximum(0.0, initial_speed + brake * t)
    leader_accel = np.where(leader_speed > 0.0, brake, 0.0)
    leader_pos = np.empty(n)
    leader_pos[0] = initial_spacing
    for i in range(1, n):
        leader_pos[i] = leader_pos[i - 1] + 0.5 * (leader_speed[i - 1] + leader_speed[i]) * dt
    # observed follower is a placeholder: only its first sample seeds the
    # simulation, and a parked position keeps the spacing invariant valid
    follower_pos = np.full(n, leader_pos[0] - initial_spacing)
    follower_speed = np.zeros(n)
    follower_speed[0] = float(initial_speed)
    return FollowingSegment(
        id="hard-stop", t=t,
        leader_pos=leader_pos, leader_speed=leader_speed, leader_accel=leader_accel,
        follower_pos=follower_pos, follower_speed=follower_speed,
        follower_accel=np.zeros(n),
    )


def _cycle_speed_profile(n: int, dt: float, base: float, spans) -> np.ndarray:
    """Piecewise-linear leader speed: list of (duration_s, target_speed) ramps."""
    v = np.empty(n)
    v[0] = base
    i = 1
    current = base
    for duration, target in spans:
        steps = int(round(duration / dt))
        for k in range(1, steps + 1):
            if i >= n:
                return v
            v[i] = current + (target - current) * k / steps
            i += 1
        current = target
    while i < n:
        v[i] = current
        i += 1
    return v


def _respond_to_leader(params, seg_id, leader_speed, initial_spacing, base_speed,
                       dt, limits) -> FollowingSegment:
    """Integrate the leader profile and record the model's response to it."""
    n = len(leader_speed)
    t = np.arange(n, dtype=float) * dt
    leader_pos = np.empty(n)
    leader_pos[0] = initial_spacing
    for i in range(1, n):
        leader_pos[i] = leader_pos[i - 1] + 0.5 * (leader_speed[i - 1] + leader_speed[i]) * dt
    leader_accel = backward_rate(leader_speed, t)
    bootstrap = FollowingSegment(
        id=f"boot-{seg_id}", t=t,
        leader_pos=leader_pos, leader_speed=leader_speed, leader_accel=leader_accel,
        follower_pos=leader_pos - initial_spacing,
        follower_speed=np.full(n, base_speed), follower_accel=np.zeros(n),
    )
    sim = simulate_follower(params, bootstrap, limits, dt)
    if sim.collisions:
        raise AssertionError("fixture generator produced a collision")
    return FollowingSegment(
        id=seg_id, t=t,
        leader_pos=leader_pos, leader_speed=leader_speed, leader_accel=leader_accel,
        follower_pos=sim.follower_pos, follower_speed=sim.follower_speed,
        follower_accel=sim.follower_accel,
    )


def idm_response_segments(
    params: IdmParams,
    n_segments: int = 3,
    seconds: int = 200,
    dt: float = 1.0,
    limits: SimLimits | None = None,
    base_speed: float = 10.0,
) -> list[FollowingSegment]:
    """Segments whose observed follower is the IDM's own response.

    The follower starts at the model's equilibrium spacing and reacts to
    accelerate/cruise/brake leader cycles, so the generating gene vector
    scores a pooled spacing NRMSE of zero by construction.
    """
    return model_response_segments(
        params, n_segments=n_segments, seconds=seconds, dt=dt, limits=limits,
        initial_spacing=equilibrium_spacing(params, base_speed),
        base_speed=base_speed,
    )


def short_trip_segments(
    params: IdmParams | BlendParams,
    n_trips: int = 60,
    trip_seconds: int = 10,
    dt: float = 1.0,
    limits: SimLimits | None = None,
) -> list[FollowingSegment]:
    """Many short per-trip-reset segments, each one accelerate/cruise or
    brake/cruise event, spanning base speeds of 8..14 ft/s.

    Mirrors the granularity the cleaning stage produces from stop-and-go
    shuttle logs (trips at or near the minimum segment length). Each trip
    starts on the model's equilibrium so the generating parameters fit
    with zero error.
    """
    if limits is None:
        limits = SimLimits()
    n = int(round(trip_seconds / dt)) + 1
    bases = (8.0, 10.0, 12.0, 14.0, 9.0, 11.0, 13.0)
    deltas = (4.0, -3.0, 3.0, -4.0, 5.0, -2.0)
    ramps = (6, 8, 5, 7)
    holds = (3, 4, 2)
    segments = []
    for k in range(n_trips):
        base = bases[k % len(bases)]
        target = min(max(base + deltas[k % len(deltas)], 5.0), 16.5)
        leader_speed = _cycle_speed_profile(
            n, dt, base,
            [(holds[k % len(holds)], base), (ramps[k % len(ramps)], target),
             (trip_seconds, target)])
        segments.append(_respond_to_leader(
            params, f"trip-{k}", leader_speed,
            equilibrium_spacing(params, base), base, dt, limits))
    return segments


def model_response_segments(
    params: ModelParams,
    n_segments: int = 3,
    seconds: int = 200,
    dt: float = 1.0,
    limits: SimLimits | None = None,
    initial_spacing: float = 60.0,
    base_speed: float = 10.0,
) -> list[FollowingSegment]:
    """Like idm_response_segments but for any model kind and fixed initial spacing."""
    if limits is None:
        limits = SimLimits()
    n = int(round(seconds / dt)) + 1
    profiles = [
        [(30, 14.0), (30, 14.0), (35, 6.0), (30, 6.0), (40, 12.0), (35, 12.0)],
        [(25, 8.0), (35, 15.0), (30, 15.0), (40, 7.0), (30, 7.0), (40, 13.0)],
        [(40, 12.0), (25, 12.0), (35, 16.0), (30, 9.0), (40, 9.0), (30, 14.0)],
    ]
    segments = []
    for idx in range(n_segments):
        leader_speed = _cycle_speed_profile(n, dt, base_speed, profiles[idx % len(profiles)])
        segments.append(_respond_to_leader(
            params, f"gen-{idx}", leader_speed, initial_spacing, base_speed, dt, limits))
    return segments
