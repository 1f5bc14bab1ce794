"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the line per
criterion. The GA recovery case dominates the runtime (a few minutes);
everything else finishes in seconds.
"""

import hashlib
import json
import math
import time

import numpy as np
import pytest

from cfcalib import (
    BlendParams,
    CfState,
    GaConfig,
    IdmParams,
    SimLimits,
    blend_accel,
    cah_accel,
    equilibrium_spacing,
    ga_calibrate,
    gof,
    idm_accel,
    jerk_comfort_shares,
    linear_acc_accel,
    retained_samples,
    shapiro_wilk,
    simulate_follower,
    spearman,
)
from cfcalib.cleaning import FollowingSegment, clean_segments, write_segments_json
from cfcalib.cli import main as cli_main
from cfcalib.fixtures import (
    constant_leader_segment,
    jerk_comfort_series,
    rule_violation_series,
    short_trip_segments,
)
from cfcalib.models import GENE_BOUNDS, AccParams, genes_to_params

SHUTTLE_IDM = IdmParams(a=2.76, delta=1, v0=20.0, s0=9.89, T=2.79, b=24.58)


def ok(number, name):
    print(f"ACCEPTANCE {number:02d} ({name}): PASS")


# -- 1 ----------------------------------------------------------------------

def brute_force_metrics(sim, obs):
    """Direct loop translation of the three error definitions."""
    n = len(obs)
    mae = sum(abs(s - o) for s, o in zip(sim, obs)) / n
    rmse = math.sqrt(sum((s - o) ** 2 for s, o in zip(sim, obs)) / n)
    nrmse = rmse / math.sqrt(sum(o * o for o in obs) / n)
    return mae, rmse, nrmse


def test_01_metric_oracle_equivalence():
    rng = np.random.default_rng(101)
    cases = []
    for _ in range(1000):
        n = int(rng.integers(2, 50))
        obs = rng.uniform(1.0, 200.0, n)
        sim = obs + rng.normal(0.0, 5.0, n)
        cases.append((sim.tolist(), obs.tolist()))
    start = time.perf_counter()
    results = [gof(sim, obs) for sim, obs in cases]
    elapsed = time.perf_counter() - start
    for (sim, obs), got in zip(cases, results):
        expected = brute_force_metrics(sim, obs)
        for g, e in zip(got, expected):
            assert abs(g - e) <= 1e-12 * max(1.0, abs(e))
    assert elapsed < 1.0, f"1000 metric evaluations took {elapsed:.3f}s"
    ok(1, "metric oracle equivalence")


# -- 2 ----------------------------------------------------------------------

def test_02_idm_equilibrium_convergence():
    # closed-form target cross-checked by bisection on the acceleration root
    lo, hi = 1.0, 1000.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if idm_accel(SHUTTLE_IDM, mid, 14.0, 0.0) < 0.0:
            lo = mid
        else:
            hi = mid
    target = 0.5 * (lo + hi)
    assert target == pytest.approx(equilibrium_spacing(SHUTTLE_IDM, 14.0), abs=1e-9)

    seg = constant_leader_segment(14.0, 300, 60.0)
    result = simulate_follower(SHUTTLE_IDM, seg)
    assert result.collisions == 0
    assert abs(result.spacing[-1] - target) / target < 0.005
    ok(2, "IDM equilibrium convergence")


# -- 3 ----------------------------------------------------------------------

@pytest.mark.slow
def test_03_parameter_recovery_ga_end_to_end():
    segments = short_trip_segments(SHUTTLE_IDM)
    assert sum(len(s) - 1 for s in segments) == 600  # 600 simulated seconds
    # population/mutation/crossover/elitism at their defaults; the stall
    # early-stop is an artifact knob, disabled to run the full budget
    config = GaConfig(seeds=[0, 1, 2], stall_generations=1000)

    start = time.perf_counter()
    runs = ga_calibrate("idm", segments, config)
    elapsed = time.perf_counter() - start
    best_genes, best_fit, _ = min(runs, key=lambda run: run[1])

    assert best_fit < 1e-3, f"best training NRMSE {best_fit:.2e}"
    recovered = genes_to_params("idm", best_genes)
    for v in (10.0, 14.0):
        truth = equilibrium_spacing(SHUTTLE_IDM, v)
        got = equilibrium_spacing(recovered, v)
        assert abs(got - truth) / truth < 0.02, f"equilibrium at {v} ft/s off"
    assert elapsed < 600.0, f"recovery took {elapsed:.0f}s"
    ok(3, "GA parameter recovery")


# -- 4 ----------------------------------------------------------------------

def test_04_blend_correctness():
    rng = np.random.default_rng(104)

    # c = 0 reduces to plain IDM, bit for bit
    zero_cool = BlendParams(**vars(SHUTTLE_IDM), c=0.0)
    for _ in range(200):
        state = CfState(
            s=float(rng.uniform(1.0, 300.0)), v=float(rng.uniform(0.0, 19.5)),
            v_l=float(rng.uniform(0.0, 19.5)), a_l=float(rng.uniform(-10.0, 3.0)))
        assert blend_accel(zero_cool, state) == idm_accel(
            SHUTTLE_IDM, state.s, state.v, state.v - state.v_l)

    # continuity where the IDM and CAH responses cross
    blend = BlendParams(**vars(SHUTTLE_IDM), c=0.959)
    v, v_l, a_l = 12.0, 8.0, -2.0

    def gap(s):
        a_i = idm_accel(SHUTTLE_IDM, s, v, v - v_l)
        a_c = cah_accel(SHUTTLE_IDM, s, v, v_l, a_l)
        return a_i - a_c

    lo, hi = 10.0, 300.0
    assert gap(lo) < 0.0 < gap(hi)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if gap(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    for s in (lo, hi):
        state = CfState(s=s, v=v, v_l=v_l, a_l=a_l)
        a_i = idm_accel(SHUTTLE_IDM, s, v, v - v_l)
        assert abs(blend_accel(blend, state) - a_i) < 1e-9

    # CAH first/second branch formulas agree on the boundary manifold
    for _ in range(100):
        v_lead = float(rng.uniform(1.0, 15.0))
        dv = float(rng.uniform(0.1, 8.0))
        s = float(rng.uniform(5.0, 200.0))
        a_tilde = -v_lead * dv / (2.0 * s)  # braking leader on the boundary
        follower_v = v_lead + dv
        first = follower_v ** 2 * a_tilde / (v_lead ** 2 - 2.0 * s * a_tilde)
        second = a_tilde - dv * dv / (2.0 * s)
        assert abs(first - second) < 1e-9
        assert abs(cah_accel(SHUTTLE_IDM, s, follower_v, v_lead, a_tilde) - first) < 1e-9
    ok(4, "blend correctness")


# -- 5 ----------------------------------------------------------------------

def test_05_linear_acc_hand_case():
    params = AccParams(t_des=4.96, k1=0.01, k2=0.43, d0=15.0)
    state = CfState(s=100.0, v=10.0, v_l=12.0, x_l=300.0, x_f=200.0)
    # e = 35.4 ft, speed difference 2 ft/s -> 0.354 + 0.86
    assert linear_acc_accel(params, state) == pytest.approx(1.214, abs=1e-12)
    ok(5, "linear ACC hand case")


# -- 6 ----------------------------------------------------------------------

def test_06_cleaning_counts():
    paired = rule_violation_series()
    assert len(paired) == 6433
    segments = clean_segments(paired)
    assert retained_samples(segments) == 4427
    ok(6, "cleaning counts")


# -- 7 ----------------------------------------------------------------------

def test_07_comfort_shares():
    shares = jerk_comfort_shares(jerk_comfort_series())
    assert shares == (0.16, 0.0357, 0.0224)
    ok(7, "comfort shares")


# -- 8 ----------------------------------------------------------------------

def calibrate_json(tmp_path, seg_path, seeds, name):
    """The calibrate result file's bytes for a GA run of these seeds."""
    config_path = tmp_path / f"ga_{name}.json"
    config_path.write_text(json.dumps({
        "population": 16, "max_generations": 15, "mutation_prob": 0.1,
        "crossover_prob": 0.5, "elitism_ratio": 0.1, "seeds": seeds,
        "stall_generations": 15,
    }))
    out = tmp_path / f"result_{name}.json"
    rc = cli_main([
        "calibrate", "--model", "idm", "--segments", str(seg_path),
        "--config", str(config_path), "--split", "0.8", "--split-seed", "11",
        "--out", str(out)])
    assert rc == 0
    return out.read_bytes()


# a 2-trip set calibrates on 1 segment (the scalar loop), a 42-trip set on
# at least 32 (the block); the seeds run in lockstep, 1, 2 or 10 at a time
@pytest.mark.parametrize("seeds", [[0], [0, 1], list(range(10))],
                         ids=["1-seed", "2-seed", "10-seed"])
@pytest.mark.parametrize("n_trips", [2, 42], ids=["one-segment", "block"])
def test_08_calibrate_determinism(tmp_path, n_trips, seeds):
    segments = short_trip_segments(SHUTTLE_IDM, n_trips=n_trips, trip_seconds=12)
    seg_path = tmp_path / "segments.json"
    write_segments_json(segments, seg_path)
    results = [calibrate_json(tmp_path, seg_path, seeds, attempt) for attempt in ("a", "b")]
    digests = [hashlib.sha256(result).hexdigest() for result in results]
    assert digests[0] == digests[1]
    # each seed's entry is the one it gets run alone, bit for bit
    per_seed = json.loads(results[0])["calibration"]["per_seed"]
    assert [entry["seed"] for entry in per_seed] == seeds
    for entry in per_seed:
        alone = json.loads(calibrate_json(tmp_path, seg_path, [entry["seed"]], "alone"))
        assert alone["calibration"]["per_seed"] == [entry]
    ok(8, "calibrate determinism across reruns")


# -- 9 ----------------------------------------------------------------------

def rank_oracle(values):
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def pearson_oracle(x, y):
    n = len(x)
    mx, my = sum(x) / n, sum(y) / n
    num = sum((a - mx) * (b - my) for a, b in zip(x, y))
    den = math.sqrt(sum((a - mx) ** 2 for a in x) * sum((b - my) ** 2 for b in y))
    return num / den


def test_09_statistics_correctness():
    rng = np.random.default_rng(109)
    for case in range(500):
        n = int(rng.integers(4, 40))
        if case % 2 == 0:  # heavy ties
            x = rng.integers(0, 6, n).astype(float).tolist()
            y = rng.integers(0, 6, n).astype(float).tolist()
        else:
            x = rng.normal(0.0, 10.0, n).tolist()
            y = rng.normal(0.0, 10.0, n).tolist()
        rx, ry = rank_oracle(x), rank_oracle(y)
        if len(set(rx)) == 1 or len(set(ry)) == 1:
            continue
        expected = pearson_oracle(rx, ry)
        assert abs(spearman(x, y) - expected) <= 1e-12 * max(1.0, abs(expected))

    # published worked example of the W approximation: weights of 11 men
    w, _ = shapiro_wilk([148, 154, 158, 160, 161, 162, 166, 170, 182, 195, 236])
    assert abs(w - 0.7888) < 1e-3
    ok(9, "statistics correctness")


# -- 10 ---------------------------------------------------------------------

def random_fuzz_segment(rng):
    n = 10
    t = np.arange(n, dtype=float)
    leader_speed = rng.uniform(0.0, 25.0, n)
    leader_accel = rng.uniform(-30.0, 10.0, n)
    leader_pos = np.concatenate([[0.0], np.cumsum(rng.uniform(0.0, 25.0, n - 1))])
    spacing = rng.uniform(0.5, 500.0, n)
    follower_speed = np.full(n, rng.uniform(0.0, 30.0))
    return FollowingSegment(
        id="fuzz", t=t,
        leader_pos=leader_pos, leader_speed=leader_speed, leader_accel=leader_accel,
        follower_pos=leader_pos - spacing, follower_speed=follower_speed,
        follower_accel=np.zeros(n),
    )


def random_genes(rng, kind):
    return [rng.uniform(lo, hi) for _, lo, hi, _ in GENE_BOUNDS[kind]]


def test_10_clamp_safety_fuzz():
    rng = np.random.default_rng(110)
    limits = SimLimits()
    kinds = ("idm", "blend", "linear_acc")
    steps_checked = 0
    runs = 0
    while steps_checked < 10_000:
        kind = kinds[runs % 3]
        runs += 1
        params = genes_to_params(kind, random_genes(rng, kind))
        seg = random_fuzz_segment(rng)
        result = simulate_follower(params, seg, limits)
        assert np.all(np.isfinite(result.follower_pos))
        assert np.all(np.isfinite(result.follower_speed))
        assert np.all(np.isfinite(result.follower_accel))
        assert np.all(np.isfinite(result.spacing))
        assert np.all(result.follower_speed >= limits.v_min)
        assert np.all(result.follower_speed <= limits.v_max)
        assert np.all(result.follower_accel >= limits.a_min - 1e-12)
        assert np.all(result.follower_accel <= limits.a_max + 1e-12)
        steps_checked += len(seg) - 1
    ok(10, "clamp safety fuzz")
