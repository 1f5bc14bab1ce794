"""Inputs, CLI chains and output checks of the three benchmark workloads.

A workload is built from its seed into a fresh directory: the generated
input files plus the list of ``cfcalib`` command lines that make up one
pass of the chain. cfcalib only ever sees those files.

* ``ga-short-trips``: GA calibration of the IDM on the 60 short trips of
  ``fixtures.short_trip_segments`` (660 samples), then simulate and
  validate on the held-out trips.
* ``ga-long-blend``: GA calibration of the IDM+CAH blend at dt 0.5 on
  three 2,000-s segments from ``fixtures.model_response_segments``
  (6,003 samples), then simulate and validate on the held-out segment.
* ``pipeline-20k``: the whole chain on a 20,000-s leader/follower GPS log
  pair.

Both GA workloads also ingest and clean a 240-s log pair, the small size
of the demo script, so that every stage metric exists on every workload;
that prefix is a few percent of their pass time.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from cfcalib import calib, cleaning, fixtures, models
from tracing import budget_evals

DEG_PER_FT = 1.0 / (6_371_008.8 * math.pi / 180.0 / 0.3048)
BASE_LAT = 28.37
BASE_LON = -81.25

# GPS-like white noise on the observed follower position (ft), clipped at
# 2.5 sigma so spacing stays positive on every fixture (its minimum is
# 27 ft). The noise floor, not the luck of a small GA budget, then sets
# fit_nrmse and val_nrmse, which keeps them steady across seeds.
POSITION_NOISE_FT = 10.0
SPLIT_FRACTION = 0.8
SPLIT_SEED = 0

# Fixed GA budgets; stall stopping is off (stall = generations) so the
# number of fitness evaluations is set by the budget alone.
GA_BUDGETS = {
    "ga-short-trips": {"population": 20, "max_generations": 10},
    "ga-long-blend": {"population": 10, "max_generations": 5},
    "pipeline-20k": {"population": 12, "max_generations": 4},
}
WARM_BUDGET = {"population": 4, "max_generations": 1}

PIPELINE_SECONDS = 20_000
SMALL_SECONDS = 240

# On the GA workloads the calls other than calibrate take 5-50 ms, and a
# pass is mostly GA; repeating them gives their medians enough samples.
GA_CHEAP_REPEATS = 5
# On pipeline-20k validate is the one call under 0.1 s; it gets the same
# treatment at a smaller count.
PIPELINE_VALIDATE_REPEATS = 3


@dataclass
class Call:
    stage: str
    argv: list[str]
    before: Callable[[], None] | None = None  # untimed glue run first
    repeats: int = 1  # untraced passes time the median of this many calls


@dataclass
class Case:
    """One built workload: inputs on disk and the chain to run on them."""

    workload: str
    seed: int
    dir: Path
    kind: str
    dt: float
    ga: dict
    ga_seeds: list[int]
    calls: list[Call] = field(default_factory=list)
    calib_input: Path | None = None    # segments file given to calibrate
    result: Path | None = None         # calibrate output
    val_segments: Path | None = None   # segments validate and simulate score
    val_sim: Path | None = None        # simulate output on val_segments
    gof: Path | None = None            # validate output
    pair: Path | None = None           # ingest output
    csv_rows: int = 0                  # GPS rows ingested per pass

    @property
    def evals(self) -> int:
        """GA fitness evaluations per calibrate call, fixed by the budget."""
        return len(self.ga_seeds) * budget_evals(
            self.ga["population"], self.ga["max_generations"], calib.GaConfig().elitism_ratio)


def write_logs(out_dir: Path, seconds: int, seed: int) -> tuple[Path, Path]:
    """Leader/follower GPS CSVs along a north-running route.

    The same generator as ``scripts/make_demo_data.write_logs``, kept here
    so that the benchmark's inputs do not move when the demo script does.
    """
    rng = np.random.default_rng(seed)
    t = np.arange(seconds)
    leader_speed = np.clip(
        12.0 + 3.0 * np.sin(t / 11.0) + rng.normal(0.0, 0.15, seconds), 0.5, 18.0)
    follower_speed = np.clip(
        12.0 + 3.0 * np.sin((t - 4) / 11.0) + rng.normal(0.0, 0.15, seconds), 0.5, 18.0)
    for stop in (seconds // 3, 2 * seconds // 3):
        follower_speed[stop:stop + 6] = 0.0
    leader_along = np.cumsum(np.concatenate([[120.0], leader_speed[:-1]]))
    follower_along = np.cumsum(np.concatenate([[0.0], follower_speed[:-1]]))
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = (out_dir / "leader.csv", out_dir / "follower.csv")
    for path, along in zip(paths, (leader_along, follower_along)):
        rows = ["t,lat,lon\n"]
        rows += [f"{i},{BASE_LAT + d * DEG_PER_FT:.10f},{BASE_LON}\n"
                 for i, d in enumerate(along)]
        path.write_text("".join(rows))
    return paths


def _noisy(segments, seed: int):
    rng = np.random.default_rng(seed)
    limit = 2.5 * POSITION_NOISE_FT
    return [dataclasses.replace(
        s, follower_pos=s.follower_pos + np.clip(
            rng.normal(0.0, POSITION_NOISE_FT, len(s)), -limit, limit))
        for s in segments]


def _write_json(path: Path, payload: dict) -> Path:
    path.write_text(json.dumps(payload, sort_keys=True))
    return path


def _ingest_clean(case: Case, seconds: int, seed: int) -> Path:
    leader, follower = write_logs(case.dir / "logs", seconds, seed)
    case.pair = case.dir / "pair.json"
    segments = case.dir / "segments.json"
    case.csv_rows = 2 * seconds
    case.calls += [
        Call("ingest", ["ingest", "--leader", str(leader), "--follower", str(follower),
                        "--out", str(case.pair)]),
        Call("clean", ["clean", "--pair", str(case.pair), "--out", str(segments)]),
    ]
    return segments


def _calibrate_call(case: Case) -> Call:
    config = _write_json(case.dir / "ga.json",
                         {**case.ga, "stall_generations": case.ga["max_generations"]})
    case.result = case.dir / "result.json"
    return Call("calibrate", [
        "calibrate", "--model", case.kind, "--segments", str(case.calib_input),
        "--config", str(config), "--seeds", ",".join(map(str, case.ga_seeds)),
        "--split", str(SPLIT_FRACTION), "--split-seed", str(SPLIT_SEED),
        "--dt", str(case.dt), "--out", str(case.result)])


def _build_ga(case: Case, segments, warm: bool) -> None:
    _ingest_clean(case, SMALL_SECONDS, case.seed)
    segments = _noisy(segments, case.seed)
    case.calib_input = case.dir / "fixture.json"
    cleaning.write_segments_json(segments, case.calib_input)
    heldout = cleaning.split_segments(segments, SPLIT_FRACTION, SPLIT_SEED)[1]
    case.val_segments = case.dir / "heldout.json"
    cleaning.write_segments_json(heldout, case.val_segments)
    if warm:
        case.ga = dict(WARM_BUDGET)
    best = case.dir / "best.json"
    case.val_sim = case.dir / "sim.json"
    case.gof = case.dir / "gof.json"

    def write_best() -> None:
        data = json.loads(case.result.read_text())
        _write_json(best, data["calibration"]["best_params"])

    dt = str(case.dt)
    case.calls += [
        _calibrate_call(case),
        Call("simulate", ["simulate", "--model", str(best), "--segments",
                          str(case.val_segments), "--dt", dt, "--out", str(case.val_sim)],
             before=write_best),
        Call("validate", ["validate", "--params", str(case.result), "--segments",
                          str(case.val_segments), "--dt", dt, "--out", str(case.gof)]),
    ]
    for call in case.calls:
        if call.stage != "calibrate" and not warm:
            call.repeats = GA_CHEAP_REPEATS


def _build_pipeline(case: Case, warm: bool) -> None:
    segments = _ingest_clean(case, SMALL_SECONDS if warm else PIPELINE_SECONDS, case.seed)
    if warm:
        case.ga = dict(WARM_BUDGET)
    case.calib_input = case.val_segments = segments
    case.calls.append(Call("stats", ["stats", "--segments", str(segments),
                                     "--out", str(case.dir / "stats.json")]))
    for kind, dt in (("idm", 1.0), ("blend", 1.0), ("linear_acc", 1.0), ("idm", 0.5)):
        params = case.dir / f"{kind}.json"
        models.write_params(models.default_params(kind), params)
        out = case.dir / f"sim-{kind}-dt{dt}.json"
        case.calls.append(Call("simulate", [
            "simulate", "--model", str(params), "--segments", str(segments),
            "--dt", str(dt), "--out", str(out)]))
    case.val_sim = case.dir / "sim-idm-dt1.0.json"
    case.gof = case.dir / "gof.json"
    case.calls += [
        Call("validate", ["validate", "--params", str(case.dir / "idm.json"),
                          "--segments", str(segments), "--out", str(case.gof)],
             repeats=1 if warm else PIPELINE_VALIDATE_REPEATS),
        _calibrate_call(case),
    ]


def build(workload: str, seed: int, directory: Path, warm: bool = False) -> Case:
    """Generate the workload's inputs from `seed` under `directory`.

    With `warm` the chain is the same but its work is cut down (a tiny GA,
    a 240-s log pair), for the untimed warm-up pass of set-up.
    """
    directory.mkdir(parents=True, exist_ok=True)
    budget = dict(GA_BUDGETS[workload])
    if workload == "ga-short-trips":
        case = Case(workload, seed, directory, "idm", 1.0, budget, [2 * seed, 2 * seed + 1])
        _build_ga(case, fixtures.short_trip_segments(models.default_params("idm")), warm)
    elif workload == "ga-long-blend":
        case = Case(workload, seed, directory, "blend", 0.5, budget, [seed])
        _build_ga(case, fixtures.model_response_segments(
            models.default_params("blend"), n_segments=3, seconds=2000), warm)
    elif workload == "pipeline-20k":
        # the GA is a minor part here; its seed is fixed so that fit_nrmse
        # moves with the logs only
        case = Case(workload, seed, directory, "linear_acc", 1.0, budget, [0])
        _build_pipeline(case, warm)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return case


# ---------------------------------------------------------------------------
# outputs and their checks

def _rel_close(a: float, b: float, tol: float = 1e-9) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b), 1e-300)


def fit_nrmse(case: Case) -> float:
    return float(json.loads(case.result.read_text())["calibration"]["fitness"])


def val_nrmse(case: Case) -> float:
    return float(json.loads(case.gof.read_text())["gof"]["nrmse_spacing"])


def calibration_segments(case: Case):
    segments = cleaning.read_segments_json(case.calib_input)
    return cleaning.split_segments(segments, SPLIT_FRACTION, SPLIT_SEED)[0]


def check_outputs(case: Case) -> list[tuple[str, bool, str]]:
    """Output checks that do not depend on timing; (name, ok, detail)."""
    checks = []
    result = json.loads(case.result.read_text())
    fit = float(result["calibration"]["fitness"])
    best = models.params_from_dict(result["calibration"]["best_params"])
    ref = calib.fitness(case.kind, models.params_to_genes(best),
                        calibration_segments(case), dt=case.dt)
    checks.append(("fit_nrmse_equals_fitness", _rel_close(fit, ref),
                   f"reported {fit!r}, calib.fitness {ref!r}"))

    val = val_nrmse(case)
    sim = np.concatenate([np.asarray(r["spacing"], dtype=float)
                          for r in json.loads(case.val_sim.read_text())["results"]])
    obs = np.concatenate([s.spacing for s in cleaning.read_segments_json(case.val_segments)])
    plain = float(np.sqrt(np.mean((sim - obs) ** 2)) / np.sqrt(np.mean(obs ** 2)))
    checks.append(("val_nrmse_equals_numpy", sim.shape == obs.shape and _rel_close(val, plain),
                   f"validate {val!r}, numpy {plain!r}"))
    if case.val_segments != case.calib_input:  # a held-out split file
        held = float(result["gof_validation"]["nrmse_spacing"])
        checks.append(("val_nrmse_equals_calibrate_heldout", _rel_close(val, held),
                       f"validate {val!r}, calibrate gof_validation {held!r}"))
    return checks
