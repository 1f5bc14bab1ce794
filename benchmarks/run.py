#!/usr/bin/env python3
"""cfcalib benchmark: one workload, one seed, one measured run.

Run from the repository root:

  python3 benchmarks/run.py --workload pipeline-20k --seed 1 --seconds 35 --trace 0

The run builds the workload's inputs from --seed, sets up (imports
cfcalib in a fresh interpreter, generates the inputs and makes a warm-up
pass, three times, median reported), then repeats the workload's chain of
``cfcalib.cli.main`` calls in this one process, with at least two
passes and none that would end after --seconds. ``--threads`` stays at its default.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, medians over
the passes. Their times are scaled to the nominal speed of a fixed
reference workload (speedref.py) timed before every call, which takes
the host's changes of speed out of them; the wall times are kept in the
result file. --trace 1 alternates untraced and traced passes and reports
the per-layer metrics: self times of spans recorded around cfcalib's
public layer functions, counts recorded at the same boundaries, kernel
and fitness timings on the workload's own data, and the tracing
overhead.

Every invocation of cfcalib is attempted and counted; one that exits
non-zero or raises (including SystemExit) is a failed operation and the
run goes on. Output checks run after the passes. The human-readable
report comes first; the last line of stdout is the JSON result. A full
result file with machine info goes to .bench_results/ (or --out).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STAGES = ("ingest", "clean", "simulate", "validate", "calibrate")
CLI_STAGES = ("ingest", "clean", "stats", "simulate", "validate", "calibrate")
SETUP_REPEATS = 3
MIN_PASSES = 2
KERNEL_STATES = 2000
KERNEL_REPEATS = 5
FITNESS_BATCH = 12
REF_PER_CALL = 4  # reference samples before each call of a pass
REF_PER_SETUP = 5  # reference samples before and after each set-up repetition
# A call's scale comes from the reference groups from REF_WINDOW calls
# before it to REF_WINDOW after it: a few seconds, in which the host
# mostly keeps one speed.
REF_WINDOW = 2


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, statistics.median(values), q3


def _summary(values: list[float]) -> dict:
    q1, med, q3 = _quartiles(list(values))
    return {"value": med, "q1": q1, "q3": q3, "n": len(values)}


def _single(value: float, n: int = 1) -> dict:
    """A value measured once (n: how many samples it summarises)."""
    return {"value": value, "q1": value, "q3": value, "n": n}


def _invoke(cli_main, argv: list[str]) -> str | None:
    """Run one CLI call; None on exit 0, else what went wrong."""
    try:
        rc = cli_main(argv)
    except SystemExit as exc:
        return f"SystemExit({exc.code})"
    except Exception as exc:  # counted as a failed operation, the run goes on
        return type(exc).__name__
    return None if rc == 0 else f"exit {rc}"


def run_pass(case, cli_main, ref, tracer=None) -> dict:
    """One pass of the workload's chain; stage wall times and failures.

    A stage's time is the sum over its calls of each call's median time
    over its repeats. A traced pass makes every call once, so that span
    sums are per pass of the chain. `timed` lists each call's stage,
    median time and the reference group taken just before it.
    """
    times = {stage: 0.0 for stage in CLI_STAGES}
    timed = []
    failures = []
    attempted = 0
    pass_start = time.perf_counter()
    for call in case.calls:
        if call.before is not None:
            call.before()
        group = ref.sample(REF_PER_CALL)
        samples = []
        for _ in range(1 if tracer else call.repeats):
            # each CLI call starts from a collected heap, as a fresh
            # process would; collector pauses caused by earlier calls then
            # stay out of its time
            gc.collect()
            start = time.perf_counter()
            if tracer is None:
                error = _invoke(cli_main, call.argv)
            else:
                with tracer.span(f"cli.{call.stage}"):
                    error = _invoke(cli_main, call.argv)
            samples.append(time.perf_counter() - start)
            attempted += 1
            if error is not None:
                failures.append((call.stage, error))
        times[call.stage] += statistics.median(samples)
        timed.append((call.stage, statistics.median(samples), group))
    return {"times": times, "timed": timed, "failures": failures, "calls": attempted,
            "elapsed": time.perf_counter() - pass_start,
            "result_bytes": case.result.read_bytes() if case.result.exists() else b""}


def _machine() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "CF_CALIB_THREADS": os.environ.get("CF_CALIB_THREADS"),
    }


def _kernel_us(case) -> dict[str, float]:
    """Time per call of each public kernel on states from the workload's data."""
    import numpy as np
    from cfcalib import cleaning, models

    segments = cleaning.read_segments_json(case.calib_input)
    cols = {name: np.concatenate([getattr(s, name) for s in segments])
            for name in ("leader_pos", "follower_pos", "follower_speed", "leader_speed",
                         "leader_accel")}
    spacing = cols["leader_pos"] - cols["follower_pos"]
    ok = np.flatnonzero((spacing > 0) & (cols["follower_speed"] >= 0)
                        & (cols["leader_speed"] >= 0))
    pick = ok[np.linspace(0, len(ok) - 1, min(KERNEL_STATES, len(ok))).astype(int)]
    states = [models.CfState(s=float(cols["leader_pos"][i] - cols["follower_pos"][i]),
                             v=float(cols["follower_speed"][i]),
                             v_l=float(cols["leader_speed"][i]),
                             a_l=float(cols["leader_accel"][i]),
                             x_l=float(cols["leader_pos"][i]),
                             x_f=float(cols["follower_pos"][i])) for i in pick]
    idm = models.default_params("idm")
    idm_args = [(st.s, st.v, st.v - st.v_l) for st in states]
    blend = models.default_params("blend")
    acc = models.default_params("linear_acc")
    loops = {
        "models.idm_accel_us": lambda: [models.idm_accel(idm, *a) for a in idm_args],
        "models.blend_accel_us": lambda: [models.blend_accel(blend, st) for st in states],
        "models.linear_acc_accel_us": lambda: [models.linear_acc_accel(acc, st) for st in states],
    }
    out = {}
    for name, loop in loops.items():
        samples = []
        for _ in range(KERNEL_REPEATS):
            start = time.perf_counter()
            loop()
            samples.append((time.perf_counter() - start) / len(states) * 1e6)
        out[name] = statistics.median(samples)
    return out


def _fitness_batch(case, workloads) -> tuple[list[float], float]:
    """Per-call ms and fault share of calib.fitness on seeded in-bounds genes."""
    import numpy as np
    from cfcalib import calib, models

    segments = workloads.calibration_segments(case)
    bounds = np.array([(lo, hi) for _, lo, hi, _ in models.GENE_BOUNDS[case.kind]])
    genes = np.random.default_rng(case.seed).uniform(
        bounds[:, 0], bounds[:, 1], size=(FITNESS_BATCH, len(bounds)))
    times, faults = [], 0
    for g in genes:
        start = time.perf_counter()
        value = calib.fitness(case.kind, g, segments, dt=case.dt)
        times.append((time.perf_counter() - start) * 1e3)
        faults += value >= calib.FAULT_FITNESS
    return times, faults / len(genes)


def layer_metrics(case, traced: list[dict], untraced: list[dict], tracer,
                  workloads) -> dict[str, dict]:
    from tracing import count_sums, self_times

    per_pass: dict[str, list[float]] = {}

    def add(name, value):
        per_pass.setdefault(name, []).append(float(value))

    for p in traced:
        spans = [sp for sp in tracer.spans if sp.run_id == p["run_id"]]
        st = self_times(spans)
        cs = count_sums(spans)
        read_s = st.get("ingest.read_gps_pair", 0.0)
        derive_s = st.get("ingest.derive_kinematics", 0.0)
        add("ingest.read_gps_pair_s", read_s)
        add("ingest.derive_kinematics_s", derive_s)
        add("ingest.rows_per_s", case.csv_rows / (read_s + derive_s))
        add("cleaning.pair_trajectories_s", st.get("cleaning.pair_trajectories", 0.0))
        add("cleaning.clean_segments_s", st.get("cleaning.clean_segments", 0.0))
        add("cleaning.retained_ratio", cs["cleaning.clean_segments.retained"]
            / cs["cleaning.pair_trajectories.paired"])
        add("cleaning.read_segments_json_s", st.get("cleaning.read_segments_json", 0.0))
        for stage in CLI_STAGES:
            add(f"cli.{stage}_self_s", st.get(f"cli.{stage}", 0.0))
        add("stats.analyze_segments_s", st.get("stats.analyze_segments", 0.0))
        add("stats.failed", sum(1 for stage, _ in p["failures"] if stage == "stats"))
        sim_s = st.get("sim.simulate_all", 0.0)
        steps = cs.get("sim.simulate_all.steps", 0)
        add("sim.simulate_all_s", sim_s)
        add("sim.steps", steps)
        add("sim.step_us", sim_s / steps * 1e6 if steps else 0.0)
        add("sim.collisions", cs.get("sim.simulate_all.collisions", 0))
        add("calib.ga_generation_s", st["calib.ga_calibrate"]
            / cs["calib.ga_calibrate.generations"])
        add("calib.evals", cs["calib.ga_calibrate.evals"])
        add("calib.gof_report_s", st.get("calib.gof_report", 0.0))

    metrics = {name: _summary(values) for name, values in per_pass.items()}
    # outputs are byte-identical from pass to pass, so sizes are read once;
    # every call given --segments parses that file with read_segments_json
    metrics["cleaning.segments_json_bytes"] = _single(sum(
        Path(a).stat().st_size for call in case.calls
        for flag, a in zip(call.argv, call.argv[1:]) if flag == "--segments"))
    metrics["cli.pair_json_bytes"] = _single(case.pair.stat().st_size)
    for name, value in _kernel_us(case).items():
        metrics[name] = _single(value, KERNEL_REPEATS)
    fit_ms, fault_ratio = _fitness_batch(case, workloads)
    metrics["calib.fitness_ms"] = _summary(fit_ms)
    metrics["calib.fault_ratio"] = _single(fault_ratio, FITNESS_BATCH)

    def chain(passes):
        return statistics.median(sum(p["times"].values()) for p in passes)

    metrics["trace.overhead_s"] = _single(chain(traced) - chain(untraced),
                                          len(traced) + len(untraced))
    return metrics


def e2e_metrics(case, passes: list[dict], setup_s: float, setup_n: int,
                workloads) -> dict[str, dict]:
    """End-to-end metrics, from the scaled stage times of the passes."""
    metrics = {f"stage_{stage}_s": _summary([p["scaled"][stage] for p in passes])
               for stage in STAGES}
    # the sum of the stage medians: a pass lasts seconds, long enough to
    # straddle the machine's changes of speed, while each stage sample
    # mostly sits in one
    metrics["pipeline_s"] = {key: sum(metrics[f"stage_{stage}_s"][key] for stage in STAGES)
                             for key in ("value", "q1", "q3")}
    metrics["pipeline_s"]["n"] = len(passes)
    metrics["evals_per_s"] = _summary([case.evals / p["scaled"]["calibrate"] for p in passes])
    metrics["setup_s"] = _single(setup_s, setup_n)
    # deterministic: the byte-identity check covers every pass
    metrics["fit_nrmse"] = _single(workloads.fit_nrmse(case))
    metrics["val_nrmse"] = _single(workloads.val_nrmse(case))
    # ru_maxrss is in KiB on Linux
    metrics["peak_rss_mb"] = _single(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="result file (default .bench_results/<workload>/...)")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "cfcalib" / "__init__.py").is_file() or not spec_path.is_file():
        sys.stderr.write(f"cfcalib sources or BENCHMARK.json not found under {ROOT}\n")
        return 2
    spec = json.loads(spec_path.read_text())
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in whys:
        parser.error(f"--workload must be one of {sorted(whys)}")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    sys.path.insert(0, str(ROOT / "src"))
    import cfcalib.cli
    if Path(cfcalib.__file__).resolve().parent != ROOT / "src" / "cfcalib":
        sys.stderr.write(f"imported cfcalib from {cfcalib.__file__}, not from {ROOT}/src\n")
        return 2
    import speedref
    import tracing
    import workloads

    cli_main = cfcalib.cli.main
    ref = speedref.SpeedRef()
    ref.sample(1)  # first call warms the reference's own code paths
    ref.groups.clear()
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        # set-up, repeated: a fresh interpreter's import of cfcalib (numpy
        # and scipy with it), the inputs and a warm-up pass
        setups = []
        for i in range(SETUP_REPEATS):
            ref.sample(REF_PER_SETUP)
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import cfcalib.cli"], cwd=ROOT, check=True,
                           env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, timeout=120)
            case = workloads.build(args.workload, args.seed, work / f"setup{i}")
            warm = workloads.build(args.workload, args.seed, work / f"setup{i}" / "warm",
                                   warm=True)
            run_pass(warm, cli_main, ref)
            setups.append(time.perf_counter() - start)
            ref.sample(REF_PER_SETUP)
        setup_wall_s = statistics.median(setups)
        setup_s = setup_wall_s * ref.scale(0, len(ref.groups))

        tracer = tracing.Tracer() if args.trace else None
        passes = []
        start = time.perf_counter()
        # no pass starts that would, at the median pass time so far, end
        # after --seconds
        while len(passes) < MIN_PASSES or (
                time.perf_counter() - start + statistics.median(
                    p["elapsed"] for p in passes) <= args.seconds):
            traced = tracer is not None and len(passes) % 2 == 1
            if traced:
                tracer.run_id = len(passes)
                with tracer.installed():
                    p = run_pass(case, cli_main, ref, tracer)
            else:
                p = run_pass(case, cli_main, ref)
            p["run_id"] = len(passes)
            p["traced"] = traced
            passes.append(p)
        ref.sample(REF_PER_CALL)  # the speed after the last call
        for p in passes:
            p["scaled"] = {stage: 0.0 for stage in CLI_STAGES}
            for stage, seconds, group in p["timed"]:
                p["scaled"][stage] += seconds * ref.scale(group - REF_WINDOW,
                                                          group + REF_WINDOW)

        attempted = sum(p["calls"] for p in passes)
        failures = [f for p in passes for f in p["failures"]]
        unexpected = [f for f in failures if f[0] != "stats"]
        checks = [("expected_stages_exit_0", not unexpected,
                   f"{len(unexpected)} failed: {sorted(set(unexpected))}" if unexpected
                   else f"all non-stats calls of {len(passes)} passes exited 0")]
        identical = all(p["result_bytes"] == passes[0]["result_bytes"] for p in passes)
        checks.append(("calibrate_result_byte_identical", identical and bool(passes[0]["result_bytes"]),
                       f"{len(passes)} passes compared"))
        if not unexpected:
            checks += workloads.check_outputs(case)

        if args.trace:
            metrics = layer_metrics(case, [p for p in passes if p["traced"]],
                                    [p for p in passes if not p["traced"]], tracer, workloads)
        else:
            metrics = e2e_metrics(case, passes, setup_s, SETUP_REPEATS, workloads)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:  # another run still uses it
            pass

    names = [m["name"] for m in wanted]
    missing = sorted(set(names) - set(metrics))
    if missing:
        sys.stderr.write(f"benchmark did not produce {missing}\n")
        return 3
    units = {m["name"]: m["unit"] for m in wanted}
    correct = all(ok for _, ok, _ in checks)

    print(f"workload {args.workload} (seed {args.seed}, trace {args.trace}): "
          f"{whys[args.workload]}")
    print(f"{len(passes)} passes in one process; set-up repeated {SETUP_REPEATS} times")
    reference = {**_summary(ref.samples), "nominal": speedref.NOMINAL_S}
    wall = {f"stage_{stage}_s": statistics.median(p["times"][stage] for p in passes)
            for stage in STAGES}
    wall["setup_s"] = setup_wall_s
    print(f"  reference workload {reference['value'] * 1e3:.4g} ms median of n={reference['n']}"
          f" (nominal {speedref.NOMINAL_S * 1e3:.4g} ms); wall times: "
          + ", ".join(f"{k} {v:.4g}" for k, v in wall.items()))
    for name in names:
        m = metrics[name]
        print(f"  {name:32s} {m['value']:<14.6g} {units[name]:8s} "
              f"median of n={m['n']}, quartiles {m['q1']:.6g} .. {m['q3']:.6g}")
    kinds = {}
    for stage, error in failures:
        kinds[f"{stage}: {error}"] = kinds.get(f"{stage}: {error}", 0) + 1
    print(f"  ops attempted {attempted}, failed {len(failures)}, ops_failed_frac "
          f"{len(failures) / attempted:.6g} {dict(sorted(kinds.items()))}")
    for name, ok, detail in checks:
        print(f"  check {name}: {'PASS' if ok else 'FAIL'} ({detail})")

    out = Path(args.out) if args.out else (
        ROOT / ".bench_results" / args.workload / f"seed{args.seed}-trace{args.trace}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({
        "workload": args.workload, "why": whys[args.workload], "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "passes": len(passes),
        "machine": _machine(), "correct": correct, "checks": checks,
        "attempted": attempted, "failed": len(failures), "failures": kinds,
        "reference_s": reference, "wall_s": wall,
        "per_pass": [{"times": p["times"], "scaled": p["scaled"]} for p in passes],
        "reference_groups_s": ref.groups,
        "metrics": {n: {**metrics[n], "unit": units[n]} for n in names},
    }, indent=1, sort_keys=True) + "\n")
    if tracer is not None:
        tracer.write(out.with_suffix(".spans.jsonl"))

    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": len(failures),
        "metrics": {n: {"value": metrics[n]["value"], "unit": units[n]} for n in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
