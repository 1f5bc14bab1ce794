"""Command-line entry point.

Subcommands cover the pipeline end to end: ingest -> clean -> stats /
simulate / calibrate / validate / report. There is one way from GPS
logs to segments: `ingest --leader --follower` puts both logs on one
clock, places the leader's positions on the follower's axis, pairs the
samples and writes the paired series as a pair JSON, and `clean --pair`
cuts it into car-following segments. Every output is written
atomically and deterministically, with a sidecar ``<out>.manifest.json``
recording the command, input digests, config echo, seeds, and tool
version. All randomness flows from explicit seed flags.

Exit codes: 0 success, 1 domain/validation error (one machine-parsable
line on stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from datetime import datetime, timezone
from pathlib import Path


from . import __version__, report as report_mod
from .calib import GaConfig, calibrate_and_validate, gof_report, load_ga_config
from .cleaning import (
    CleaningRules,
    SegmentList,
    clean_segments,
    leader_start_offset,
    pair_trajectories,
    read_pair_json,
    read_segments_json,
    retained_samples,
    write_pair_json,
    write_segments_json,
)
from .errors import CfCalibError, ConfigError, DomainError
from .ingest import derive_kinematics, read_gps_pair
from .jsonio import atomic_write_text, file_sha256, read_json_object, require_keys, write_json
from .models import MODEL_KINDS, load_params, params_from_dict, params_to_dict
from .sim import SimLimits, load_limits, result_to_dict, simulate_all
from .stats import analyze_segments


def _write_manifest(out_path: Path, args: argparse.Namespace, inputs: list[Path],
                    config_echo: dict | None = None, seeds: list[int] | None = None,
                    counts: dict | None = None, segments: SegmentList | None = None) -> None:
    """Write `<out_path>.manifest.json`; given the segments read, it names the path taken."""
    manifest = {
        "command": list(getattr(args, "_argv", [])),
        "subcommand": args.command,
        "inputs": {str(p): file_sha256(p) for p in inputs},
        "config": config_echo or {},
        "seeds": seeds or [],
        "counts": counts or {},
        "tool_version": __version__,
        "wall_clock_utc": datetime.now(timezone.utc).isoformat(),
    }
    if segments is not None:
        manifest["segments_read_from"] = segments.read_from
    write_json(Path(str(out_path) + ".manifest.json"), manifest)


def _require_file(path: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise DomainError(f"input file not found: {p}")
    return p


def _load_limits(args, inputs: list[Path]) -> SimLimits:
    """The --limits file, appended to inputs, or the default envelope without one."""
    if not args.limits:
        return SimLimits()
    src = _require_file(args.limits)
    limits = load_limits(src)
    inputs.append(src)
    return limits


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_ingest(args) -> int:
    leader_src = _require_file(args.leader)
    follower_src = _require_file(args.follower)
    leader_log, follower_log = read_gps_pair(leader_src, follower_src)
    leader = derive_kinematics(leader_log, vehicle_id=leader_src.stem)
    follower = derive_kinematics(follower_log, vehicle_id=follower_src.stem)
    offset = leader_start_offset(leader, follower, leader_log, follower_log)
    paired = pair_trajectories(leader, follower, leader_offset=offset)
    out = Path(args.out)
    write_pair_json(paired, offset, out)
    # a follower time that did not pair lies outside the leader's span or inside a leader gap
    outside = int(((follower.t < leader.t[0]) | (follower.t > leader.t[-1])).sum())
    _write_manifest(out, args, [leader_src, follower_src], counts={
        "leader_fixes": len(leader), "follower_fixes": len(follower), "pairs": len(paired),
        "dropped_outside_leader_span": outside,
        "dropped_in_leader_gap": len(follower) - len(paired) - outside})
    return 0


def _cmd_clean(args) -> int:
    rules = CleaningRules(
        max_accel=args.max_accel,
        max_follower_speed=args.max_follower_speed,
        max_spacing=args.max_spacing,
        min_segment_len=args.min_segment_len,
    )
    src = _require_file(args.pair)
    paired = read_pair_json(src)
    counts = {"paired_samples": len(paired)}
    segments = clean_segments(paired, rules, counts)
    out = Path(args.out)
    write_segments_json(segments, out, retained_samples=retained_samples(segments),
                        paired_samples=len(paired))
    _write_manifest(out, args, [src], config_echo=vars_without(args, "command", "out"),
                    counts=counts)
    return 0


def _cmd_stats(args) -> int:
    src = _require_file(args.segments)
    segments = read_segments_json(src)
    result = analyze_segments(segments)
    out = Path(args.out)
    write_json(out, result)
    _write_manifest(out, args, [src], segments=segments)
    if args.svg_dir:
        svg_dir = Path(args.svg_dir)
        for name, svg in report_mod.stats_svgs(segments).items():
            atomic_write_text(svg_dir / name, svg)
        _write_manifest(svg_dir / "figures", args, [src], segments=segments)
    return 0


def _cmd_simulate(args) -> int:
    model_src = _require_file(args.model)
    seg_src = _require_file(args.segments)
    params = load_params(model_src)
    segments = read_segments_json(seg_src)
    inputs = [model_src, seg_src]
    limits = _load_limits(args, inputs)
    results = simulate_all(params, segments, limits, args.dt)
    out = Path(args.out)
    write_json(out, {
        "model": params_to_dict(params),
        "dt": args.dt,
        "results": [result_to_dict(r, s.id) for r, s in zip(results, segments)],
        "total_collisions": sum(r.collisions for r in results),
    })
    _write_manifest(out, args, inputs, config_echo={"dt": args.dt}, segments=segments)
    if args.svg_dir:
        svg_dir = Path(args.svg_dir)
        for seg, res in zip(segments, results):
            for name, svg in report_mod.simulation_svgs(seg, res).items():
                atomic_write_text(svg_dir / name, svg)
        _write_manifest(svg_dir / "figures", args, inputs, segments=segments)
    return 0


def _cmd_calibrate(args) -> int:
    seg_src = _require_file(args.segments)
    segments = read_segments_json(seg_src)
    inputs = [seg_src]
    config = GaConfig()
    if args.config:
        config_src = _require_file(args.config)
        config = load_ga_config(config_src)
        inputs.append(config_src)
    if args.seeds is not None:
        try:
            seeds = [int(s) for s in args.seeds.split(",")]
        except ValueError:
            raise ConfigError(
                f"--seeds must be comma-separated integers, got {args.seeds!r}") from None
        config = dataclasses.replace(config, seeds=seeds)
    limits = _load_limits(args, inputs)

    result, rep_calib, rep_valid = calibrate_and_validate(
        args.model, segments, config,
        split_fraction=args.split, split_seed=args.split_seed,
        limits=limits, dt=args.dt,
    )
    out = Path(args.out)
    write_json(out, {
        "calibration": result.as_dict(),
        "gof_calibration": dataclasses.asdict(rep_calib),
        "gof_validation": dataclasses.asdict(rep_valid),
        "config": config.as_dict(),
        "split": {"fraction": args.split, "seed": args.split_seed},
        "dt": args.dt,
    })
    _write_manifest(out, args, inputs, config_echo=config.as_dict(), seeds=config.seeds,
                    segments=segments)
    return 0


def _cmd_validate(args) -> int:
    params_src = _require_file(args.params)
    seg_src = _require_file(args.segments)
    data = read_json_object(params_src, "model parameters")
    if "calibration" in data:  # accept a calibrate result file
        require_keys(data["calibration"], ("best_params",), f"{params_src}: calibration")
        data = data["calibration"]["best_params"]
    params = params_from_dict(data)
    segments = read_segments_json(seg_src)
    inputs = [params_src, seg_src]
    limits = _load_limits(args, inputs)
    rep = gof_report(params, segments, limits, args.dt)
    out = Path(args.out)
    write_json(out, {"model": params_to_dict(params), "gof": dataclasses.asdict(rep),
                     "dt": args.dt})
    _write_manifest(out, args, inputs, config_echo={"dt": args.dt}, segments=segments)
    return 0


def _cmd_report(args) -> int:
    if args.benchmarks:
        text = report_mod.render_benchmark_text()
    else:
        text = report_mod.render_text(read_json_object(_require_file(args.input), "report input"))
    if args.out:
        atomic_write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def vars_without(args, *skip) -> dict:
    drop = set(skip) | {"func"}
    return {k: v for k, v in vars(args).items()
            if k not in drop and not k.startswith("_")}


# ---------------------------------------------------------------------------
# parser

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="cfcalib",
        description="Car-following kinematics, simulation, and GA calibration toolkit.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="leader and follower GPS CSV logs -> pair JSON")
    p.add_argument("--leader", required=True, help="leader t,lat,lon CSV")
    p.add_argument("--follower", required=True, help="follower t,lat,lon CSV")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("clean", help="pair JSON -> car-following segments")
    p.add_argument("--pair", required=True, help="pair JSON from `ingest`")
    p.add_argument("--max-accel", type=float, default=CleaningRules.max_accel)
    p.add_argument("--max-follower-speed", type=float, default=CleaningRules.max_follower_speed)
    p.add_argument("--max-spacing", type=float, default=CleaningRules.max_spacing)
    p.add_argument("--min-segment-len", type=int, default=CleaningRules.min_segment_len)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_clean)

    p = sub.add_parser("stats", help="segments -> exploratory statistics report")
    p.add_argument("--segments", required=True)
    p.add_argument("--svg-dir", help="also write histogram SVGs here")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("simulate", help="replay a model along recorded leaders")
    p.add_argument("--model", required=True, help="model parameter JSON")
    p.add_argument("--segments", required=True)
    p.add_argument("--limits", help="actuation limits JSON")
    p.add_argument("--dt", type=float, default=1.0)
    p.add_argument("--svg-dir", help="also write observed-vs-simulated SVGs here")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("calibrate", help="fit a model with the seeded GA")
    p.add_argument("--model", required=True, choices=MODEL_KINDS)
    p.add_argument("--segments", required=True)
    p.add_argument("--config", help="GA config JSON")
    p.add_argument("--seeds", help="comma-separated seed list overriding the config")
    p.add_argument("--split", type=float, default=0.8)
    p.add_argument("--split-seed", type=int, default=0)
    p.add_argument("--limits", help="actuation limits JSON")
    p.add_argument("--dt", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("validate", help="goodness-of-fit of a model on segments")
    p.add_argument("--params", required=True, help="model params JSON or calibrate result")
    p.add_argument("--segments", required=True)
    p.add_argument("--limits", help="actuation limits JSON")
    p.add_argument("--dt", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("report", help="render result JSON as text tables")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", help="stats or calibration result JSON")
    source.add_argument("--benchmarks", action="store_true",
                        help="print the bundled benchmark tables instead")
    p.add_argument("--out", help="write to file instead of stdout")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    args._argv = list(argv) if argv is not None else sys.argv[1:]
    try:
        return args.func(args)
    except CfCalibError as exc:
        sys.stderr.write(json.dumps({"error": exc.code, "message": str(exc)}) + "\n")
        return 1
    except OSError as exc:
        sys.stderr.write(json.dumps({"error": "io", "message": str(exc)}) + "\n")
        return 1
    except MemoryError as exc:  # e.g. a GA population too large to allocate
        sys.stderr.write(json.dumps({"error": "memory", "message": str(exc) or "out of memory"})
                         + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
