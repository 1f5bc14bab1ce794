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

Each command settles its inputs in one call, `_settle`, before it reads
anything: each given path must name a file, an output path that resolves
to an input or to an input's ``.columns`` sidecar is refused, and each
input is hashed once. Both manifests, of the output and of the
``--svg-dir`` figures, record those digests, and the segments reader
checks the sidecar against the segments file's. `_write_figures` refuses
a figure name that would leave ``--svg-dir`` before anything is written.

Exit codes: 0 success, 1 domain/validation error (one machine-parsable
line on stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from datetime import datetime, timezone
from pathlib import Path


from . import __version__, report as report_mod
from .calib import GaConfig, calibrate_and_validate, gof_report, load_ga_config
from .cleaning import (CleaningRules, clean_segments, leader_start_offset, pair_trajectories,
                       retained_samples)
from .errors import CfCalibError, ConfigError, DomainError
from .ingest import derive_kinematics, read_gps_pair
from .jsonio import (atomic_write_text, file_sha256, path_bytes, read_json_object, require_keys,
                     write_json)
from .models import MODEL_KINDS, load_params, params_from_dict, params_to_dict
from .series import (SegmentList, columns_path, read_pair_json, read_segments_json,
                     write_pair_json, write_segments_json)
from .sim import SimLimits, load_limits, result_to_dict, simulate_all
from .stats import analyze_segments


def _manifest_path(path: Path) -> Path:
    return Path(f"{path}.manifest.json")


def _write_manifest(out_path: Path, args: argparse.Namespace, digests: dict[str, str],
                    config_echo: dict | None = None, seeds: list[int] | None = None,
                    counts: dict | None = None, segments: SegmentList | None = None) -> None:
    """Write `<out_path>.manifest.json` with the input digests that `_settle` took.

    Given the segments read, it names the path taken.
    """
    manifest = {
        "command": list(getattr(args, "_argv", [])),
        "subcommand": args.command,
        "inputs": digests,
        "config": config_echo or {},
        "seeds": seeds or [],
        "counts": counts or {},
        "tool_version": __version__,
        "wall_clock_utc": datetime.now(timezone.utc).isoformat(),
    }
    if segments is not None:
        manifest["segments_read_from"] = segments.read_from
    write_json(_manifest_path(out_path), manifest)


def _settle(paths: list[str | None],
            outputs: list[Path]) -> tuple[list[Path | None], dict[str, str]]:
    """Each of `paths` as a Path, None where it is None, and each input's sha256 by path.

    Each given path must name a file, and no output may replace an input
    (`_refuse_inputs`). Each input is hashed once, here, before the command
    reads any of them.
    """
    inputs = [None if path is None else Path(path) for path in paths]
    given = list(dict.fromkeys(filter(None, inputs)))
    for path in given:
        if not path.is_file():
            raise DomainError(f"input file not found: {path}")
    _refuse_inputs(given, outputs)
    return inputs, {str(path): file_sha256(path) for path in given}


def _refuse_inputs(inputs, outputs) -> None:
    """Raise DomainError naming both paths when one of `outputs`, the files the command
    will write, resolves to one of `inputs` or to an input's `<input>.columns` sidecar."""
    def real(path):
        # os.path.realpath is Path.resolve without its RuntimeError on a symlink loop
        return os.path.realpath(path_bytes(path))

    named = {real(path): f"input {path}" for path in inputs}
    for path in inputs:
        named.setdefault(real(columns_path(path)),
                         f"{columns_path(path)}, the sidecar of input {path}")
    for out in outputs:
        what = named.get(real(out))
        if what is not None:
            raise DomainError(f"output {out} would replace {what}")


def _outputs(args, *also: Path, figures: tuple[str, ...] = ()) -> list[Path]:
    """--out, its manifest and `also`; under --svg-dir, if given, `figures` and their manifest."""
    out = Path(args.out)
    paths = [out, _manifest_path(out), *also]
    if getattr(args, "svg_dir", None):
        svg_dir = Path(args.svg_dir)
        paths += [_manifest_path(svg_dir / "figures"), *(svg_dir / name for name in figures)]
    return paths


def _write_figures(args, digests: dict[str, str], segments: SegmentList, figures) -> None:
    """Write each (file name, svg) of `figures` under --svg-dir, then the figures' manifest.

    Raises DomainError, before any file is written, for a name that is not
    one path component, holds NUL, repeats an earlier name or resolves to
    an input, one of `digests`; the line names the figure, and so the
    segment id it holds.
    """
    svg_dir, named = Path(args.svg_dir), {}
    for name, svg in figures:
        if "\0" in name or Path(name).name != name:
            raise DomainError(f"figure {name!r} is not one file name in --svg-dir {svg_dir}")
        if name in named:
            raise DomainError(f"figure {name!r} would be written twice: two segments share its id")
        named[name] = svg
    _refuse_inputs(digests, [svg_dir / name for name in named])
    for name, svg in named.items():
        atomic_write_text(svg_dir / name, svg)
    _write_manifest(svg_dir / "figures", args, digests, segments=segments)


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_ingest(args) -> int:
    out = Path(args.out)
    (leader_src, follower_src), digests = _settle([args.leader, args.follower], _outputs(args))
    leader_log, follower_log = read_gps_pair(leader_src, follower_src)
    leader = derive_kinematics(leader_log, vehicle_id=leader_src.stem)
    follower = derive_kinematics(follower_log, vehicle_id=follower_src.stem)
    offset = leader_start_offset(leader, follower, leader_log, follower_log)
    paired = pair_trajectories(leader, follower, leader_offset=offset)
    write_pair_json(paired, offset, out)
    # a follower time that did not pair lies outside the leader's span or inside a leader gap
    outside = int(((follower.t < leader.t[0]) | (follower.t > leader.t[-1])).sum())
    _write_manifest(out, args, digests, counts={
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
    out = Path(args.out)
    (pair_src,), digests = _settle([args.pair], _outputs(args, columns_path(out)))
    paired = read_pair_json(pair_src)
    counts = {"paired_samples": len(paired)}
    segments = clean_segments(paired, rules, counts)
    write_segments_json(segments, out, retained_samples=retained_samples(segments),
                        paired_samples=len(paired))
    _write_manifest(out, args, digests, config_echo=vars_without(args, "command", "out"),
                    counts=counts)
    return 0


def _cmd_stats(args) -> int:
    out = Path(args.out)
    (seg_src,), digests = _settle([args.segments],
                                  _outputs(args, figures=report_mod.STATS_FIGURES))
    segments = read_segments_json(seg_src, digests[str(seg_src)])
    result = analyze_segments(segments)
    if args.svg_dir:
        _write_figures(args, digests, segments, report_mod.stats_svgs(segments).items())
    write_json(out, result)
    _write_manifest(out, args, digests, segments=segments)
    return 0


def _cmd_simulate(args) -> int:
    out = Path(args.out)
    (seg_src, model_src, limits_src), digests = _settle(
        [args.segments, args.model, args.limits or None], _outputs(args))
    params = load_params(model_src)
    segments = read_segments_json(seg_src, digests[str(seg_src)])
    limits = load_limits(limits_src) if limits_src else SimLimits()
    results = simulate_all(params, segments, limits, args.dt)
    if args.svg_dir:
        _write_figures(args, digests, segments, [
            figure for seg, res in zip(segments, results)
            for figure in report_mod.simulation_svgs(seg, res).items()])
    write_json(out, {
        "model": params_to_dict(params),
        "dt": args.dt,
        "results": [result_to_dict(r, s.id) for r, s in zip(results, segments)],
        "total_collisions": sum(r.collisions for r in results),
    })
    _write_manifest(out, args, digests, config_echo={"dt": args.dt}, segments=segments)
    return 0


def _cmd_calibrate(args) -> int:
    out = Path(args.out)
    (seg_src, config_src, limits_src), digests = _settle(
        [args.segments, args.config or None, args.limits or None], _outputs(args))
    segments = read_segments_json(seg_src, digests[str(seg_src)])
    config = load_ga_config(config_src) if config_src else GaConfig()
    if args.seeds is not None:
        try:
            seeds = [int(s) for s in args.seeds.split(",")]
        except ValueError:
            raise ConfigError(
                f"--seeds must be comma-separated integers, got {args.seeds!r}") from None
        config = dataclasses.replace(config, seeds=seeds)
    limits = load_limits(limits_src) if limits_src else SimLimits()

    result, rep_calib, rep_valid = calibrate_and_validate(
        args.model, segments, config,
        split_fraction=args.split, split_seed=args.split_seed,
        limits=limits, dt=args.dt,
    )
    write_json(out, {
        "calibration": result.as_dict(),
        "gof_calibration": dataclasses.asdict(rep_calib),
        "gof_validation": dataclasses.asdict(rep_valid),
        "config": config.as_dict(),
        "split": {"fraction": args.split, "seed": args.split_seed},
        "dt": args.dt,
    })
    _write_manifest(out, args, digests, config_echo=config.as_dict(), seeds=config.seeds,
                    segments=segments)
    return 0


def _cmd_validate(args) -> int:
    out = Path(args.out)
    (seg_src, params_src, limits_src), digests = _settle(
        [args.segments, args.params, args.limits or None], _outputs(args))
    data = read_json_object(params_src, "model parameters")
    if "calibration" in data:  # accept a calibrate result file
        require_keys(data["calibration"], ("best_params",), f"{params_src}: calibration")
        data = data["calibration"]["best_params"]
    params = params_from_dict(data)
    segments = read_segments_json(seg_src, digests[str(seg_src)])
    limits = load_limits(limits_src) if limits_src else SimLimits()
    rep = gof_report(params, segments, limits, args.dt)
    write_json(out, {"model": params_to_dict(params), "gof": dataclasses.asdict(rep),
                     "dt": args.dt})
    _write_manifest(out, args, digests, config_echo={"dt": args.dt}, segments=segments)
    return 0


def _cmd_report(args) -> int:
    if args.benchmarks:
        text = report_mod.render_benchmark_text()
    else:
        (src,), _ = _settle([args.input], [Path(args.out)] if args.out else [])
        text = report_mod.render_text(read_json_object(src, "report input"))
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
