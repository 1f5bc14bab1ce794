"""Rendering of analysis results as plain-text tables and SVG figures."""

from __future__ import annotations

import json
from importlib import resources

import numpy as np

from . import plots
from .cleaning import FollowingSegment
from .sim import SimResult

_STAT_ROWS = [("mean", "mean"), ("std", "std"), ("min", "min"), ("q25", "25%"),
              ("q50", "50%"), ("q75", "75%"), ("max", "max")]
_VARIABLE_COLUMNS = [("speed", "Speed (ft/s)"), ("accel", "Accel (ft/s^2)"),
                     ("jerk", "Jerk (ft/s^3)"), ("spacing", "Spacing (ft)")]


def load_benchmarks() -> dict:
    """Bundled field-deployment benchmark numbers (stats and model errors)."""
    text = resources.files("cfcalib.data").joinpath("benchmarks.json").read_text()
    return json.loads(text)


def _table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [max(len(h), *(len(r[i]) for r in rows)) for i, h in enumerate(headers)]
    def line(cells):
        return "  ".join(c.rjust(w) for c, w in zip(cells, widths))
    sep = "  ".join("-" * w for w in widths)
    return "\n".join([line(headers), sep] + [line(r) for r in rows]) + "\n"


def _num(value) -> str:
    if value is None:
        return "n/a"
    return f"{value:.4f}"


def render_stats_text(report: dict) -> str:
    """Summary tables for a stats report dict (see stats.analyze_segments)."""
    if not report or not report.get("descriptive"):
        return "no data\n"
    out = []
    out.append(f"samples: {report['n_samples']}   segments: {report['n_segments']}\n")

    out.append("Descriptive statistics (follower)\n")
    headers = [""] + [label for _, label in _VARIABLE_COLUMNS]
    rows = []
    for key, label in _STAT_ROWS:
        row = [label]
        for var, _ in _VARIABLE_COLUMNS:
            row.append(_num(report["descriptive"][var][key]))
        rows.append(row)
    out.append(_table(headers, rows))

    out.append("\nShapiro-Wilk normality\n")
    rows = []
    for var, label in _VARIABLE_COLUMNS:
        entry = report["normality"].get(var)
        if entry is None:
            rows.append([label, "n/a", "n/a", "n/a"])
        else:
            rows.append([label, f"{entry['W']:.4f}", f"{entry['p']:.4g}",
                         "yes" if entry["normal"] else "no"])
    out.append(_table(["variable", "W", "p", "normal"], rows))

    out.append("\nSpearman correlation\n")
    names = report["spearman"]["variables"]
    matrix = report["spearman"]["matrix"]
    rows = []
    for name, row in zip(names, matrix):
        rows.append([name] + [_num(v) for v in row])
    out.append(_table([""] + names, rows))

    out.append("\nVariability (CV; mean per-trip outlier share where defined)\n")
    rows = []
    speed_var = report["variability"]["speed"]
    for who in ("leader", "follower"):
        rows.append([f"{who} speed", _num(speed_var[who]["cv"]),
                     _num(speed_var[who]["mean_outlier_share"])])
    accel_var = report["variability"]["accel"]
    for key in ("follower_plus", "follower_minus", "leader_plus", "leader_minus"):
        rows.append([f"accel {key}", _num(accel_var[key]["cv"]), ""])
    jerk_var = report["variability"]["jerk"]
    rows.append(["jerk follower_plus", _num(jerk_var["follower_plus"]["cv"]), ""])
    rows.append(["jerk follower_minus", _num(jerk_var["follower_minus"]["cv"]), ""])
    # the outlier share covers the whole follower jerk series, both signs
    rows.append(["jerk follower", "", _num(jerk_var["follower_outlier_share"])])
    out.append(_table(["series", "cv", "outliers"], rows))

    comfort = report["jerk_comfort"]
    out.append("\nJerk comfort: share of samples above each |jerk| threshold\n")
    rows = [[f"{th:.2f} ft/s^3", f"{share:.4f}"]
            for th, share in zip(comfort["thresholds"], comfort["shares"])]
    out.append(_table(["threshold", "share"], rows))
    out.append(f"\nacceleration comfort threshold (annotation): "
               f"{report['annotations']['accel_comfort_threshold']} ft/s^2\n")
    return "".join(out)


def render_calibration_text(result: dict) -> str:
    """Error tables for a calibration result JSON (calibrate CLI output)."""
    if not result or "gof_calibration" not in result:
        return "no data\n"
    out = []
    cal = result["calibration"]
    out.append(f"model: {cal['model_kind']}   best fitness (NRMSE spacing): "
               f"{cal['fitness']:.6g}   generations: {cal['generations_run']}\n")
    out.append("best parameters: " + json.dumps(cal["best_params"], sort_keys=True) + "\n\n")
    for label, key in (("Calibration", "gof_calibration"), ("Validation", "gof_validation")):
        gof = result[key]
        out.append(f"{label} errors\n")
        rows = [
            ["NRMSE", f"{gof['nrmse_spacing']:.8f}", f"{gof['nrmse_speed']:.8f}"],
            ["MAE", f"{gof['mae_spacing']:.7f}", f"{gof['mae_speed']:.7f}"],
            ["RMSE", f"{gof['rmse_spacing']:.7f}", f"{gof['rmse_speed']:.7f}"],
        ]
        out.append(_table(["error", "spacing (ft)", "speed (ft/s)"], rows))
        out.append("\n")
    rows = [[f"seed {s['seed']}", f"{s['fitness']:.6g}"] for s in cal["per_seed"]]
    out.append("Per-seed fitness\n")
    out.append(_table(["seed", "fitness"], rows))
    return "".join(out)


def render_benchmark_text() -> str:
    """Bundled benchmark tables for side-by-side comparison."""
    bench = load_benchmarks()
    out = [bench["description"] + "\n\n", "Benchmark descriptive statistics\n"]
    headers = [""] + [label for _, label in _VARIABLE_COLUMNS]
    rows = []
    for key, label in _STAT_ROWS:
        row = [label]
        for var, _ in _VARIABLE_COLUMNS:
            row.append(_num(bench["descriptive_shuttle"][var][key]))
        rows.append(row)
    out.append(_table(headers, rows))
    for label, key in (("calibration", "errors_calibration"), ("validation", "errors_validation")):
        out.append(f"\nBenchmark {label} errors\n")
        rows = []
        for metric in ("nrmse", "mae", "rmse"):
            for quantity in ("spacing", "speed"):
                entry = bench[key][quantity][metric]
                rows.append([f"{metric.upper()} {quantity}",
                             f"{entry['idm']:.8f}", f"{entry['linear_acc']:.8f}",
                             f"{entry['blend']:.8f}"])
        out.append(_table(["error", "idm", "linear_acc", "blend"], rows))
    return "".join(out)


def stats_svgs(segments: list[FollowingSegment]) -> dict[str, str]:
    """Histograms of the follower's speed/accel/jerk and the spacing."""
    from .stats import follower_jerk

    speed = np.concatenate([s.follower_speed for s in segments])
    accel = np.concatenate([s.follower_accel for s in segments])
    jerk = np.concatenate([follower_jerk(s) for s in segments])
    spacing = np.concatenate([s.spacing for s in segments])
    return {
        "hist_speed.svg": plots.histogram_svg(speed, "Follower speed", "ft/s"),
        "hist_accel.svg": plots.histogram_svg(accel, "Follower acceleration", "ft/s^2"),
        "hist_jerk.svg": plots.histogram_svg(jerk, "Follower jerk", "ft/s^3"),
        "hist_spacing.svg": plots.histogram_svg(spacing, "Spacing", "ft"),
    }


def simulation_svgs(segment: FollowingSegment, result: SimResult) -> dict[str, str]:
    """Observed vs simulated spacing and speed for one segment."""
    return {
        f"{segment.id}_spacing.svg": plots.line_plot_svg(
            segment.t,
            {"observed": segment.spacing, "simulated": result.spacing},
            f"Spacing: {segment.id}", "t (s)", "ft"),
        f"{segment.id}_speed.svg": plots.line_plot_svg(
            segment.t,
            {"observed": segment.follower_speed, "simulated": result.follower_speed},
            f"Follower speed: {segment.id}", "t (s)", "ft/s"),
    }
