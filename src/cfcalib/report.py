"""Rendering of analysis results as plain-text tables and SVG figures."""

from __future__ import annotations

import json
import math
from importlib import resources

import numpy as np

from . import plots
from .cleaning import FollowingSegment
from .errors import DomainError
from .jsonio import require_keys, require_numbers
from .sim import SimResult

_STAT_ROWS = [("mean", "mean"), ("std", "std"), ("min", "min"), ("q25", "25%"),
              ("q50", "50%"), ("q75", "75%"), ("max", "max")]
_VARIABLE_COLUMNS = [("speed", "Speed (ft/s)"), ("accel", "Accel (ft/s^2)"),
                     ("jerk", "Jerk (ft/s^3)"), ("spacing", "Spacing (ft)")]
_ACCEL_PARTS = ("follower_plus", "follower_minus", "leader_plus", "leader_minus")
_GOF_KEYS = ("nrmse_spacing", "nrmse_speed", "mae_spacing", "mae_speed",
             "rmse_spacing", "rmse_speed")
# (path of object keys, fields there) that render_stats_text prints with _num
_STATS_NUMBERS = (
    *((("descriptive", var), tuple(key for key, _ in _STAT_ROWS)) for var, _ in _VARIABLE_COLUMNS),
    *((("variability", "speed", who), ("cv", "mean_outlier_share")) for who in ("leader", "follower")),
    *((("variability", "accel", part), ("cv",)) for part in _ACCEL_PARTS),
    (("variability", "jerk", "follower_plus"), ("cv",)),
    (("variability", "jerk", "follower_minus"), ("cv",)),
    (("variability", "jerk"), ("follower_outlier_share",)),
)


def load_benchmarks() -> dict:
    """Bundled field-deployment benchmark numbers (stats and model errors)."""
    text = resources.files("cfcalib.data").joinpath("benchmarks.json").read_text(encoding="utf-8")
    return json.loads(text)


def _table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [max([len(h)] + [len(r[i]) for r in rows]) for i, h in enumerate(headers)]
    def line(cells):
        return "  ".join(c.rjust(w) for c, w in zip(cells, widths))
    sep = "  ".join("-" * w for w in widths)
    return "\n".join([line(headers), sep] + [line(r) for r in rows]) + "\n"


def _num(value) -> str:
    if value is None:
        return "n/a"
    return f"{value:.4f}"


def _descriptive_table(descriptive: dict) -> str:
    """The descriptive statistics, a row per statistic and a column per variable."""
    headers = [""] + [label for _, label in _VARIABLE_COLUMNS]
    rows = [[label] + [_num(descriptive[var][key]) for var, _ in _VARIABLE_COLUMNS]
            for key, label in _STAT_ROWS]
    return _table(headers, rows)


# ---------------------------------------------------------------------------
# input checks: a report input is read from a file, so every field the
# renderers read is checked first and a bad one raises DomainError

def _at(data, path: tuple[str, ...], what: str):
    """The value at `path`, a sequence of object keys into `data`."""
    for key in path:
        require_keys(data, (key,), what)
        data = data[key]
        what = f"{what} {key}"
    return data


def _require_numbers_or_null(data, keys, what: str) -> None:
    """Like jsonio.require_numbers, but a null value is allowed too (printed n/a)."""
    require_keys(data, keys, what)
    require_numbers(data, [key for key in keys if data[key] is not None], what)


def _require_list(data, key: str, what: str) -> list:
    require_keys(data, (key,), what)
    if not isinstance(data[key], list):
        raise DomainError(f"{what}: {key} must be a list")
    return data[key]


def _require_number_items(values: list, what: str, null_ok: bool = False) -> None:
    items = {str(i): value for i, value in enumerate(values)}
    (_require_numbers_or_null if null_ok else require_numbers)(items, list(items), what)


def _check_stats_report(report: dict) -> None:
    what = "stats report"
    require_keys(report, ("n_samples", "n_segments", "annotations"), what)
    require_keys(report["annotations"], ("accel_comfort_threshold",), f"{what} annotations")
    for path, keys in _STATS_NUMBERS:
        _require_numbers_or_null(_at(report, path, what), keys, " ".join((what,) + path))
    normality = _at(report, ("normality",), what)
    require_keys(normality, (), f"{what} normality")  # an object; absent or null means n/a
    for var, _ in _VARIABLE_COLUMNS:
        if normality.get(var) is not None:
            require_keys(normality[var], ("normal",), f"{what} normality {var}")
            require_numbers(normality[var], ("W", "p"), f"{what} normality {var}")
    spearman = _at(report, ("spearman",), what)
    names = _require_list(spearman, "variables", f"{what} spearman")
    matrix = _require_list(spearman, "matrix", f"{what} spearman")
    if (not all(isinstance(name, str) for name in names) or len(matrix) != len(names)
            or not all(isinstance(row, list) and len(row) == len(names) for row in matrix)):
        raise DomainError(f"{what} spearman: matrix must be square over the variable names")
    for name, row in zip(names, matrix):
        _require_number_items(row, f"{what} spearman {name}", null_ok=True)
    comfort = _at(report, ("jerk_comfort",), what)
    for key in ("thresholds", "shares"):
        _require_number_items(_require_list(comfort, key, f"{what} jerk_comfort"),
                              f"{what} jerk_comfort {key}")


def _check_calibration_result(result: dict) -> None:
    what = "calibration result"
    cal = _at(result, ("calibration",), what)
    require_keys(cal, ("model_kind", "best_params", "generations_run"), f"{what} calibration")
    require_numbers(cal, ("fitness",), f"{what} calibration")
    for i, entry in enumerate(_require_list(cal, "per_seed", f"{what} calibration")):
        require_keys(entry, ("seed",), f"{what} per_seed {i}")
        require_numbers(entry, ("fitness",), f"{what} per_seed {i}")
    for key in ("gof_calibration", "gof_validation"):
        require_numbers(_at(result, (key,), what), _GOF_KEYS, f"{what} {key}")


# ---------------------------------------------------------------------------
# renderers

def render_stats_text(report: dict) -> str:
    """Summary tables for a stats report dict (see stats.analyze_segments).

    Raises DomainError when a field the tables read is missing or of the wrong type.
    """
    if not report or not report.get("descriptive"):
        return "no data\n"
    _check_stats_report(report)
    out = []
    out.append(f"samples: {report['n_samples']}   segments: {report['n_segments']}\n")

    out.append("Descriptive statistics (follower)\n")
    out.append(_descriptive_table(report["descriptive"]))

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
    for key in _ACCEL_PARTS:
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
    """Error tables for a calibration result JSON (calibrate CLI output).

    Raises DomainError when a field the tables read is missing or of the wrong type.
    """
    if not result or "gof_calibration" not in result:
        return "no data\n"
    _check_calibration_result(result)
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
    out = [bench["description"] + "\n\n", "Benchmark descriptive statistics\n",
           _descriptive_table(bench["descriptive_shuttle"])]
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
    out.append(_nrmse_caveat(bench))
    return "".join(out)


def _nrmse_caveat(bench: dict) -> str:
    """Why the bundled NRMSE rows do not compare with this tool's NRMSE."""
    spacing = bench["descriptive_shuttle"]["spacing"]
    errors = bench["errors_calibration"]["spacing"]
    implied = errors["rmse"]["idm"] / errors["nrmse"]["idm"]
    # root mean square of a series from its mean and (n - 1) std, n large
    rms = math.hypot(spacing["mean"], spacing["std"])
    return ("\nNote: the bundled NRMSE values do not compare with this tool's NRMSE,\n"
            "rmse / rms(observed). The bundled idm calibration rows imply an observed\n"
            f"spacing RMS of about {implied:,.0f} ft (RMSE / NRMSE); the bundled\n"
            f"descriptive table implies about {rms:,.0f} ft (sqrt(mean^2 + std^2)).\n"
            "The normalization behind the bundled NRMSE is not known.\n")


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
