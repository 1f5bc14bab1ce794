"""Rendering of analysis results as plain-text tables and SVG figures."""

from __future__ import annotations

import json
import math
from importlib import resources

import numpy as np

from . import plots
from .errors import DomainError
from .jsonio import require_keys, require_numbers
from .series import FollowingSegment
from .sim import SimResult

_STAT_ROWS = [("mean", "mean"), ("std", "std"), ("min", "min"), ("q25", "25%"),
              ("q50", "50%"), ("q75", "75%"), ("max", "max")]
_VARIABLE_COLUMNS = [("speed", "Speed (ft/s)"), ("accel", "Accel (ft/s^2)"),
                     ("jerk", "Jerk (ft/s^3)"), ("spacing", "Spacing (ft)")]
_ACCEL_PARTS = ("follower_plus", "follower_minus", "leader_plus", "leader_minus")


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


class _Field:
    """A value read from a report input, with the keys that lead to it.

    The renderers read every field they print through one, so none is
    printed unchecked: a missing key, a container of the wrong type, or
    a non-number where a number is printed raises DomainError through
    jsonio's checks, naming the path.
    """

    def __init__(self, value, *path: str):
        self.value = value
        self.path = path

    def __str__(self) -> str:
        return " ".join(self.path)

    def __getitem__(self, key: str) -> _Field:
        """The value at `key`; this value must be an object that holds it."""
        require_keys(self.value, (key,), str(self))
        return _Field(self.value[key], *self.path, key)

    def get(self, key: str) -> _Field | None:
        """The value at `key`, or None where it is absent or null; this value must be an object."""
        require_keys(self.value, (), str(self))
        return None if self.value.get(key) is None else self[key]

    def items(self) -> list[_Field]:
        """The entries of this value, which must be a list, each named by its index."""
        if not isinstance(self.value, list):
            raise DomainError(f"{' '.join(self.path[:-1])}: {self.path[-1]} must be a list")
        return [_Field(value, *self.path, str(i)) for i, value in enumerate(self.value)]

    def number(self):
        """This value, which must be a finite number."""
        *where, key = self.path
        require_numbers({key: self.value}, (key,), " ".join(where))
        return self.value


def _num(field: _Field) -> str:
    """A number to four places, or n/a for null."""
    return "n/a" if field.value is None else f"{field.number():.4f}"


def _descriptive_table(descriptive: _Field) -> str:
    """The descriptive statistics, a row per statistic and a column per variable."""
    headers = [""] + [label for _, label in _VARIABLE_COLUMNS]
    rows = [[label] + [_num(descriptive[var][key]) for var, _ in _VARIABLE_COLUMNS]
            for key, label in _STAT_ROWS]
    return _table(headers, rows)


def render_text(data: dict) -> str:
    """The tables of a `stats` report or a `calibrate` result, told apart by their top-level key.

    Any other object gives "no data". Raises DomainError when a field
    the tables print is missing or of the wrong type.
    """
    if "descriptive" in data:
        return render_stats_text(data)
    if "calibration" in data:
        return render_calibration_text(data)
    return "no data\n"


def render_stats_text(report: dict) -> str:
    """Summary tables for a stats report dict (see stats.analyze_segments).

    Raises DomainError when a field the tables print is missing or of the wrong type.
    """
    report = _Field(report, "stats report")
    out = []
    out.append(f"samples: {report['n_samples'].number()}   "
               f"segments: {report['n_segments'].number()}\n")

    out.append("Descriptive statistics (follower)\n")
    out.append(_descriptive_table(report["descriptive"]))

    out.append("\nShapiro-Wilk normality\n")
    rows = []
    normality = report["normality"]
    for var, label in _VARIABLE_COLUMNS:
        entry = normality.get(var)
        if entry is None:
            rows.append([label, "n/a", "n/a", "n/a"])
        else:
            rows.append([label, f"{entry['W'].number():.4f}", f"{entry['p'].number():.4g}",
                         "yes" if entry["normal"].value else "no"])
    out.append(_table(["variable", "W", "p", "normal"], rows))

    out.append("\nSpearman correlation\n")
    spearman = report["spearman"]
    names = [name.value for name in spearman["variables"].items()]
    matrix = spearman["matrix"].items()
    if not all(isinstance(name, str) for name in names):
        raise DomainError(f"{spearman}: variables must be strings")
    if len(matrix) != len(names) or not all(
            isinstance(row.value, list) and len(row.value) == len(names) for row in matrix):
        raise DomainError(f"{spearman}: matrix must be square, one row and column per variable")
    # a row is named by its variable
    rows = [[name] + [_num(v) for v in _Field(row.value, *spearman.path, name).items()]
            for name, row in zip(names, matrix)]
    out.append(_table([""] + names, rows))

    out.append("\nVariability (CV; mean per-trip outlier share where defined)\n")
    rows = []
    variability = report["variability"]
    speed_var = variability["speed"]
    for who in ("leader", "follower"):
        rows.append([f"{who} speed", _num(speed_var[who]["cv"]),
                     _num(speed_var[who]["mean_outlier_share"])])
    accel_var = variability["accel"]
    for key in _ACCEL_PARTS:
        rows.append([f"accel {key}", _num(accel_var[key]["cv"]), ""])
    jerk_var = variability["jerk"]
    rows.append(["jerk follower_plus", _num(jerk_var["follower_plus"]["cv"]), ""])
    rows.append(["jerk follower_minus", _num(jerk_var["follower_minus"]["cv"]), ""])
    # the outlier share covers the whole follower jerk series, both signs
    rows.append(["jerk follower", "", _num(jerk_var["follower_outlier_share"])])
    out.append(_table(["series", "cv", "outliers"], rows))

    comfort = report["jerk_comfort"]
    thresholds, shares = comfort["thresholds"].items(), comfort["shares"].items()
    if len(thresholds) != len(shares):
        raise DomainError(f"{comfort}: thresholds and shares must be of one length")
    out.append("\nJerk comfort: share of samples above each |jerk| threshold\n")
    rows = [[f"{th.number():.2f} ft/s^3", f"{share.number():.4f}"]
            for th, share in zip(thresholds, shares)]
    out.append(_table(["threshold", "share"], rows))
    threshold = report["annotations"]["accel_comfort_threshold"].number()
    out.append(f"\nacceleration comfort threshold (annotation): {threshold} ft/s^2\n")
    return "".join(out)


def render_calibration_text(result: dict) -> str:
    """Error tables for a calibration result JSON (calibrate CLI output).

    Raises DomainError when a field the tables print is missing or of the wrong type.
    """
    result = _Field(result, "calibration result")
    out = []
    cal = result["calibration"]
    kind, params = cal["model_kind"].value, cal["best_params"].value
    out.append(f"model: {kind}   best fitness (NRMSE spacing): "
               f"{cal['fitness'].number():.6g}   generations: "
               f"{cal['generations_run'].number()}\n")
    out.append("best parameters: " + json.dumps(params, sort_keys=True) + "\n\n")
    for label, key in (("Calibration", "gof_calibration"), ("Validation", "gof_validation")):
        gof = result[key]
        out.append(f"{label} errors\n")
        rows = [
            ["NRMSE", f"{gof['nrmse_spacing'].number():.8f}", f"{gof['nrmse_speed'].number():.8f}"],
            ["MAE", f"{gof['mae_spacing'].number():.7f}", f"{gof['mae_speed'].number():.7f}"],
            ["RMSE", f"{gof['rmse_spacing'].number():.7f}", f"{gof['rmse_speed'].number():.7f}"],
        ]
        out.append(_table(["error", "spacing (ft)", "speed (ft/s)"], rows))
        out.append("\n")
    rows = [[f"seed {s['seed'].number()}", f"{s['fitness'].number():.6g}"]
            for s in cal["per_seed"].items()]
    out.append("Per-seed fitness\n")
    out.append(_table(["seed", "fitness"], rows))
    return "".join(out)


def render_benchmark_text() -> str:
    """Bundled benchmark tables for side-by-side comparison."""
    bench = load_benchmarks()
    descriptive = _Field(bench["descriptive_shuttle"], "benchmarks", "descriptive_shuttle")
    out = [bench["description"] + "\n\n", "Benchmark descriptive statistics\n",
           _descriptive_table(descriptive)]
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


# the file names of stats_svgs' figures, in its order
STATS_FIGURES = ("hist_speed.svg", "hist_accel.svg", "hist_jerk.svg", "hist_spacing.svg")


def stats_svgs(segments: list[FollowingSegment]) -> dict[str, str]:
    """Histograms of the follower's speed/accel/jerk and the spacing, by STATS_FIGURES name."""
    from .stats import follower_jerk

    speed = np.concatenate([s.follower_speed for s in segments])
    accel = np.concatenate([s.follower_accel for s in segments])
    jerk = np.concatenate([follower_jerk(s) for s in segments])
    spacing = np.concatenate([s.spacing for s in segments])
    return dict(zip(STATS_FIGURES, (
        plots.histogram_svg(speed, "Follower speed", "ft/s"),
        plots.histogram_svg(accel, "Follower acceleration", "ft/s^2"),
        plots.histogram_svg(jerk, "Follower jerk", "ft/s^3"),
        plots.histogram_svg(spacing, "Spacing", "ft"),
    )))


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
