"""Exploratory trajectory statistics.

Descriptive summaries, Shapiro-Wilk normality, Spearman rank correlation,
coefficient of variation, Tukey-fence outlier shares, and jerk comfort
classification. Quartiles use inclusive linear interpolation throughout
so every consumer sees the same fences.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DomainError, InsufficientDataError, UndefinedStatisticError
from .ingest import backward_rate
from .series import FollowingSegment

# Jerk magnitudes above these to degrade ride comfort (ft/s^3): limit of
# excellent comfort, upper bound for excellent, and the expected maximum.
# The scale is fixed, so every report counts against the same thresholds.
COMFORT_EXCELLENT = 0.92
COMFORT_UPPER_EXCELLENT = 4.03
COMFORT_EXPECTED = 4.82
COMFORT_THRESHOLDS = (COMFORT_EXCELLENT, COMFORT_UPPER_EXCELLENT, COMFORT_EXPECTED)

# Acceleration comfort threshold (ft/s^2); reported as an annotation only.
ACCEL_COMFORT_THRESHOLD = 2.96


@dataclass(frozen=True)
class DescriptiveStats:
    mean: float
    std: float
    min: float
    q25: float
    q50: float
    q75: float
    max: float


def _quantiles(x: np.ndarray, fractions: tuple[float, ...]) -> list[float]:
    """np.percentile's default (linear) quantiles of x, n >= 2, at fractions in [0, 1), bit for bit.

    Each lies `fraction * (n - 1)` along the sorted values, between the two
    values that np.partition puts around it; numpy's interpolation between
    them is written out. The partition takes np.percentile's indices, ends
    included, so that equal values of either sign of zero land as there.
    np.percentile would import numpy.ma (about 10 ms per process).
    """
    at = [fraction * (x.size - 1) for fraction in fractions]
    below = [math.floor(a) for a in at]
    ordered = np.partition(x, sorted({0, x.size - 1, *below, *(b + 1 for b in below)}))
    out = []
    for a, b in zip(at, below):
        lo, hi, weight = float(ordered[b]), float(ordered[b + 1]), a - b
        # from the nearer end, as numpy's lerp does, so that a weight of 1 would give hi
        out.append(hi - (hi - lo) * (1 - weight) if weight >= 0.5 else lo + (hi - lo) * weight)
    return out


def describe(series) -> DescriptiveStats:
    """Sample mean/std (n-1) and inclusive-interpolation quartiles."""
    x = np.asarray(series, dtype=float)
    if x.size < 2:
        raise InsufficientDataError(f"describe needs n >= 2, got {x.size}")
    q25, q50, q75 = _quantiles(x, (0.25, 0.5, 0.75))
    return DescriptiveStats(
        mean=float(np.mean(x)),
        std=float(np.std(x, ddof=1)),
        min=float(np.min(x)),
        q25=float(q25),
        q50=float(q50),
        q75=float(q75),
        max=float(np.max(x)),
    )


# Shapiro-Wilk after Royston (1995), Applied Statistics 44, algorithm AS R94:
# polynomials in 1/sqrt(n) for the two extreme coefficients, and normalizing
# transforms of 1 - W for the p-value (n <= 11: in n; above: in log n).
_SW_A1 = (0.0, 0.221157, -0.147981, -2.07119, 4.434685, -2.706056)
_SW_A2 = (0.0, 0.042981, -0.293762, -1.752461, 5.682633, -3.582633)
_SW_SMALL_GAMMA = (-2.273, 0.459)
_SW_SMALL_MEAN = (0.544, -0.39978, 0.025054, -6.714e-4)
_SW_SMALL_LOG_SD = (1.3822, -0.77857, 0.062767, -0.0020322)
_SW_LARGE_MEAN = (-1.5861, -0.31082, -0.083751, 0.0038915)
_SW_LARGE_LOG_SD = (-0.4803, -0.082676, 0.0030302)


def _poly(coeffs, x: float) -> float:
    """c[0] + c[1] x + c[2] x^2 + ..., by Horner's rule."""
    result = 0.0
    for c in reversed(coeffs):
        result = result * x + c
    return result


def _lower_normal_quantiles(p: np.ndarray) -> np.ndarray:
    """Standard normal quantiles for 0 < p < 0.5, by AS 111 (Beasley & Springer 1977).

    AS R94 was published with this routine and scipy's port keeps it, so
    W here matches scipy's to rounding. It is about 1e-7 off the exact
    quantile; exact quantiles would move W by up to 1e-9 relative.
    """
    q = p - 0.5
    r = q * q
    near = q * (((-25.44106049637 * r + 41.39119773534) * r - 18.61500062529) * r
                + 2.50662823884) / ((((3.13082909833 * r - 21.06224101826) * r
                                      + 23.08336743743) * r - 8.47351093090) * r + 1.0)
    r = np.sqrt(-np.log(p))
    tail = -(((2.32121276858 * r + 4.85014127135) * r - 2.29796479134) * r
             - 2.78718931138) / ((1.63706781897 * r + 3.54388924762) * r + 1.0)
    return np.where(q >= -0.42, near, tail)


def _shapiro_coefficients(n: int) -> np.ndarray:
    """AS R94 weights for the lower half of a sorted sample of size n >= 4."""
    m = _lower_normal_quantiles((np.arange(1, n // 2 + 1) - 0.375) / (n + 0.25))
    summ2 = 2.0 * float(m @ m)
    rsn = 1.0 / math.sqrt(n)
    a = np.empty(n // 2)
    a[0] = _poly(_SW_A1, rsn) - m[0] / math.sqrt(summ2)
    if n > 5:
        a[1] = _poly(_SW_A2, rsn) - m[1] / math.sqrt(summ2)
        k = 2
    else:
        k = 1
    fac = math.sqrt((summ2 - 2.0 * float(m[:k] @ m[:k])) / (1.0 - 2.0 * float(a[:k] @ a[:k])))
    a[k:] = -m[k:] / fac
    return a


def shapiro_wilk(series) -> tuple[float, float]:
    """Shapiro-Wilk W and p-value (Royston's approximation, AS R94, 3 <= n <= 5000)."""
    x = np.asarray(series, dtype=float)
    n = x.size
    if not 3 <= n <= 5000:
        raise DomainError(f"Shapiro-Wilk needs 3 <= n <= 5000, got {n}")
    if np.min(x) == np.max(x):
        raise UndefinedStatisticError("W undefined for a zero-range series")
    # shifting by a central value (as scipy's wrapper does) keeps the
    # scaled sums below well conditioned for data far from zero
    y = np.sort(x) - x[n // 2]
    half = np.full(1, math.sqrt(0.5)) if n == 3 else _shapiro_coefficients(n)
    # antisymmetric weights over the sorted sample: -a ascending, 0 at an odd middle
    coeffs = np.concatenate((-half, np.zeros(n % 2), half[::-1]))
    ac = coeffs - coeffs.mean()
    yc = y / (y[-1] - y[0])
    yc -= yc.mean()
    ssa, ssy, say = float(ac @ ac), float(yc @ yc), float(ac @ yc)
    # 1 - W from a difference of squares, which keeps W near 1 accurate
    root = math.sqrt(ssa * ssy)
    w1 = max((root - say) * (root + say) / (ssa * ssy), 0.0)
    w = 1.0 - w1
    if n == 3:
        # exact: p = (6 / pi) (asin(sqrt W) - pi / 3)
        return w, max(1.0 - 6.0 / math.pi * math.acos(math.sqrt(w)), 0.0)
    if w1 == 0.0:
        return w, 1.0
    log_w1 = math.log(w1)
    if n <= 11:
        gamma = _poly(_SW_SMALL_GAMMA, n)
        if log_w1 >= gamma:  # past the small-sample transform; AS R94's token p
            return w, 1e-99
        z = ((-math.log(gamma - log_w1) - _poly(_SW_SMALL_MEAN, n))
             / math.exp(_poly(_SW_SMALL_LOG_SD, n)))
    else:
        log_n = math.log(n)
        z = (log_w1 - _poly(_SW_LARGE_MEAN, log_n)) / math.exp(_poly(_SW_LARGE_LOG_SD, log_n))
    return w, 0.5 * math.erfc(z / math.sqrt(2.0))


def _mid_ranks(x: np.ndarray) -> np.ndarray:
    """Ranks 1..n with tied values sharing the mean of their ranks; all NaN if x holds a NaN."""
    order = np.argsort(x, kind="stable")
    ordered = x[order]
    # each run of equal values spans sorted positions [start, end)
    bounds = np.append(np.flatnonzero(np.append(True, ordered[1:] != ordered[:-1])), x.size)
    ranks = np.empty(x.size)
    ranks[order] = np.repeat(0.5 * (bounds[:-1] + bounds[1:] + 1), np.diff(bounds))
    if np.isnan(ordered[-1]):
        ranks.fill(np.nan)
    return ranks


def spearman(x, y) -> float:
    """Spearman's rho: Pearson correlation of mid-ranks, ties averaged."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size:
        raise DomainError(f"length mismatch: {x.size} vs {y.size}")
    if x.size < 3:
        raise InsufficientDataError(f"spearman needs n >= 3, got {x.size}")
    rx = _mid_ranks(x)
    ry = _mid_ranks(y)
    dx = rx - rx.mean()
    dy = ry - ry.mean()
    den = np.sqrt(np.sum(dx * dx) * np.sum(dy * dy))
    if den == 0.0:
        raise UndefinedStatisticError("rank variance is zero; correlation undefined")
    return float(np.sum(dx * dy) / den)


def coefficient_of_variation(series) -> float:
    """Sample std over |mean|; undefined for mean-zero series."""
    x = np.asarray(series, dtype=float)
    if x.size < 2:
        raise InsufficientDataError(f"CV needs n >= 2, got {x.size}")
    mean = float(np.mean(x))
    if mean == 0.0:
        raise UndefinedStatisticError("CV undefined for zero-mean series")
    return float(np.std(x, ddof=1)) / abs(mean)


def iqr_outlier_share(series) -> float:
    """Share of points strictly outside the Tukey fences Q1/Q3 -/+ 1.5 IQR."""
    x = np.asarray(series, dtype=float)
    if x.size < 4:
        raise InsufficientDataError(f"IQR outlier share needs n >= 4, got {x.size}")
    q1, q3 = _quantiles(x, (0.25, 0.75))
    iqr = q3 - q1
    lo = q1 - 1.5 * iqr
    hi = q3 + 1.5 * iqr
    return float(np.count_nonzero((x < lo) | (x > hi)) / x.size)


def jerk_comfort_shares(jerk) -> tuple[float, float, float]:
    """Fractions of samples whose |jerk| strictly exceeds each of COMFORT_THRESHOLDS."""
    x = np.abs(np.asarray(jerk, dtype=float))
    if x.size == 0:
        raise InsufficientDataError("jerk series is empty")
    return tuple(float(np.count_nonzero(x > threshold) / x.size)
                 for threshold in COMFORT_THRESHOLDS)


# ---------------------------------------------------------------------------
# segment-level report

def follower_jerk(segment: FollowingSegment) -> np.ndarray:
    """Jerk of the follower: the backward_rate of its acceleration."""
    return backward_rate(segment.follower_accel, segment.t)


def _pooled(segments: list[FollowingSegment], getter) -> np.ndarray:
    return np.concatenate([np.asarray(getter(s), dtype=float) for s in segments])


def _safe_cv(x) -> float | None:
    try:
        return coefficient_of_variation(x)
    except (UndefinedStatisticError, InsufficientDataError):
        return None


def _mean_outlier_share(series) -> float | None:
    """The mean iqr_outlier_share of the series (one per segment) with 4 or more samples."""
    shares = [iqr_outlier_share(x) for x in series if x.size >= 4]
    return float(np.mean(shares)) if shares else None


def analyze_segments(segments: list[FollowingSegment]) -> dict:
    """Full exploratory report over cleaned segments.

    Covers descriptive statistics per variable, normality, the Spearman
    matrix over speed/accel/jerk/spacing/delta-speed, variability (CV and
    mean per-trip outlier share, acceleration and jerk split by sign), and
    jerk comfort shares. Raises DomainError where a statistic leaves the
    float range or turns NaN instead of reporting an infinity: the values
    lie within ±2^53, but times a few ulps apart, such as 5e-324 s, make
    the jerk overflow.
    """
    if not segments:
        raise InsufficientDataError("no segments to analyze")
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return _analyze(segments)
    except FloatingPointError as exc:
        raise DomainError(f"segment values too large for statistics ({exc})") from None


def _analyze(segments: list[FollowingSegment]) -> dict:
    speed = _pooled(segments, lambda s: s.follower_speed)
    accel = _pooled(segments, lambda s: s.follower_accel)
    jerks = [follower_jerk(s) for s in segments]
    jerk = np.concatenate(jerks)
    spacing = _pooled(segments, lambda s: s.spacing)
    delta_speed = _pooled(segments, lambda s: s.follower_speed - s.leader_speed)
    leader_speed = _pooled(segments, lambda s: s.leader_speed)
    leader_accel = _pooled(segments, lambda s: s.leader_accel)

    variables = {"speed": speed, "accel": accel, "jerk": jerk, "spacing": spacing}
    descriptive = {name: asdict(describe(x)) for name, x in variables.items()}

    normality = {}
    for name, x in variables.items():
        try:
            w, p = shapiro_wilk(x)
            normality[name] = {"W": w, "p": p, "normal": p >= 0.05}
        except (DomainError, UndefinedStatisticError):
            normality[name] = None

    corr_names = ["speed", "accel", "jerk", "spacing", "delta_speed"]
    corr_series = [speed, accel, jerk, spacing, delta_speed]
    matrix = [[1.0] * 5 for _ in range(5)]
    for i in range(5):
        for j in range(i + 1, 5):
            try:
                rho = spearman(corr_series[i], corr_series[j])
            except UndefinedStatisticError:
                rho = None
            matrix[i][j] = matrix[j][i] = rho

    variability = {
        "speed": {
            "leader": {"cv": _safe_cv(leader_speed), "mean_outlier_share":
                       _mean_outlier_share(s.leader_speed for s in segments)},
            "follower": {"cv": _safe_cv(speed), "mean_outlier_share":
                         _mean_outlier_share(s.follower_speed for s in segments)},
        },
        "accel": _signed_variability(accel, leader_accel),
        "jerk": {
            "follower_plus": {"cv": _safe_cv(jerk[jerk > 0])},
            "follower_minus": {"cv": _safe_cv(jerk[jerk < 0])},
            "follower_outlier_share": _mean_outlier_share(jerks),
        },
    }

    shares = jerk_comfort_shares(jerk)
    return {
        "n_segments": len(segments),
        "n_samples": int(speed.size),
        "descriptive": descriptive,
        "normality": normality,
        "spearman": {"variables": corr_names, "matrix": matrix},
        "variability": variability,
        "jerk_comfort": {
            "thresholds": list(COMFORT_THRESHOLDS),
            "shares": list(shares),
        },
        "annotations": {"accel_comfort_threshold": ACCEL_COMFORT_THRESHOLD},
    }


def _signed_variability(follower_accel, leader_accel) -> dict:
    """Sample CV of the positive and the negative part of each acceleration series; None where undefined."""
    out = {}
    for label, x in (("follower_plus", follower_accel[follower_accel > 0]),
                     ("follower_minus", follower_accel[follower_accel < 0]),
                     ("leader_plus", leader_accel[leader_accel > 0]),
                     ("leader_minus", leader_accel[leader_accel < 0])):
        out[label] = {"cv": _safe_cv(x)}
    return out
