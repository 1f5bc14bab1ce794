import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cfcalib import (
    DomainError,
    InsufficientDataError,
    UndefinedStatisticError,
    coefficient_of_variation,
    describe,
    iqr_outlier_share,
    jerk_comfort_shares,
    shapiro_wilk,
    spearman,
)
from cfcalib.fixtures import constant_leader_segment, jerk_comfort_series, short_trip_segments
from cfcalib.models import default_params
from cfcalib.report import render_stats_text
from cfcalib.series import write_segments_json
from cfcalib.stats import analyze_segments

# weights (lbs) of eleven men: the classic W-test worked example,
# W = 0.7888 under Royston's approximation (matches R's shapiro.test)
ROYSTON_VECTOR = [148, 154, 158, 160, 161, 162, 166, 170, 182, 195, 236]
ROYSTON_W = 0.7888

SRC = Path(__file__).resolve().parents[1] / "src"


def rank_oracle(values):
    """Brute-force mid-ranks: sort-based, ties averaged."""
    values = list(values)
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
    mx = sum(x) / n
    my = sum(y) / n
    num = sum((a - mx) * (b - my) for a, b in zip(x, y))
    den = (sum((a - mx) ** 2 for a in x) * sum((b - my) ** 2 for b in y)) ** 0.5
    return num / den


# 2 to 500 values in runs of equal ones: ties, constant stretches, signed
# zeros and magnitudes from subnormal to 1e150, whose squares describe's
# std can sum
RUNS = st.lists(
    st.tuples(st.one_of(st.floats(-1e150, 1e150), st.sampled_from([0.0, -0.0, 1.0, 2.5])),
              st.integers(1, 30)),
    min_size=1, max_size=60,
).map(lambda runs: [v for v, k in runs for _ in range(k)][:500]).filter(lambda x: len(x) >= 2)


class TestDescribe:
    def test_constant_series(self):
        d = describe([2.0, 2.0, 2.0])
        assert d.mean == 2.0
        assert d.std == 0.0
        assert d.q25 == d.q50 == d.q75 == 2.0

    def test_median_interpolates(self):
        assert describe([1, 2, 3, 4]).q50 == 2.5

    def test_outlier_heavy_std(self):
        # direct n-1 formula: var = (10055 - 115^2/6)/5
        d = describe([1, 2, 3, 4, 5, 100])
        assert d.std == pytest.approx(39.62532860010963, rel=1e-12)

    def test_quartiles_ordered(self):
        d = describe(np.random.default_rng(0).normal(size=200))
        assert d.min <= d.q25 <= d.q50 <= d.q75 <= d.max

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=40))
    def test_order_invariance(self, values):
        base = describe(values)
        shuffled = describe(list(reversed(sorted(values))))
        assert base.mean == pytest.approx(shuffled.mean, rel=1e-9, abs=1e-9)
        assert base.q50 == pytest.approx(shuffled.q50, rel=1e-9, abs=1e-9)

    def test_needs_two(self):
        with pytest.raises(InsufficientDataError):
            describe([1.0])

    @settings(max_examples=300, deadline=None)
    @given(RUNS)
    def test_quartiles_are_np_percentile_bit_for_bit(self, values):
        d = describe(values)
        want = np.percentile(np.array(values), [25, 50, 75])
        assert np.array([d.q25, d.q50, d.q75]).tobytes() == want.tobytes()


class TestShapiroWilk:
    def test_uniform_grid_flagged_non_normal(self):
        # a 100-point uniform lattice is decisively non-normal
        _, p = shapiro_wilk(np.linspace(0.0, 1.0, 100))
        assert p < 0.05

    def test_minimum_n(self):
        w, p = shapiro_wilk([1.0, 2.0, 3.0])
        assert 0.0 < w <= 1.0

    def test_reference_vector(self):
        w, _ = shapiro_wilk(ROYSTON_VECTOR)
        assert w == pytest.approx(ROYSTON_W, abs=1e-3)

    def test_n_out_of_range(self):
        with pytest.raises(DomainError):
            shapiro_wilk([1.0, 2.0])
        with pytest.raises(DomainError):
            shapiro_wilk(np.zeros(5001))

    def test_zero_range_undefined(self):
        with pytest.raises(UndefinedStatisticError):
            shapiro_wilk([4.0] * 12)


class TestSpearman:
    def test_perfect_monotone(self):
        assert spearman([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)

    def test_perfect_inverse(self):
        assert spearman([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_tied_case_against_rank_oracle(self):
        x = [1.0, 2.0, 2.0, 4.0]
        y = [1.0, 3.0, 2.0, 4.0]
        expected = pearson_oracle(rank_oracle(x), rank_oracle(y))
        assert expected == pytest.approx(0.9486832980505138, rel=1e-12)
        assert spearman(x, y) == pytest.approx(expected, rel=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            spearman([1, 2, 3], [1, 2])

    def test_constant_input_undefined(self):
        with pytest.raises(UndefinedStatisticError):
            spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    @given(st.lists(st.floats(0.5, 100), min_size=4, max_size=30, unique=True))
    @settings(max_examples=50)
    def test_monotone_transform_invariance(self, x):
        # cubing is injective away from the underflow region
        y = [3.0 * v + 1.0 for v in x]
        rho = spearman(x, y)
        rho_cubed = spearman([v ** 3 for v in x], y)
        assert rho == pytest.approx(rho_cubed, abs=1e-9)
        assert rho == pytest.approx(1.0)


def parity_series(n: int, kind: str, rng) -> np.ndarray:
    if kind == "normal":
        return rng.normal(size=n)
    if kind == "exponential":
        return rng.exponential(size=n)
    if kind == "uniform":
        return rng.uniform(size=n)
    return np.round(rng.normal(size=n) * 1.5)  # heavily tied: a handful of integers


PARITY_SIZES = list(range(3, 61)) + [100, 1000, 5000]
PARITY_KINDS = ("normal", "exponential", "uniform", "tied")


class TestScipyParity:
    """The numpy ports against scipy, the reference they replace (skipped without scipy)."""

    @pytest.mark.parametrize("kind", PARITY_KINDS)
    def test_shapiro_wilk_matches_scipy(self, kind):
        sps = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(20240 + PARITY_KINDS.index(kind))
        checked = 0
        for n in PARITY_SIZES:
            x = parity_series(n, kind, rng)
            if np.min(x) == np.max(x):
                continue
            w, p = shapiro_wilk(x)
            ref_w, ref_p = (float(v) for v in sps.shapiro(x))
            # same coefficients and quantile routine: W agrees to rounding;
            # scipy's normal tail (AS 66) is good to about 1e-10 relative.
            # At n = 3, p is W's exact distribution function, which is 0 at
            # its lower end W = 3/4 (two tied values): there a rounding of W
            # moves p by a few 1e-16 absolute.
            assert w == pytest.approx(ref_w, rel=1e-12), (kind, n)
            assert p == pytest.approx(ref_p, rel=1e-9, abs=1e-15 if n == 3 else 1e-300), (kind, n)
            checked += 1
        assert checked >= len(PARITY_SIZES) - 2

    def test_reference_vector_matches_scipy(self):
        sps = pytest.importorskip("scipy.stats")
        w, p = shapiro_wilk(ROYSTON_VECTOR)
        ref_w, ref_p = sps.shapiro(ROYSTON_VECTOR)
        assert w == pytest.approx(float(ref_w), rel=1e-12)
        assert p == pytest.approx(float(ref_p), rel=1e-9)

    def test_spearman_equals_rankdata_formula(self):
        sps = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(5)

        def reference(x, y):
            rx = sps.rankdata(x, method="average")
            ry = sps.rankdata(y, method="average")
            dx = rx - rx.mean()
            dy = ry - ry.mean()
            return float(np.sum(dx * dy) / np.sqrt(np.sum(dx * dx) * np.sum(dy * dy)))

        for n in (3, 4, 7, 40, 333):
            tied = np.round(rng.normal(size=n) * 2.0)
            untied = rng.normal(size=n)
            for x, y in ((tied, untied), (untied, untied ** 3 + rng.normal(size=n)),
                         (tied, np.round(rng.normal(size=n)))):
                if np.min(x) == np.max(x) or np.min(y) == np.max(y):
                    continue
                assert spearman(x, y) == reference(x, y)


class TestNoScipyAtRunTime:
    def run_isolated(self, code: str) -> str:
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        return done.stdout.strip()

    def test_cli_import_leaves_scipy_unloaded(self):
        assert self.run_isolated("""
            import sys
            import cfcalib.cli
            print("scipy" in sys.modules)
        """) == "False"

    def test_stats_command_leaves_scipy_unloaded(self, tmp_path):
        segments, out = tmp_path / "segments.json", tmp_path / "stats.json"
        write_segments_json(short_trip_segments(default_params("idm"), n_trips=10), segments)
        assert self.run_isolated(f"""
            import sys
            from cfcalib import cli
            code = cli.main(["stats", "--segments", {str(segments)!r}, "--out", {str(out)!r}])
            print(code, "scipy" in sys.modules)
        """) == "0 False"
        normality = json.loads(out.read_text())["normality"]
        assert normality["speed"] is not None

    def test_analyze_segments_leaves_numpy_ma_unloaded(self):
        # np.percentile imports numpy.ma, about 10 ms per process
        assert self.run_isolated("""
            import sys
            from cfcalib.fixtures import short_trip_segments
            from cfcalib.models import default_params
            from cfcalib.stats import analyze_segments
            analyze_segments(short_trip_segments(default_params("idm"), n_trips=10))
            print("numpy.ma" in sys.modules)
        """) == "False"

    def test_no_scipy_import_in_src(self):
        problems = []
        for module in sorted((SRC / "cfcalib").glob("*.py")):
            for node in ast.walk(ast.parse(module.read_text(), filename=str(module))):
                names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                         else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
                if any(name == "scipy" or name.startswith("scipy.") for name in names):
                    problems.append(f"{module.name}:{node.lineno}")
        assert problems == []


class TestCoefficientOfVariation:
    def test_constant(self):
        assert coefficient_of_variation([5.0, 5.0, 5.0]) == 0.0

    def test_two_point(self):
        assert coefficient_of_variation([2.0, 4.0]) == pytest.approx(0.4714045207910317, rel=1e-12)

    def test_zero_mean_undefined(self):
        with pytest.raises(UndefinedStatisticError):
            coefficient_of_variation([-1.0, 1.0])


class TestIqrOutlierShare:
    def test_uniform_grid_has_none(self):
        assert iqr_outlier_share(np.arange(1.0, 21.0)) == 0.0

    def test_single_far_point(self):
        assert iqr_outlier_share([1, 2, 3, 4, 5, 6, 7, 8, 9, 1000]) == 0.1

    def test_constant_series_zero(self):
        assert iqr_outlier_share([3.0] * 8) == 0.0

    def test_needs_four(self):
        with pytest.raises(InsufficientDataError):
            iqr_outlier_share([1.0, 2.0, 3.0])

    @given(st.lists(st.floats(-1e4, 1e4), min_size=8, max_size=50, unique=True))
    @settings(max_examples=50)
    def test_never_above_half_for_distinct_values(self, values):
        assert iqr_outlier_share(values) <= 0.5


class TestJerkComfortShares:
    def test_counting_against_thresholds(self):
        shares = jerk_comfort_shares([0.5, 1.0, 4.1, 5.0])
        assert shares == (0.75, 0.5, 0.25)

    def test_all_zero(self):
        assert jerk_comfort_shares(np.zeros(10)) == (0.0, 0.0, 0.0)

    def test_fixture_reproduces_field_shares(self):
        shares = jerk_comfort_shares(jerk_comfort_series())
        assert shares == (0.16, 0.0357, 0.0224)

    def test_magnitude_comparison(self):
        # braking jerks count the same as accelerating ones
        assert jerk_comfort_shares([-5.0, 5.0]) == (1.0, 1.0, 1.0)


class TestAnalyzeSegments:
    def test_report_structure(self):
        segments = [constant_leader_segment(10.0 + i, 40, 60.0, seg_id=f"s{i}")
                    for i in range(3)]
        report = analyze_segments(segments)
        assert set(report["descriptive"]) == {"speed", "accel", "jerk", "spacing"}
        for stats in report["descriptive"].values():
            assert set(stats) == {"mean", "std", "min", "q25", "q50", "q75", "max"}
        assert report["spearman"]["variables"] == [
            "speed", "accel", "jerk", "spacing", "delta_speed"]
        assert len(report["spearman"]["matrix"]) == 5
        assert report["jerk_comfort"]["thresholds"] == [0.92, 4.03, 4.82]
        assert report["annotations"]["accel_comfort_threshold"] == 2.96

        variability = report["variability"]
        assert set(variability) == {"speed", "accel", "jerk"}
        assert set(variability["speed"]) == {"leader", "follower"}
        for who in ("leader", "follower"):
            assert set(variability["speed"][who]) == {"cv", "mean_outlier_share"}
        # the fixture's acceleration is all zero, so every signed part is
        # empty and its CV undefined
        assert variability["accel"] == {
            "follower_plus": {"cv": None}, "follower_minus": {"cv": None},
            "leader_plus": {"cv": None}, "leader_minus": {"cv": None},
        }
        assert set(variability["jerk"]) == {
            "follower_plus", "follower_minus", "follower_outlier_share"}
        text = render_stats_text(report)
        for row in ("leader speed", "follower speed", "accel follower_plus",
                    "accel leader_minus", "jerk follower_minus"):
            assert row in text
        # the whole-series jerk outlier share has a row of its own; the
        # signed jerk rows carry only their CV
        cells = {" ".join(line.split()[:2]): line.split()[2:]
                 for line in text.splitlines() if line.split()[:1] == ["jerk"]}
        share = variability["jerk"]["follower_outlier_share"]
        assert cells["jerk follower"] == ["n/a" if share is None else f"{share:.4f}"]
        for sign in ("plus", "minus"):
            cv = variability["jerk"][f"follower_{sign}"]["cv"]
            assert cells[f"jerk follower_{sign}"] == ["n/a" if cv is None else f"{cv:.4f}"]
