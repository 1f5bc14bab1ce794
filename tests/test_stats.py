import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cfcalib import (
    ComfortThresholds,
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
from cfcalib.fixtures import constant_leader_segment, jerk_comfort_series
from cfcalib.report import render_stats_text
from cfcalib.stats import analyze_segments

# weights (lbs) of eleven men: the classic W-test worked example,
# W = 0.7888 under Royston's approximation (matches R's shapiro.test)
ROYSTON_VECTOR = [148, 154, 158, 160, 161, 162, 166, 170, 182, 195, 236]
ROYSTON_W = 0.7888


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

    @given(scale=st.floats(0.1, 10.0))
    def test_scale_consistency(self, scale):
        jerk = np.array([0.4, 1.5, 3.0, 4.5, 6.0])
        base = jerk_comfort_shares(jerk)
        scaled = jerk_comfort_shares(jerk * scale, ComfortThresholds(
            excellent=0.92 * scale,
            upper_excellent=4.03 * scale,
            expected=4.82 * scale,
        ))
        assert base == scaled

    def test_thresholds_must_increase(self):
        with pytest.raises(DomainError):
            ComfortThresholds(excellent=5.0, upper_excellent=4.0, expected=6.0)


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
