import math
import re
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cfcalib import (
    ConfigError,
    DomainError,
    GaConfig,
    GofReport,
    IdmParams,
    UndefinedStatisticError,
    calibrate_and_validate,
    fitness,
    ga_calibrate,
    gof,
    gof_report,
)
from cfcalib.calib import FAULT_FITNESS, _make_fitness, _nrmse_rows, _obs_terms
from cfcalib.fixtures import idm_response_segments, short_trip_segments
from cfcalib.models import GENE_BOUNDS, default_params, genes_to_params, params_to_genes
from cfcalib.sim import BATCH_MIN_SEGMENTS, simulate_all

SHUTTLE_IDM = IdmParams(a=2.76, delta=1, v0=20.0, s0=9.89, T=2.79, b=24.58)

finite_arrays = st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=50)


def gof_oracle(sim, obs):
    """Plain-loop evaluation of the three error metrics."""
    n = len(sim)
    mae = sum(abs(a - b) for a, b in zip(sim, obs)) / n
    rmse = math.sqrt(sum((a - b) ** 2 for a, b in zip(sim, obs)) / n)
    denom = math.sqrt(sum(b * b for b in obs) / n)
    return mae, rmse, rmse / denom


class TestGof:
    def test_identical_series(self):
        assert gof([1.0, 2.0], [1.0, 2.0]) == (0.0, 0.0, 0.0)

    def test_worked_values(self):
        mae, rmse, nrmse = gof([4.0, 4.0], [3.0, 4.0])
        assert mae == 0.5
        assert rmse == pytest.approx(math.sqrt(0.5), rel=1e-12)
        assert nrmse == pytest.approx(0.2, rel=1e-12)

    @given(finite_arrays, st.floats(0.1, 100.0))
    @settings(max_examples=50)
    def test_scale_invariance_of_nrmse(self, obs, k):
        if math.sqrt(sum(v * v for v in obs) / len(obs)) == 0.0:
            return  # squares can underflow for denormal inputs
        sim = [v + 1.0 for v in obs]
        _, _, base = gof(sim, obs)
        _, _, scaled = gof([k * v for v in sim], [k * v for v in obs])
        assert scaled == pytest.approx(base, rel=1e-9)

    def test_nrmse_of_tiny_observations(self):
        # the squares of these values are subnormal in double precision
        obs = [2.5797834292161295e-160]
        _, _, nrmse = gof([0.5 * obs[0]], obs)
        assert nrmse == pytest.approx(0.5, rel=1e-12)

    def test_nrmse_of_errors_far_above_observations(self):
        # errors over 1e154 times the largest observation: their squares
        # overflow once divided by it
        obs = [1.3582220512345346e-155]
        _, rmse, nrmse = gof([obs[0] + 0.5], obs)
        assert nrmse * obs[0] == pytest.approx(rmse, rel=1e-12)

    @given(finite_arrays)
    @settings(max_examples=50)
    def test_rmse_dominates_mae_and_identity(self, obs):
        obs_rms = math.sqrt(sum(v * v for v in obs) / len(obs))
        if obs_rms == 0.0:
            return
        # rescaled: squares of values below about 1e-154 are subnormal and
        # carry too few digits for the identity below
        peak = max(abs(v) for v in obs)
        obs_rms = peak * math.sqrt(sum((v / peak) ** 2 for v in obs) / len(obs))
        sim = [v + 0.5 for v in obs]
        mae, rmse, nrmse = gof(sim, obs)
        assert rmse >= mae - 1e-12
        assert nrmse * obs_rms == pytest.approx(rmse, abs=1e-12)

    def test_all_zero_observations(self):
        with pytest.raises(UndefinedStatisticError):
            gof([1.0, 2.0], [0.0, 0.0])

    def test_length_mismatch(self):
        with pytest.raises(ConfigError):
            gof([1.0], [1.0, 2.0])


def nrmse_row_oracle(row, obs):
    """_nrmse_rows of one row, every reduction taken over a 1-d array."""
    scale = np.max(np.abs(obs))
    err = row - obs
    err_scale = max(scale, np.max(np.abs(err)))
    err_n = err / err_scale
    sq = err_n * err_n
    obs_n = obs / scale
    return err_scale / scale * np.sqrt(np.mean(sq) / np.mean(obs_n * obs_n))


class TestNrmseRows:
    @given(st.integers(1, 40), st.integers(1, 3000), st.integers(0, 2**32 - 1),
           st.integers(-150, 150))
    @settings(max_examples=60, deadline=None)
    def test_each_row_scores_what_it_scores_alone(self, rows, samples, seed, exponent):
        rng = np.random.default_rng(seed)
        scale = 10.0 ** exponent
        obs = rng.uniform(0.5, 2.0, samples) * scale
        spread = rng.uniform(0.0, 2.0, (rows, 1)) * scale
        sim = obs + rng.normal(0.0, 1.0, (rows, samples)) * spread
        block = _nrmse_rows(sim, obs)
        assert block.tobytes() == _nrmse_rows(sim, obs, _obs_terms(obs)).tobytes()
        for r in range(rows):
            assert block[r] == _nrmse_rows(sim[r:r + 1], obs)[0]
            assert block[r] == gof(sim[r], obs)[2]
            assert block[r] == nrmse_row_oracle(sim[r], obs)

    @given(st.integers(1, 40), st.integers(1, 3000), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_axis_mean_is_each_rows_mean(self, rows, samples, seed):
        sq = np.random.default_rng(seed).uniform(0.0, 1.0, (rows, samples)) ** 2
        means = np.mean(sq, axis=-1)
        assert [means[r] for r in range(rows)] == [np.mean(sq[r]) for r in range(rows)]


class TestFitness:
    def test_generating_genes_score_zero(self):
        segments = idm_response_segments(SHUTTLE_IDM, n_segments=2, seconds=60)
        value = fitness("idm", params_to_genes(SHUTTLE_IDM), segments)
        assert value < 1e-9

    def test_bounds_extremes_stay_finite(self):
        segments = idm_response_segments(SHUTTLE_IDM, n_segments=1, seconds=40)
        los = [b[1] for b in GENE_BOUNDS["idm"]]
        his = [b[2] for b in GENE_BOUNDS["idm"]]
        assert math.isfinite(fitness("idm", los, segments))
        assert math.isfinite(fitness("idm", his, segments))

    def test_pooling_is_concatenation(self):
        # pooled NRMSE must equal the NRMSE of concatenated arrays, not the
        # mean of per-segment NRMSEs
        from cfcalib.sim import simulate_all

        segments = idm_response_segments(SHUTTLE_IDM, n_segments=3, seconds=50)
        genes = [2.0, 1.0, 19.0, 8.0, 3.0, 20.0]
        value = fitness("idm", genes, segments)
        results = simulate_all(genes_to_params("idm", genes), segments)
        sim_concat = [x for r in results for x in r.spacing.tolist()]
        obs_concat = [x for s in segments for x in s.spacing.tolist()]
        _, _, expected = gof_oracle(sim_concat, obs_concat)
        assert value == pytest.approx(expected, rel=1e-12)
        per_segment_mean = np.mean([
            gof_oracle(r.spacing.tolist(), s.spacing.tolist())[2]
            for r, s in zip(results, segments)])
        assert value != pytest.approx(per_segment_mean, rel=1e-6)


def many_trips():
    return short_trip_segments(SHUTTLE_IDM, n_trips=BATCH_MIN_SEGMENTS + 4, trip_seconds=10)


def random_genes(kind, rows, seed=3):
    bounds = np.array([(lo, hi) for _, lo, hi, _ in GENE_BOUNDS[kind]])
    return np.random.default_rng(seed).uniform(bounds[:, 0], bounds[:, 1],
                                               size=(rows, len(bounds)))


class TestBlockFitness:
    @pytest.mark.parametrize("kind", ["idm", "blend", "linear_acc"])
    def test_block_equals_rows_bit_for_bit(self, kind):
        segments = many_trips()
        genes = random_genes(kind, 24)
        block = _make_fitness(kind, segments, None, 1.0)(genes)
        assert block.tolist() == [fitness(kind, g, segments) for g in genes]
        # each row is gof() of its pooled spacing, simulated on the same path
        results = simulate_all(genes_to_params(kind, genes[0]), segments)
        pooled = np.concatenate([r.spacing for r in results])
        obs = np.concatenate([s.spacing for s in segments])
        assert block[0] == gof(pooled, obs)[2]

    def test_faulting_rows_score_fault_alone(self, monkeypatch):
        from cfcalib import sim

        # fixture generation runs the scalar loop too, so build before patching
        segments = many_trips()
        # SegmentSet._scalar_runs steps idm rows on _idm_step_loop, a call per segment
        scalar_runs = []
        step_loop = sim._idm_step_loop
        monkeypatch.setattr(sim, "_idm_step_loop",
                            lambda *args: scalar_runs.append(1) or step_loop(*args))
        good = random_genes("idm", 3)
        out_of_domain = [-1.0, 1.0, 19.0, 8.0, 3.0, 20.0]  # a < 0
        overflow_fault = [2.0, 2.0, 1e-300, 8.0, 3.0, 20.0]  # (v / v0) ** 2 overflows
        overflow_finite = [1.0, 1.0, 20.0, 1e160, 1.0, 1.0]  # clamped after overflow
        genes = np.array([good[0], out_of_domain, good[1], overflow_fault,
                          overflow_finite, good[2]])
        values = _make_fitness("idm", segments, None, 1.0)(genes)
        assert values[1] == values[3] == FAULT_FITNESS
        assert values[4] < FAULT_FITNESS
        # only the two overflowing rows ran the scalar loop, the second on
        # every segment, the first up to its fault
        assert len(segments) < len(scalar_runs) < 2 * len(segments)
        assert values.tolist() == [fitness("idm", g, segments) for g in genes]
        assert values[[0, 2, 5]].tolist() == _make_fitness("idm", segments, None, 1.0)(good).tolist()

    @pytest.mark.parametrize("n_trips", [2, BATCH_MIN_SEGMENTS], ids=["scalar-loop", "block"])
    def test_all_zero_observations_fault_every_row(self, n_trips):
        segments = short_trip_segments(SHUTTLE_IDM, n_trips=n_trips, trip_seconds=10)
        for seg in segments:  # past the constructor's check: an observed spacing of 0
            seg.leader_pos = seg.follower_pos.copy()
        genes = random_genes("idm", 5)
        assert _make_fitness("idm", segments, None, 1.0)(genes).tolist() == [FAULT_FITNESS] * 5
        assert fitness("idm", genes[0], segments) == FAULT_FITNESS

    @pytest.mark.parametrize("genes", [[1.0] * 5, [1.0] * 7, []], ids=["5", "7", "0"])
    def test_wrong_gene_count_faults(self, genes):
        assert fitness("idm", genes, many_trips()[:2]) == FAULT_FITNESS

    def test_bad_dt_raises_before_stepping(self):
        for segments in (many_trips(), many_trips()[:2]):
            with pytest.raises(ConfigError):
                fitness("idm", params_to_genes(SHUTTLE_IDM), segments, dt=0.3)


def tiny_config(**overrides):
    defaults = dict(population=20, max_generations=25, seeds=[0], stall_generations=25)
    defaults.update(overrides)
    return GaConfig(**defaults)


def run_alone(kind, segments, config, seed, dt=1.0):
    """(genes, fitness, trace) of one seed, the only seed of its run."""
    (run,) = ga_calibrate(kind, segments, replace(config, seeds=[seed]), dt=dt)
    return run


def assert_same_run(got, expected):
    """The same genes (as bytes), fitness and trace."""
    assert got[0].tobytes() == expected[0].tobytes()
    assert got[1] == expected[1]
    assert got[2] == expected[2]


# one segment runs the scalar loop, BATCH_MIN_SEGMENTS trips the block
SEGMENT_SETS = {
    "one-segment": idm_response_segments(SHUTTLE_IDM, n_segments=1, seconds=40),
    "block": short_trip_segments(SHUTTLE_IDM, n_trips=BATCH_MIN_SEGMENTS, trip_seconds=10),
}

# 1, 2 and 10 seeds in lockstep
SEED_LISTS = {"1-seed": [5], "2-seed": [5, 2], "10-seed": [9, 5, 0, 1, 2, 3, 4, 6, 7, 8]}


class TestGaCalibrate:
    @pytest.mark.parametrize("seeds", SEED_LISTS.values(), ids=SEED_LISTS)
    @pytest.mark.parametrize("segments", SEGMENT_SETS.values(), ids=SEGMENT_SETS)
    def test_bitwise_determinism(self, segments, seeds):
        config = tiny_config(seeds=seeds)
        first = ga_calibrate("idm", segments, config)
        second = ga_calibrate("idm", segments, config)
        assert len(first) == len(second) == len(seeds)
        for seed, run, again in zip(seeds, first, second):
            assert_same_run(again, run)
            assert_same_run(run, run_alone("idm", segments, config, seed))

    @pytest.mark.parametrize("segments", SEGMENT_SETS.values(), ids=SEGMENT_SETS)
    def test_stalled_seed_drops_out_and_others_run_on(self, segments):
        config = tiny_config(max_generations=40, stall_generations=4, seeds=list(range(6)))
        runs = ga_calibrate("idm", segments, config)
        generations = [len(trace) - 1 for _, _, trace in runs]
        # seed 2 stalls first on both sets
        assert min(generations) == generations[2] < max(generations) < config.max_generations
        for seed, run in zip(config.seeds, runs):
            assert_same_run(run, run_alone("idm", segments, config, seed))

    def test_later_seed_all_fault_raises_as_alone(self):
        segments = SEGMENT_SETS["one-segment"]
        # a < 0 faults, so a row faults with probability 3/4: seed 0's
        # initial population of 4 has a row that runs, seed 2's has none
        bounds = [(-3.0, 1.0)] + [(lo, hi) for _, lo, hi, _ in GENE_BOUNDS["idm"][1:]]
        config = tiny_config(population=4, bounds=bounds, seeds=[0, 2])
        run_alone("idm", segments, config, 0)
        with pytest.raises(ConfigError) as alone:
            run_alone("idm", segments, config, 2)
        with pytest.raises(ConfigError) as lockstep:
            ga_calibrate("idm", segments, config)
        assert str(lockstep.value) == str(alone.value)
        assert "every individual of the initial idm population faults" in str(alone.value)

    def test_trace_monotone_non_increasing(self):
        segments = idm_response_segments(SHUTTLE_IDM, n_segments=1, seconds=40)
        ((_, _, trace),) = ga_calibrate("idm", segments, tiny_config(seeds=[2]))
        assert all(b <= a for a, b in zip(trace, trace[1:]))

    def test_best_genes_within_bounds(self):
        segments = idm_response_segments(SHUTTLE_IDM, n_segments=1, seconds=40)
        ((genes, _, _),) = ga_calibrate("idm", segments, tiny_config(seeds=[3]))
        for (name, lo, hi, _), g in zip(GENE_BOUNDS["idm"], genes):
            assert lo <= g <= hi, name

    def test_stall_stops_early(self):
        segments = idm_response_segments(SHUTTLE_IDM, n_segments=1, seconds=40)
        config = tiny_config(max_generations=500, stall_generations=5, seeds=[1])
        ((_, _, trace),) = ga_calibrate("idm", segments, config)
        assert len(trace) - 1 < 500

    def test_all_fault_initial_population_rejected(self):
        segments = idm_response_segments(SHUTTLE_IDM, n_segments=1, seconds=40)
        bounds = [(-2.0, -1.0)] + [(lo, hi) for _, lo, hi, _ in GENE_BOUNDS["idm"][1:]]
        with pytest.raises(ConfigError, match="idm"):
            ga_calibrate("idm", segments, tiny_config(bounds=bounds))

    @pytest.mark.parametrize("pairs", [1, 7])
    def test_bounds_of_the_wrong_count_rejected_before_fitness(self, monkeypatch, pairs):
        from cfcalib import calib

        def no_fitness(*args):
            raise AssertionError("fitness built before the bounds were checked")

        monkeypatch.setattr(calib, "_make_fitness", no_fitness)
        segments = idm_response_segments(SHUTTLE_IDM, n_segments=1, seconds=40)
        config = tiny_config(bounds=[(1.0, 2.0)] * pairs)
        with pytest.raises(ConfigError, match=f"expected 6, got {pairs}"):
            ga_calibrate("idm", segments, config)

    def test_infeasible_bounds_rejected(self):
        with pytest.raises(ConfigError):
            GaConfig(bounds=[(1.0, 0.5)])

    def test_no_segments_rejected(self):
        with pytest.raises(ConfigError):
            ga_calibrate("idm", [], tiny_config())

    @pytest.mark.parametrize("kind", ["foo", ["idm"]], ids=["unknown", "unhashable"])
    @pytest.mark.parametrize("call", ["ga_calibrate", "calibrate_and_validate"])
    def test_unknown_model_kind_raises_domain_error(self, kind, call):
        """An unknown kind raises DomainError naming it, as genes_to_params does, not a
        KeyError or TypeError from the bounds table."""
        segments = idm_response_segments(SHUTTLE_IDM, n_segments=2, seconds=40)
        run = {"ga_calibrate": ga_calibrate, "calibrate_and_validate": calibrate_and_validate}
        with pytest.raises(DomainError, match=re.escape(f"unknown model kind {kind!r}")):
            run[call](kind, segments, tiny_config())

    def test_config_invariants(self):
        with pytest.raises(ConfigError):
            GaConfig(population=2)
        with pytest.raises(ConfigError):
            GaConfig(mutation_prob=0.0)
        with pytest.raises(ConfigError):
            GaConfig(elitism_ratio=1.0)
        with pytest.raises(ConfigError):
            GaConfig(seeds=[])

    def test_linear_acc_recovery_smoke(self):
        # three genes recover quickly even with a small budget
        from cfcalib import AccParams
        from cfcalib.fixtures import model_response_segments

        truth = AccParams(t_des=4.96, k1=0.01, k2=0.43, d0=15.0)
        segments = model_response_segments(truth, n_segments=2, seconds=80,
                                           initial_spacing=80.0)
        config = tiny_config(population=40, max_generations=120, stall_generations=120)
        ((genes, fit_value, _),) = ga_calibrate("linear_acc", segments, config)
        assert fit_value < 0.05


class TestRepeatedChildren:
    """Children that copy a scored row take its fitness instead of a simulation."""

    # float.hex of (best fitness, best genes, trace) of ga_calibrate at
    # population 16, 12 generations, seed 4, recorded from a GA that
    # simulated every child: the lookup must not move a bit
    GOLDEN = {
        "idm": (
            "0x1.ba47503634bb7p-5",
            ["0x1.eb6db6fe13edep+2", "0x1.033776ade828fp+3", "0x1.3e673854d23fap+4",
             "0x1.9083cb87770d9p+3", "0x1.3641e18bec2a6p+2", "0x1.7f28a0e0dfcfap+4"],
            ["0x1.d885b7d41b243p-5"] * 3
            + ["0x1.c282043b2a54ap-5", "0x1.c28200c6de4eap-5", "0x1.c26bef04cc9e6p-5"]
            + ["0x1.c24dce6b8cd91p-5"] * 2
            + ["0x1.c191c5c021312p-5"] + ["0x1.ba47503634bb7p-5"] * 4,
        ),
        "blend": (
            "0x1.7ca16465592a2p-6",
            ["0x1.064d35e40895bp+1", "0x1.f52b5a9aa2d94p+1", "0x1.0474c0d62408bp+4",
             "0x1.77388541a6927p+4", "0x1.3e785c3eb84e0p+1", "0x1.75facbd4a6f94p+2",
             "0x1.49582d9ca26f4p-3"],
            ["0x1.d5db3bc9a3819p-5", "0x1.d5b4599038471p-5"] + ["0x1.86942544b8c05p-5"] * 2
            + ["0x1.853b7c9f550b3p-5"] + ["0x1.7f84593b51aabp-5"] * 2
            + ["0x1.6e493d34d282ep-5", "0x1.33acb65e6dca3p-5"] + ["0x1.7ca16465592a2p-6"] * 4,
        ),
    }

    # seed 4 alone, with one other seed, and among 10
    @pytest.mark.parametrize("seeds", [[4], [0, 4], list(range(10))],
                             ids=["1-seed", "2-seed", "10-seed"])
    @pytest.mark.parametrize("kind", ["idm", "blend"])
    def test_golden_run_unchanged(self, kind, seeds):
        if kind == "idm":
            segments, dt = idm_response_segments(SHUTTLE_IDM, n_segments=1, seconds=40), 1.0
        else:
            segments, dt = short_trip_segments(SHUTTLE_IDM, n_trips=6, trip_seconds=12), 0.5
        config = GaConfig(population=16, max_generations=12, seeds=seeds, stall_generations=12)
        runs = ga_calibrate(kind, segments, config, dt=dt)
        genes, fit_value, trace = runs[seeds.index(4)]
        assert (fit_value.hex(), [g.hex() for g in genes.tolist()],
                [t.hex() for t in trace]) == self.GOLDEN[kind]
        for seed, run in zip(seeds, runs):
            assert_same_run(run, run_alone(kind, segments, config, seed, dt))

    def test_each_distinct_child_simulated_once(self, monkeypatch):
        from cfcalib import calib

        blocks = []

        def counting_make_fitness(*args):
            evaluate = _make_fitness(*args)

            def counted(rows):
                blocks.append(np.array(rows))
                return evaluate(rows)
            return counted

        monkeypatch.setattr(calib, "_make_fitness", counting_make_fitness)
        segments = idm_response_segments(SHUTTLE_IDM, n_segments=1, seconds=40)
        config = tiny_config(population=20, max_generations=30, stall_generations=30,
                             crossover_prob=0.001, mutation_prob=0.001, seeds=[6])
        ((_, _, trace),) = ga_calibrate("idm", segments, config)
        initial, children = blocks[0], blocks[1:]
        assert len(initial) == config.population
        budget = (len(trace) - 1) * (config.population - 2)  # two elites per generation
        simulated = sum(len(block) for block in children)
        assert simulated < budget / 10
        assert len(children) < len(trace) - 1  # a generation of copies simulates nothing
        for block in children:
            assert len({row.tobytes() for row in block}) == len(block)

    @pytest.mark.parametrize("seeds", SEED_LISTS.values(), ids=SEED_LISTS)
    @pytest.mark.parametrize("segments", SEGMENT_SETS.values(), ids=SEGMENT_SETS)
    def test_seeds_share_one_block_per_generation(self, monkeypatch, segments, seeds):
        from cfcalib import calib

        blocks = []

        def counting_make_fitness(*args):
            evaluate = _make_fitness(*args)

            def counted(rows):
                blocks.append(np.array(rows))
                return evaluate(rows)
            return counted

        monkeypatch.setattr(calib, "_make_fitness", counting_make_fitness)
        config = tiny_config(seeds=seeds)
        runs = ga_calibrate("idm", segments, config)
        initial, children = blocks[0], blocks[1:]
        assert len(initial) == len(seeds) * config.population
        assert len(children) <= max(len(trace) - 1 for _, _, trace in runs)
        budget = sum(len(trace) - 1 for _, _, trace in runs) * (config.population - 2)
        assert sum(len(block) for block in children) < budget
        for block in children:
            assert len({row.tobytes() for row in block}) == len(block)
        monkeypatch.undo()
        for seed, run in zip(seeds, runs):
            assert_same_run(run, run_alone("idm", segments, config, seed))


class TestCalibrateAndValidate:
    def test_degenerate_single_generation(self):
        segments = idm_response_segments(SHUTTLE_IDM, n_segments=2, seconds=40)
        config = GaConfig(population=10, max_generations=1, seeds=[0],
                          stall_generations=1)
        result, rep_calib, rep_valid = calibrate_and_validate(
            "idm", segments, config, split_fraction=0.5, split_seed=0)
        assert result.model_kind == "idm"
        assert math.isfinite(result.fitness)
        assert result.fitness == min(f for _, f, _ in result.per_seed)

    def test_report_has_all_six_metrics_per_set(self):
        segments = idm_response_segments(SHUTTLE_IDM, n_segments=2, seconds=40)
        config = tiny_config(max_generations=5, stall_generations=5)
        _, rep_calib, rep_valid = calibrate_and_validate(
            "idm", segments, config, split_fraction=0.5, split_seed=1)
        for rep in (rep_calib, rep_valid):
            d = asdict(rep)
            assert set(d) == {"nrmse_spacing", "mae_spacing", "rmse_spacing",
                              "nrmse_speed", "mae_speed", "rmse_speed"}
            assert all(v >= 0.0 for v in d.values())
            assert d["rmse_spacing"] >= d["mae_spacing"]
            assert d["rmse_speed"] >= d["mae_speed"]

    def test_noise_free_validation_close_to_calibration(self):
        segments = short_trip_segments(SHUTTLE_IDM, n_trips=12, trip_seconds=15)
        config = tiny_config(population=30, max_generations=60, stall_generations=60)
        _, rep_calib, rep_valid = calibrate_and_validate(
            "idm", segments, config, split_fraction=0.8, split_seed=7)
        assert rep_valid.nrmse_spacing < 2.0 * max(rep_calib.nrmse_spacing, 1e-12) + 0.02


class TestGofReport:
    def test_zero_error_for_generating_model(self):
        segments = idm_response_segments(SHUTTLE_IDM, n_segments=2, seconds=50)
        rep = gof_report(SHUTTLE_IDM, segments)
        assert rep.nrmse_spacing < 1e-12
        assert rep.nrmse_speed < 1e-12


def concatenated_report(params, segments, dt):
    """The fit report of the per-segment results() concatenated."""
    results = simulate_all(params, segments, None, dt)
    mae_s, rmse_s, nrmse_s = gof(np.concatenate([r.spacing for r in results]),
                                 np.concatenate([s.spacing for s in segments]))
    mae_v, rmse_v, nrmse_v = gof(np.concatenate([r.follower_speed for r in results]),
                                 np.concatenate([s.follower_speed for s in segments]))
    return GofReport(nrmse_spacing=nrmse_s, mae_spacing=mae_s, rmse_spacing=rmse_s,
                     nrmse_speed=nrmse_v, mae_speed=mae_v, rmse_speed=rmse_v)


# three smooth responses run the scalar loop, the short trips the block
REPORT_SETS = {"scalar-loop": idm_response_segments(SHUTTLE_IDM, n_segments=3, seconds=50),
               "block": many_trips()}


@pytest.mark.parametrize("dt", [1.0, 0.5])
@pytest.mark.parametrize("kind", ["idm", "blend", "linear_acc"])
@pytest.mark.parametrize("segments", REPORT_SETS.values(), ids=REPORT_SETS)
def test_pooled_report_equals_concatenated_results(segments, kind, dt):
    params = default_params(kind)
    assert gof_report(params, segments, dt=dt) == concatenated_report(params, segments, dt)
