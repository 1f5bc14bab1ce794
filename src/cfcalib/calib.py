"""Goodness-of-fit metrics and seeded genetic-algorithm calibration.

The calibration objective is the NRMSE of spacing pooled over all
calibration segments (concatenate first, then one NRMSE). The GA is
elitist with tournament selection of size 2, uniform crossover, and
per-gene uniform-reset mutation; every random draw comes from one seeded
generator in a fixed order, so a (seed, inputs) pair fully determines
the outcome. ga_calibrate runs the seeds of a GaConfig in lockstep:
each seed keeps its own generator and draw order, and each generation
the children of every live seed are scored as one block of gene rows.
The block becomes one parameter table (models.genes_table), which
sim.SegmentSet simulates on the engine it picks, and its pooled spacing
one (rows, samples) array, scored against observation terms taken once.
A child that repeats a population row or an earlier child of its
generation (no crossover and no mutated gene make a copy of its parent)
is scored from its twin, not simulated again. Every row scores what it
scores alone, so each seed's result is the one it gets run by itself.
The fit report reads one pooled run of the best parameter set.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .cleaning import split_segments
from .errors import CfCalibError, ConfigError, DomainError, UndefinedStatisticError
from .ingest import MAX_MAGNITUDE
from .jsonio import is_finite_number, is_seed, read_json_object
from .models import (GENE_BOUNDS, MODEL_KINDS, ModelParams, genes_table, genes_to_params,
                     params_to_dict)
from .series import FollowingSegment
from .sim import SegmentSet, SimLimits

# Fitness assigned when a simulation faults; finite so the GA keeps going.
FAULT_FITNESS = 1e9


def gof(sim, obs) -> tuple[float, float, float]:
    """Return (mae, rmse, nrmse) of a simulated series against observations.

    nrmse divides the rmse by the root mean square of the observations,
    so it is invariant under common rescaling of both series.
    """
    sim = np.asarray(sim, dtype=float)
    obs = np.asarray(obs, dtype=float)
    if sim.size != obs.size or sim.size == 0:
        raise ConfigError(f"series must have equal nonzero length, got {sim.size} vs {obs.size}")
    err = sim - obs
    mae = float(np.mean(np.abs(err)))
    rmse = float(np.sqrt(np.mean(err * err)))
    return mae, rmse, float(_nrmse_rows(sim[None, :], obs)[0])


def _obs_terms(obs: np.ndarray) -> tuple[float, float]:
    """The terms of _nrmse_rows that depend on the observations alone.

    They are their largest magnitude and the mean square of the
    observations divided by it.
    """
    scale = float(np.max(np.abs(obs)))
    if scale == 0.0:
        raise UndefinedStatisticError("nrmse undefined: observations are all zero")
    obs_n = obs / scale
    return scale, np.mean(obs_n * obs_n)


def _nrmse_rows(sim: np.ndarray, obs: np.ndarray, terms=None) -> np.ndarray:
    """NRMSE of each row of a (rows, samples) array against `obs`.

    `terms` is _obs_terms(obs), taken here when not given. The errors
    are scaled and squared in place, in a C-contiguous array, whose mean
    along its last axis numpy sums one row at a time, pairwise as it
    sums a 1-d array: each row scores bit for bit what gof() gives it
    alone.
    """
    scale, obs_mean_square = terms or _obs_terms(obs)
    # Squares of values near the float limits under- or overflow, so both
    # series are scaled before squaring: the observations by their largest
    # magnitude, each row's errors by the larger of that and its own
    # largest error (the factor err_scale / scale is then 1 in most fits).
    err = sim - obs
    err_scale = np.maximum(scale, np.max(np.abs(err), axis=-1))
    err /= err_scale[:, None]
    err *= err
    ratio = np.mean(err, axis=-1) / obs_mean_square
    return err_scale / scale * np.sqrt(ratio)


@dataclass(frozen=True)
class GofReport:
    """Spacing and speed errors of a simulated trajectory set."""

    nrmse_spacing: float
    mae_spacing: float
    rmse_spacing: float
    nrmse_speed: float
    mae_speed: float
    rmse_speed: float


def gof_report(
    params: ModelParams,
    segments: list[FollowingSegment],
    limits: SimLimits | None = None,
    dt: float = 1.0,
) -> GofReport:
    """Simulate `params` over `segments` and pool spacing/speed errors.

    One pooled run gives the simulated spacing and speed of every
    segment, concatenated in segment order as the observations are.
    The segments' values lie within ±2^53 and a finite run's follower not
    far beyond, so no error metric leaves the float range.
    """
    if not segments:
        raise ConfigError("no segments to validate on")
    _, sim_speed, sim_spacing, _ = SegmentSet(segments, limits, dt).pooled_run(params)
    obs_spacing = np.concatenate([s.spacing for s in segments])
    obs_speed = np.concatenate([s.follower_speed for s in segments])
    mae_s, rmse_s, nrmse_s = gof(sim_spacing, obs_spacing)
    mae_v, rmse_v, nrmse_v = gof(sim_speed, obs_speed)
    return GofReport(
        nrmse_spacing=nrmse_s, mae_spacing=mae_s, rmse_spacing=rmse_s,
        nrmse_speed=nrmse_v, mae_speed=mae_v, rmse_speed=rmse_v,
    )


_SEQUENCES = (list, tuple, np.ndarray)


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass
class GaConfig:
    """Genetic-algorithm settings; bounds default to the model's gene table."""

    population: int = 100
    max_generations: int = 1000
    mutation_prob: float = 0.10
    crossover_prob: float = 0.5
    elitism_ratio: float = 0.1
    seeds: list[int] = field(default_factory=lambda: list(range(10)))
    bounds: list[tuple[float, float]] | None = None
    stall_generations: int = 100

    def __post_init__(self):
        for name in ("population", "max_generations", "stall_generations"):
            if not _is_int(getattr(self, name)):
                raise ConfigError(f"{name} must be an integer, got {getattr(self, name)!r}")
            # the magnitude rule: beyond it numpy cannot shape a population,
            # and the elite count overflows a float
            if not abs(getattr(self, name)) <= MAX_MAGNITUDE:
                raise ConfigError(f"{name} must be at most 2^53, got {getattr(self, name)}")
        for name in ("mutation_prob", "crossover_prob", "elitism_ratio"):
            value = getattr(self, name)
            if not is_finite_number(value) or not 0.0 < value < 1.0:
                raise ConfigError(f"{name} must be a number in (0, 1), got {value!r}")
        if self.population < 4:
            raise ConfigError(f"population must be >= 4, got {self.population}")
        if self.max_generations < 1 or self.stall_generations < 1:
            raise ConfigError("generation counts must be >= 1")
        if not isinstance(self.seeds, _SEQUENCES) or not all(map(is_seed, self.seeds)):
            raise ConfigError(f"seeds must be a list of non-negative integers, got {self.seeds!r}")
        if not self.seeds:
            raise ConfigError("need at least one seed")
        if self.bounds is not None:
            if not isinstance(self.bounds, _SEQUENCES) or not all(
                    isinstance(b, _SEQUENCES) and len(b) == 2
                    and all(map(is_finite_number, b)) for b in self.bounds):
                raise ConfigError(
                    f"bounds must be [low, high] pairs of finite numbers, got {self.bounds!r}")
            self.bounds = [tuple(b) for b in self.bounds]
            for lo, hi in self.bounds:
                if not lo < hi:
                    raise ConfigError(f"infeasible gene bounds [{lo}, {hi}]")
                # the initial population is drawn uniformly over hi - lo
                if not math.isfinite(float(hi) - float(lo)):
                    raise ConfigError(f"gene bounds [{lo}, {hi}] are wider than the float range")

    def bounds_for(self, kind: str) -> list[tuple[float, float]]:
        """One (low, high) pair per gene of the model kind."""
        if kind not in MODEL_KINDS:  # a tuple: an unhashable kind compares unequal
            raise DomainError(f"unknown model kind {kind!r}")
        table = [(lo, hi) for _, lo, hi, _ in GENE_BOUNDS[kind]]
        if self.bounds is None:
            return table
        if len(self.bounds) != len(table):
            raise ConfigError(f"bounds must give one pair per {kind} gene: expected "
                              f"{len(table)}, got {len(self.bounds)}")
        return list(self.bounds)

    def as_dict(self) -> dict:
        return {
            "population": self.population,
            "max_generations": self.max_generations,
            "mutation_prob": self.mutation_prob,
            "crossover_prob": self.crossover_prob,
            "elitism_ratio": self.elitism_ratio,
            "seeds": list(self.seeds),
            "bounds": None if self.bounds is None else [list(b) for b in self.bounds],
            "stall_generations": self.stall_generations,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GaConfig":
        if not isinstance(data, dict):
            raise ConfigError("GA config must be a JSON object")
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ConfigError(f"unknown GA config key(s): {', '.join(unknown)}")
        return cls(**data)


@dataclass
class CalibrationResult:
    model_kind: str
    best_params: ModelParams
    fitness: float
    per_seed: list[tuple[int, float, ModelParams]]
    generations_run: int

    def as_dict(self) -> dict:
        return {
            "model_kind": self.model_kind,
            "best_params": params_to_dict(self.best_params),
            "fitness": self.fitness,
            "per_seed": [
                {"seed": s, "fitness": f, "params": params_to_dict(p)}
                for s, f, p in self.per_seed
            ],
            "generations_run": self.generations_run,
        }


def _make_fitness(kind, segments, limits, dt):
    """Block fitness: gene rows (P x G) in, pooled spacing NRMSE per row (P,) out.

    The gene rows become one parameter table, whose rows inside the
    model's domain are simulated together. A row whose genes lie outside
    the domain, or whose simulation faults, scores FAULT_FITNESS, as does
    every row when the observations are all zero. Every row scores
    exactly what it scores alone.
    """
    obs_spacing = np.concatenate([s.spacing for s in segments])
    segment_set = SegmentSet(segments, limits, dt)  # checks dt before any stepping
    try:
        terms = _obs_terms(obs_spacing)
    except UndefinedStatisticError:
        terms = None

    def evaluate(genes_rows) -> np.ndarray:
        genes_rows = np.atleast_2d(np.asarray(genes_rows, dtype=float))
        values = np.full(len(genes_rows), FAULT_FITNESS)
        try:
            table, ok = genes_table(kind, genes_rows)
        except CfCalibError:  # an unknown kind or the wrong number of genes
            return values
        rows = np.flatnonzero(ok)
        if terms is None or not len(rows):
            return values
        spacing, fault = segment_set.pooled_spacing(kind, table[rows])
        nrmse = _nrmse_rows(spacing[~fault], obs_spacing, terms)
        values[rows[~fault]] = np.where(np.isfinite(nrmse), nrmse, FAULT_FITNESS)
        return values

    return evaluate


def fitness(
    kind: str,
    genes,
    segments: list[FollowingSegment],
    limits: SimLimits | None = None,
    dt: float = 1.0,
) -> float:
    """Pooled spacing NRMSE of the gene vector over the segments.

    Per-segment simulations are concatenated before the single NRMSE is
    taken. Simulation faults score FAULT_FITNESS instead of raising so a
    GA can evaluate arbitrary in-bounds individuals. This is the one-row
    case of the GA's block evaluation and equals it bit for bit.
    """
    return float(_make_fitness(kind, segments, limits, dt)(genes)[0])


def _score_children(fitness_fn, children, populations, fits) -> list[np.ndarray]:
    """Fitness of each seed's child rows, simulating each distinct unseen row once.

    `children`, `populations` and `fits` hold one array per live seed.
    A child whose genes equal a row of a live population, or an earlier
    child's, bit for bit (bytes, so -0.0 and 0.0 stay apart) takes that
    row's value: fitness_fn scores every row exactly as it scores it
    alone. The unseen rows of all the seeds are scored in one call.
    """
    known = {bytes(row): value for population, fit in zip(populations, fits)
             for row, value in zip(population, fit)}
    keys = [[bytes(row) for row in block] for block in children]
    fresh = {key: row for block, block_keys in zip(children, keys)
             for key, row in zip(block_keys, block) if key not in known}
    if fresh:
        known.update(zip(fresh, fitness_fn(np.array(list(fresh.values())))))
    return [np.array([known[key] for key in block_keys]) for block_keys in keys]


class _SeedRun:
    """One seed's GA: its own generator, population, fitness, best and trace."""

    def __init__(self, seed: int, lo: np.ndarray, hi: np.ndarray, pop_size: int):
        self.rng = np.random.default_rng(seed)
        self.population = self.rng.uniform(lo, hi, size=(pop_size, len(lo)))

    def start(self, fit: np.ndarray) -> None:
        """Take the initial population's fitness."""
        self.fit = fit
        best_idx = int(np.argmin(fit))
        self.best_genes = self.population[best_idx].copy()
        self.best_fit = float(fit[best_idx])
        self.trace = [self.best_fit]
        self.last_improvement = 0

    def breed(self, config: GaConfig, lo: np.ndarray, hi: np.ndarray,
              n_children: int) -> np.ndarray:
        """The next generation's children."""
        rng, population, fit = self.rng, self.population, self.fit
        pop_size, n_genes = population.shape
        # fixed draw order keeps the stream independent of evaluation order
        parent_draws = rng.integers(0, pop_size, size=(n_children, 2, 2))
        cross_coin = rng.random(n_children)
        gene_src = rng.integers(0, 2, size=(n_children, n_genes))
        mut_mask = rng.random((n_children, n_genes)) < config.mutation_prob
        mut_vals = rng.uniform(lo, hi, size=(n_children, n_genes))

        # two size-2 tournaments per child, the first entrant winning ties
        first, second = parent_draws[..., 0], parent_draws[..., 1]
        winners = np.where(fit[first] <= fit[second], first, second)
        crossed = (cross_coin < config.crossover_prob)[:, None] & (gene_src == 1)
        children = np.where(crossed, population[winners[:, 1]], population[winners[:, 0]])
        return np.where(mut_mask, mut_vals, children)

    def advance(self, gen: int, n_elite: int, children: np.ndarray,
                child_fit: np.ndarray) -> None:
        """Keep the elite, take in the scored children and update the best."""
        elite_order = np.argsort(self.fit, kind="stable")[:n_elite]
        self.population = np.vstack([self.population[elite_order], children])
        self.fit = np.concatenate([self.fit[elite_order], child_fit])
        gen_best = int(np.argmin(self.fit))
        if float(self.fit[gen_best]) < self.best_fit:
            self.best_fit = float(self.fit[gen_best])
            self.best_genes = self.population[gen_best].copy()
            self.last_improvement = gen
        self.trace.append(self.best_fit)


def ga_calibrate(
    kind: str,
    segments: list[FollowingSegment],
    config: GaConfig,
    limits: SimLimits | None = None,
    dt: float = 1.0,
) -> list[tuple[np.ndarray, float, list[float]]]:
    """Run the GA once per seed of config.seeds, all seeds in lockstep.

    Returns one (best genes, best fitness, per-generation trace) per
    seed, in seed order. Each seed draws from its own default_rng(seed)
    in a fixed order, and each generation the distinct unseen rows of
    every live seed are scored as one block, in which every row scores
    what it scores alone: each seed's result is the one it gets run
    alone, bit for bit. A trace starts at the initial population's best
    and is monotone non-increasing thanks to elitism. A seed stops early
    after config.stall_generations without strict improvement, and the
    others run on. Raises ConfigError when every individual of a seed's
    initial population faults.
    """
    if not segments:
        raise ConfigError("no segments to calibrate on")
    bounds = config.bounds_for(kind)
    # two distinct ints beyond 2^53 can become one double, which the check refuses
    lo = np.array([b[0] for b in bounds], dtype=float)
    hi = np.array([b[1] for b in bounds], dtype=float)
    if np.any(lo >= hi):
        raise ConfigError("infeasible gene bounds")
    pop_size = config.population
    n_elite = max(1, int(round(config.elitism_ratio * pop_size)))
    n_children = pop_size - n_elite

    fitness_fn = _make_fitness(kind, segments, limits, dt)
    runs = [_SeedRun(seed, lo, hi, pop_size) for seed in config.seeds]
    fits = np.split(fitness_fn(np.vstack([run.population for run in runs])), len(runs))
    for run, fit in zip(runs, fits):
        if np.all(fit >= FAULT_FITNESS):
            raise ConfigError(
                f"every individual of the initial {kind} population faults; "
                f"the gene bounds {bounds} may lie outside the {kind} model's domain")
        run.start(fit)

    live = runs
    for gen in range(1, config.max_generations + 1):
        children = [run.breed(config, lo, hi, n_children) for run in live]
        child_fits = _score_children(fitness_fn, children, [run.population for run in live],
                                     [run.fit for run in live])
        for run, block, child_fit in zip(live, children, child_fits):
            run.advance(gen, n_elite, block, child_fit)
            if np.any(run.population < lo) or np.any(run.population > hi):
                raise AssertionError("GA produced out-of-bounds genes")
        live = [run for run in live if gen - run.last_improvement < config.stall_generations]
        if not live:
            break

    return [(run.best_genes, run.best_fit, run.trace) for run in runs]


def calibrate_and_validate(
    kind: str,
    segments: list[FollowingSegment],
    config: GaConfig,
    split_fraction: float = 0.8,
    split_seed: int = 0,
    limits: SimLimits | None = None,
    dt: float = 1.0,
) -> tuple[CalibrationResult, GofReport, GofReport]:
    """Split segments, calibrate every seed in lockstep, and report both error sets."""
    calibration, validation = split_segments(segments, split_fraction, split_seed)
    per_seed = []
    best = None
    runs = ga_calibrate(kind, calibration, config, limits, dt)
    for seed, (genes, fit_value, trace) in zip(config.seeds, runs):
        params = genes_to_params(kind, genes)
        per_seed.append((seed, fit_value, params))
        if best is None or fit_value < best[1]:
            best = (seed, fit_value, params, len(trace) - 1)
    result = CalibrationResult(
        model_kind=kind,
        best_params=best[2],
        fitness=best[1],
        per_seed=per_seed,
        generations_run=best[3],
    )
    report_calib = gof_report(result.best_params, calibration, limits, dt)
    report_valid = gof_report(result.best_params, validation, limits, dt)
    return result, report_calib, report_valid


def load_ga_config(path: str | Path) -> GaConfig:
    return GaConfig.from_dict(read_json_object(path, "GA config"))
