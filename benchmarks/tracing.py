"""In-memory spans around cfcalib's public layer functions.

The benchmark wraps the functions listed in ``LAYER_FUNCTIONS`` for the
duration of a traced pass. A wrapper replaces every reference to the
original function in the loaded ``cfcalib`` modules, so calls through
``cli`` (which imports names directly) and calls between layers (``calib``
calling ``sim.simulate_all``) are both seen. Nothing inside cfcalib is
edited; untraced passes run the original functions.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np


def _sim_counts(args: dict, result) -> dict:
    dt = float(args.get("dt", 1.0))
    steps = sum(int(np.rint(np.diff(seg.t) / dt).sum()) for seg in args["segments"])
    return {"steps": steps, "collisions": sum(int(r.collisions) for r in result)}


def budget_evals(population: int, generations: int, elitism_ratio: float) -> int:
    """Fitness evaluations of one GA seed that runs its whole budget."""
    n_elite = max(1, int(round(elitism_ratio * population)))
    return population + generations * (population - n_elite)


def _ga_counts(args: dict, result) -> dict:
    # stall stopping is off in every workload, so the budget fixes the work
    cfg = args["config"]
    return {"generations": cfg.max_generations + 1,
            "evals": budget_evals(cfg.population, cfg.max_generations, cfg.elitism_ratio)}


# (module, public function, counts recorded at the boundary from the
# bound arguments and the return value)
LAYER_FUNCTIONS = (
    ("cfcalib.ingest", "read_gps_pair", None),
    ("cfcalib.ingest", "derive_kinematics", None),
    ("cfcalib.cleaning", "pair_trajectories", lambda a, r: {"paired": len(r)}),
    ("cfcalib.cleaning", "clean_segments",
     lambda a, r: {"retained": sum(len(s) for s in r)}),
    ("cfcalib.cleaning", "read_segments_json", None),
    ("cfcalib.stats", "analyze_segments", None),
    ("cfcalib.sim", "simulate_all", _sim_counts),
    ("cfcalib.calib", "ga_calibrate", _ga_counts),
    ("cfcalib.calib", "gof_report", None),
)


@dataclass
class Span:
    run_id: int
    span_id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)
    error: str | None = None


class Tracer:
    """Collects spans in memory; one tracer per benchmark process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run_id = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        sp = Span(self.run_id, len(self.spans), parent, name, time.perf_counter())
        self.spans.append(sp)
        self._stack.append(sp.span_id)
        try:
            yield sp
        except BaseException as exc:
            sp.error = type(exc).__name__
            raise
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn, counter):
        sig = inspect.signature(fn)
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name) as sp:
                result = fn(*args, **kwargs)
                if counter is not None:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    sp.counts = counter(bound.arguments, result)
                return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self):
        """Swap every loaded reference to a layer function for a traced one."""
        patches = []
        for module_name, attr, counter in LAYER_FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            wrapped = self._wrap(f"{module_name.split('.')[-1]}.{attr}", original, counter)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "cfcalib" or mod_name.startswith("cfcalib.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        patches.append((mod, key, original))
                        setattr(mod, key, wrapped)
        try:
            yield self
        finally:
            for mod, key, original in reversed(patches):
                setattr(mod, key, original)

    def write(self, path) -> None:
        """Dump every span as one JSON object per line."""
        with open(path, "w") as handle:
            for sp in self.spans:
                handle.write(json.dumps(sp.__dict__) + "\n")


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per-name sums of self time: duration minus the direct children's."""
    child = {}
    for sp in spans:
        if sp.parent is not None:
            child[sp.parent] = child.get(sp.parent, 0.0) + (sp.end - sp.start)
    out: dict[str, float] = {}
    for sp in spans:
        own = (sp.end - sp.start) - child.get(sp.span_id, 0.0)
        out[sp.name] = out.get(sp.name, 0.0) + own
    return out


def count_sums(spans: list[Span]) -> dict[str, float]:
    """Per-name sums of the counts recorded at span boundaries."""
    out: dict[str, float] = {}
    for sp in spans:
        for key, value in sp.counts.items():
            name = f"{sp.name}.{key}"
            out[name] = out.get(name, 0) + value
    return out
