#!/usr/bin/env python3
"""Synthetic parameter-recovery experiment.

Generates follower trajectories with a known parameter set, calibrates
the chosen model against them with the seeded GA, and reports the best
fitness plus the recovered equilibrium-spacing curve. The seeds run in
lockstep, in one GA call. With the default budget (60 trips, 100 x 1000
GA, three seeds) a 2-core box (Python 3.11, numpy 2.4) takes about 7 s
for idm and 12 s for blend; trim --generations or --seeds for a quicker
look.

  python scripts/recovery_experiment.py --model idm --seeds 0 1 2
"""

from __future__ import annotations

import argparse
import time

from cfcalib import GaConfig, equilibrium_spacing, ga_calibrate
from cfcalib.fixtures import short_trip_segments
from cfcalib.models import default_params, genes_to_params


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model", choices=["idm", "blend"], default="idm")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    parser.add_argument("--generations", type=int, default=1000)
    parser.add_argument("--population", type=int, default=100)
    parser.add_argument("--trips", type=int, default=60)
    parser.add_argument("--trip-seconds", type=int, default=10)
    args = parser.parse_args()

    truth = default_params(args.model)
    segments = short_trip_segments(truth, n_trips=args.trips, trip_seconds=args.trip_seconds)
    print(f"{len(segments)} trips, {sum(len(s) for s in segments)} samples")

    config = GaConfig(
        population=args.population,
        max_generations=args.generations,
        seeds=list(args.seeds),
        stall_generations=args.generations,
    )
    start = time.perf_counter()
    runs = ga_calibrate(args.model, segments, config)
    elapsed = time.perf_counter() - start
    for seed, (_, fit, trace) in zip(config.seeds, runs):
        print(f"seed {seed}: fitness {fit:.3e} after {len(trace) - 1} generations")
    print(f"{len(runs)} seeds in lockstep: {elapsed:.1f}s")

    genes, fit, _ = min(runs, key=lambda run: run[1])
    recovered = genes_to_params(args.model, genes)
    print(f"\nbest fitness (NRMSE spacing): {fit:.3e}")
    print(f"recovered: {recovered}")
    print("\nequilibrium spacing (ft):  truth   recovered")
    for v in (6.0, 10.0, 14.0):
        s_true = equilibrium_spacing(truth, v)
        s_rec = equilibrium_spacing(recovered, v)
        print(f"  v = {v:4.1f} ft/s          {s_true:7.2f}  {s_rec:9.2f}"
              f"   ({abs(s_rec - s_true) / s_true:.2%} off)")


if __name__ == "__main__":
    main()
