#!/usr/bin/env python3
"""Diff two sets of benchmark result files, per workload and metric.

  python3 benchmarks/compare.py BEFORE AFTER

BEFORE and AFTER are result files written by run.py, or directories
searched recursively for them (``.bench_results/`` by default holds one
file per workload, seed and trace mode). For each workload and metric it
prints the median and quartiles of each side over its runs (a single
run shows its own within-run quartiles) and the relative change of the
medians. An end-to-end metric that got worse by more than its bound in
BENCHMARK.json is flagged REGRESSION; one whose BEFORE spread (quartile
distance over median) is wider than its bound is flagged unresolved, as
a move of that size cannot be told from noise. Exit status 1 when any
regression is flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path) -> dict[tuple[str, int], dict[str, list[dict]]]:
    files = sorted(path.rglob("*.json")) if path.is_dir() else [path]
    out: dict[tuple[str, int], dict[str, list[dict]]] = {}
    for f in files:
        data = json.loads(f.read_text())
        if "metrics" not in data or "workload" not in data:
            continue
        group = out.setdefault((data["workload"], data["trace"]), {})
        for name, m in data["metrics"].items():
            group.setdefault(name, []).append(m)
    return out


def summary(runs: list[dict]) -> tuple[float, float, float, int]:
    if len(runs) == 1:
        m = runs[0]
        return m["q1"], m["value"], m["q3"], 1
    values = [m["value"] for m in runs]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3, len(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("before", type=Path)
    parser.add_argument("after", type=Path)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    before, after = load(args.before), load(args.after)
    regressions = 0
    for key in sorted(set(before) & set(after)):
        workload, trace = key
        print(f"== {workload} ({'per-layer' if trace else 'end-to-end'})")
        print(f"  {'metric':32s} {'before median [q1, q3] (runs)':40s} "
              f"{'after median [q1, q3] (runs)':40s} change")
        for name in sorted(set(before[key]) & set(after[key])):
            b1, bm, b3, bn = summary(before[key][name])
            a1, am, a3, an = summary(after[key][name])
            change = (am - bm) / abs(bm) if bm else float("nan")
            info = meta.get(name, {})
            worse = change if info.get("better") == "lower" else -change
            bound = info.get("bound")
            flag = ""
            if bound is not None:
                if bm and (b3 - b1) / abs(bm) > bound:
                    flag = "unresolved"
                elif worse > bound:
                    flag = "REGRESSION"
                    regressions += 1
            left = f"{bm:.6g} [{b1:.6g}, {b3:.6g}] ({bn})"
            right = f"{am:.6g} [{a1:.6g}, {a3:.6g}] ({an})"
            print(f"  {name:32s} {left:40s} {right:40s} {change:+.1%} {flag}")
    for key in sorted(set(before) ^ set(after)):
        print(f"== {key[0]} (trace {key[1]}): only in {'before' if key in before else 'after'}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
