#!/usr/bin/env python3
"""Generate a demo pair of GPS logs and run the full pipeline on them.

Writes leader.csv / follower.csv plus every downstream artifact into
--out-dir, using the package CLI for each stage: pair.json,
segments.json and its binary sidecar segments.json.columns, stats.json
and stats.txt, idm.json, sim.json, gof.json, the SVGs under figures/,
and a .manifest.json next to each output. Handy for a quick end-to-end
smoke run:

  python scripts/make_demo_data.py --out-dir demo/
"""

from __future__ import annotations

import argparse
import math
from pathlib import Path

import numpy as np

from cfcalib.cli import main as cli

DEG_PER_FT = 1.0 / (6_371_008.8 * math.pi / 180.0 / 0.3048)
BASE_LAT = 28.37
BASE_LON = -81.25


def write_logs(out_dir: Path, seconds: int, seed: int) -> tuple[Path, Path]:
    rng = np.random.default_rng(seed)
    t = np.arange(seconds)
    leader_speed = np.clip(
        12.0 + 3.0 * np.sin(t / 11.0) + rng.normal(0.0, 0.15, seconds), 0.5, 18.0)
    follower_speed = np.clip(
        12.0 + 3.0 * np.sin((t - 4) / 11.0) + rng.normal(0.0, 0.15, seconds), 0.5, 18.0)
    # the shuttle pauses twice at stops
    for stop in (seconds // 3, 2 * seconds // 3):
        follower_speed[stop:stop + 6] = 0.0

    leader_along = np.cumsum(np.concatenate([[120.0], leader_speed[:-1]]))
    follower_along = np.cumsum(np.concatenate([[0.0], follower_speed[:-1]]))

    leader_path = out_dir / "leader.csv"
    follower_path = out_dir / "follower.csv"
    for path, along in ((leader_path, leader_along), (follower_path, follower_along)):
        rows = ["t,lat,lon\n"]
        rows += [f"{i},{BASE_LAT + d * DEG_PER_FT:.10f},{BASE_LON}\n"
                 for i, d in enumerate(along)]
        path.write_text("".join(rows), encoding="utf-8")
    return leader_path, follower_path


def run(argv: list[str]) -> None:
    print("$ cfcalib " + " ".join(argv))
    rc = cli(argv)
    if rc != 0:
        raise SystemExit(rc)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="demo")
    parser.add_argument("--seconds", type=int, default=240)
    parser.add_argument("--seed", type=int, default=17)
    args = parser.parse_args()

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    leader, follower = write_logs(out, args.seconds, args.seed)

    run(["ingest", "--leader", str(leader), "--follower", str(follower),
         "--out", str(out / "pair.json")])
    run(["clean", "--pair", str(out / "pair.json"), "--out", str(out / "segments.json")])
    run(["stats", "--segments", str(out / "segments.json"),
         "--out", str(out / "stats.json"), "--svg-dir", str(out / "figures")])
    run(["report", "--input", str(out / "stats.json"), "--out", str(out / "stats.txt")])

    import cfcalib.models as models
    models.write_params(models.default_params("idm"), out / "idm.json")
    run(["simulate", "--model", str(out / "idm.json"),
         "--segments", str(out / "segments.json"),
         "--out", str(out / "sim.json"), "--svg-dir", str(out / "figures")])
    run(["validate", "--params", str(out / "idm.json"),
         "--segments", str(out / "segments.json"), "--out", str(out / "gof.json")])
    print(f"\ndemo artifacts in {out}/")


if __name__ == "__main__":
    main()
