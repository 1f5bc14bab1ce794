import functools
import hashlib
import json
import math
import operator
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from cfcalib.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"
DEG_PER_FT = 1.0 / (6_371_008.8 * math.pi / 180.0 / 0.3048)


def write_logs(tmp_path, seconds=90, stop_at=None, stop_len=5, step=1.0):
    """Two logs up a meridian, a fix every `step` s; the follower optionally pauses mid-run."""
    t = np.arange(round(seconds / step)) * step
    leader_speed = 12.0 + 2.0 * np.sin(t / 9.0)
    follower_speed = 12.0 + 2.0 * np.sin((t - 3) / 9.0)
    if stop_at is not None:
        follower_speed[stop_at:stop_at + stop_len] = 0.0
    leader_lat = np.cumsum(np.concatenate([[100.0], leader_speed[:-1] * step])) * DEG_PER_FT
    follower_lat = np.cumsum(np.concatenate([[0.0], follower_speed[:-1] * step])) * DEG_PER_FT
    leader = tmp_path / "leader.csv"
    follower = tmp_path / "follower.csv"
    leader.write_text("t,lat,lon\n" + "".join(
        f"{ti:g},{lat:.10f},0.0\n" for ti, lat in zip(t, leader_lat)))
    follower.write_text("t,lat,lon\n" + "".join(
        f"{ti:g},{lat:.10f},0.0\n" for ti, lat in zip(t, follower_lat)))
    return leader, follower


def one_error_line_from_fresh_process(argv) -> dict:
    """Run cfcalib in a new interpreter; assert exit 1 and one stderr line, and parse it.

    A fresh interpreter prints a numpy warning to stderr, as the installed
    command would, where this test session raises it.
    """
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "cfcalib.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=120)
    lines = done.stderr.strip().splitlines()
    assert done.returncode == 1
    assert len(lines) == 1, done.stderr
    return json.loads(lines[0])


# one 12-sample segment whose spacing and leader steps overflowed the float
# range before the magnitude rule: simulate wrote Infinity, and calibrate
# printed a numpy warning
FAR_SEGMENT = {
    "t": [float(i) for i in range(12)],
    "leader": {"pos": [1e308] + [1.7e308] * 11, "speed": [0.0] * 12, "accel": [0.0] * 12},
    "follower": {"pos": [-0.7e308] + [1e308] * 11, "speed": [1.0] * 12, "accel": [0.0] * 12},
}


# the columns of one valid 12-sample segment entry, without its id
PLAIN_SEGMENT = {
    "t": [float(i) for i in range(12)],
    "leader": {"pos": [100.0 + 12.0 * i for i in range(12)], "speed": [12.0] * 12,
               "accel": [0.0] * 12},
    "follower": {"pos": [12.0 * i for i in range(12)], "speed": [12.0] * 12, "accel": [0.0] * 12},
}


def run_pipeline_to_segments(tmp_path, **log_kwargs):
    leader, follower = write_logs(tmp_path, **log_kwargs)
    pair = tmp_path / "pair.json"
    segments = tmp_path / "segments.json"
    assert main(["ingest", "--leader", str(leader), "--follower", str(follower),
                 "--out", str(pair)]) == 0
    assert main(["clean", "--pair", str(pair), "--out", str(segments)]) == 0
    return segments


class TestIngest:
    def test_pair_ingest_writes_output_and_manifest(self, tmp_path):
        leader, follower = write_logs(tmp_path)
        out = tmp_path / "pair.json"
        assert main(["ingest", "--leader", str(leader), "--follower", str(follower),
                     "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        # the paired series, with the leader's start offset applied and recorded
        assert set(data) == {"t", "leader", "follower", "leader_start_offset_ft"}
        assert set(data["leader"]) == set(data["follower"]) == {"pos", "speed", "accel"}
        assert data["leader_start_offset_ft"] == pytest.approx(100.0, rel=1e-6)
        assert len(data["t"]) == len(data["leader"]["accel"]) == 90
        spacing = data["leader"]["pos"][0] - data["follower"]["pos"][0]
        assert spacing == pytest.approx(100.0, rel=1e-6)
        manifest = json.loads((tmp_path / "pair.json.manifest.json").read_text())
        assert manifest["subcommand"] == "ingest"
        assert len(manifest["inputs"]) == 2

    def test_pair_ingest_offset_at_first_common_time(self, tmp_path):
        # the follower's log starts 10 s late, 50 ft past the leader's first
        # fix and 70 ft behind the leader: arc lengths 120 and 0 then
        leader, follower = tmp_path / "leader.csv", tmp_path / "follower.csv"
        leader.write_text("t,lat,lon\n" + "".join(
            f"{i},{12.0 * i * DEG_PER_FT:.10f},0.0\n" for i in range(60)))
        follower.write_text("t,lat,lon\n" + "".join(
            f"{i},{(50.0 + 12.0 * (i - 10)) * DEG_PER_FT:.10f},0.0\n" for i in range(10, 50)))
        out = tmp_path / "pair.json"
        assert main(["ingest", "--leader", str(leader), "--follower", str(follower),
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["leader_start_offset_ft"] == pytest.approx(-50.0, rel=1e-6)

    def test_manifest_counts_the_pairs_and_the_dropped_follower_times(self, tmp_path):
        # leader fixes 0-39 and 50-79 s: its 11-s step is a gap, which drops the
        # follower's 40-49 s; the follower logs on to 89 s, past the leader's span
        leader, follower = tmp_path / "leader.csv", tmp_path / "follower.csv"
        leader.write_text("t,lat,lon\n" + "".join(
            f"{i},{(100.0 + 12.0 * i) * DEG_PER_FT:.10f},0.0\n"
            for i in [*range(40), *range(50, 80)]))
        follower.write_text("t,lat,lon\n" + "".join(
            f"{i},{12.0 * i * DEG_PER_FT:.10f},0.0\n" for i in range(90)))
        out = tmp_path / "pair.json"
        assert main(["ingest", "--leader", str(leader), "--follower", str(follower),
                     "--out", str(out)]) == 0
        assert len(json.loads(out.read_text())["t"]) == 70
        manifest = json.loads(Path(f"{out}.manifest.json").read_text())
        assert manifest["counts"] == {
            "leader_fixes": 70, "follower_fixes": 90, "pairs": 70,
            "dropped_outside_leader_span": 10, "dropped_in_leader_gap": 10}

    def test_follower_inside_one_leader_gap_exits_one(self, tmp_path, capsys):
        leader, follower = tmp_path / "leader.csv", tmp_path / "follower.csv"
        leader.write_text("t,lat,lon\n" + "".join(
            f"{i},{12.0 * i * DEG_PER_FT:.10f},0.0\n" for i in [*range(20), *range(60, 80)]))
        follower.write_text("t,lat,lon\n" + "".join(
            f"{i + 0.5},{12.0 * i * DEG_PER_FT:.10f},0.0\n" for i in range(25, 45)))
        out = tmp_path / "pair.json"
        rc = main(["ingest", "--leader", str(leader), "--follower", str(follower),
                   "--out", str(out)])
        lines = capsys.readouterr().err.strip().splitlines()
        assert rc == 1
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "pairing"
        assert not out.exists()

    @pytest.mark.parametrize("missing", ["leader", "follower"])
    def test_missing_file_exits_one_and_names_path(self, tmp_path, capsys, missing):
        logs = dict(zip(("leader", "follower"), write_logs(tmp_path)))
        logs[missing] = tmp_path / "nope.csv"
        out = tmp_path / "x.json"
        rc = main(["ingest", "--leader", str(logs["leader"]), "--follower",
                   str(logs["follower"]), "--out", str(out)])
        lines = capsys.readouterr().err.strip().splitlines()
        assert rc == 1
        assert len(lines) == 1
        assert "nope.csv" in json.loads(lines[0])["message"]
        assert not out.exists()

    def test_unknown_flag_exits_two(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["ingest", "--bogus", "x"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["ingest", "--input", "{leader}"],
        ["ingest", "--leader", "{leader}", "--follower", "{follower}", "--vehicle-id", "v"],
        ["clean", "--leader", "{leader}", "--follower", "{follower}"],
        ["clean", "--pair", "{pair}", "--leader-offset", "0"],
        ["ingest", "--leader", "{leader}"],
        ["clean"],
    ], ids=["ingest-input", "ingest-vehicle-id", "clean-leader-follower", "clean-leader-offset",
            "ingest-without-follower", "clean-without-pair"])
    def test_removed_or_missing_log_flags_exit_two(self, tmp_path, argv):
        """Logs reach segments one way: `ingest --leader --follower`, then `clean --pair`."""
        leader, follower = write_logs(tmp_path)
        pair = tmp_path / "pair.json"
        assert main(["ingest", "--leader", str(leader), "--follower", str(follower),
                     "--out", str(pair)]) == 0
        out = tmp_path / "out.json"
        paths = {"leader": leader, "follower": follower, "pair": pair}
        with pytest.raises(SystemExit) as exc:
            main([arg.format(**paths) for arg in argv] + ["--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

    def test_dt_flag_removed(self, tmp_path):
        """Cleaning measures the cadence from the pair's times; a `--dt` flag is a usage error."""
        leader, follower = write_logs(tmp_path)
        out = tmp_path / "pair.json"
        with pytest.raises(SystemExit) as exc:
            main(["ingest", "--leader", str(leader), "--follower", str(follower), "--dt", "1",
                  "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("times", ["epoch", "iso"])
    def test_byte_order_mark_is_dropped(self, tmp_path, monkeypatch, times):
        """A log that starts with a UTF-8 byte-order mark pairs as the log without it.

        Epoch times take the one-parse reader, which must not give way to
        the row-wise one; ISO-8601 times take the row-wise reader, after
        reading the file again from the top.
        """
        from cfcalib import ingest

        leader, follower = write_logs(tmp_path)
        if times == "epoch":
            def refuse(*args):
                raise AssertionError("the row-wise reader ran")

            monkeypatch.setattr(ingest, "_parse_rows", refuse)
        else:
            for log in (leader, follower):
                header, *rows = log.read_text().splitlines()
                log.write_text("".join(
                    f"{line}\n" for line in [header] + [
                        datetime.fromtimestamp(float(t), timezone.utc).isoformat() + "," + rest
                        for t, rest in (row.split(",", 1) for row in rows)]))
        pairs = []
        for mark in (b"", b"\xef\xbb\xbf"):
            directory = tmp_path / f"mark-{len(mark)}"
            directory.mkdir()
            (directory / "leader.csv").write_bytes(mark + leader.read_bytes())
            out = directory / "pair.json"
            assert main(["ingest", "--leader", str(directory / "leader.csv"),
                         "--follower", str(follower), "--out", str(out)]) == 0
            pairs.append(out.read_bytes())
        assert pairs[0] == pairs[1]

    def test_inputs_never_mutated(self, tmp_path):
        leader, follower = write_logs(tmp_path)
        before = (leader.read_bytes(), follower.read_bytes())
        main(["ingest", "--leader", str(leader), "--follower", str(follower),
              "--out", str(tmp_path / "pair.json")])
        assert (leader.read_bytes(), follower.read_bytes()) == before


class TestCleanAndStats:
    def test_clean_produces_segments(self, tmp_path):
        segments = run_pipeline_to_segments(tmp_path, stop_at=45)
        data = json.loads(segments.read_text())
        assert len(data["segments"]) == 2
        assert data["retained_samples"] > 0

    @pytest.mark.parametrize("damage, named", [
        ("old_trajectory_layout", "pair JSON lacks t"),
        ("points_layout", "pair JSON lacks t"),
        ("missing_column", "pair JSON follower lacks accel"),
        ("ragged_column", "pair JSON follower speed: must be a list of numbers"),
    ], ids=["old_trajectory_layout", "points_layout", "missing_column", "ragged_column"])
    def test_malformed_pair_exits_one(self, tmp_path, capsys, damage, named):
        leader, follower = write_logs(tmp_path)
        pair = tmp_path / "pair.json"
        assert main(["ingest", "--leader", str(leader), "--follower", str(follower),
                     "--out", str(pair)]) == 0
        data = json.loads(pair.read_text())
        if damage in ("old_trajectory_layout", "points_layout"):
            # the layout of earlier versions: two unpaired trajectories
            n = len(data["t"])
            data = {side: {"vehicle_id": side, "dt": 1.0, "t": data["t"], **data[side],
                           "jerk": [0.0] * n} for side in ("leader", "follower")}
            data["leader_start_offset_ft"] = 100.0
            if damage == "points_layout":  # and the older one object per sample
                keys = ("t", "pos", "speed", "accel", "jerk")
                for side in ("leader", "follower"):
                    data[side]["points"] = [dict(zip(keys, row)) for row in
                                            zip(*(data[side].pop(k) for k in keys))]
        elif damage == "missing_column":
            del data["follower"]["accel"]
        else:
            data["follower"]["speed"] = data["follower"]["speed"][:-1]
        pair.write_text(json.dumps(data))
        capsys.readouterr()
        rc = main(["clean", "--pair", str(pair), "--out", str(tmp_path / "segments.json")])
        lines = capsys.readouterr().err.strip().splitlines()
        assert rc == 1
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "domain"
        assert err["message"].startswith(f"{pair}: {named}")

    def test_step_above_one_and_a_half_median_steps_splits(self, tmp_path):
        """2-Hz logs with one follower fix missing: with no flag, the 1.0-s step there is a gap."""
        leader, follower = write_logs(tmp_path, seconds=60, step=0.5)
        lines = follower.read_text().splitlines(keepends=True)
        del lines[61]  # the fix at t = 30
        follower.write_text("".join(lines))
        pair, out = tmp_path / "pair.json", tmp_path / "segments.json"
        assert main(["ingest", "--leader", str(leader), "--follower", str(follower),
                     "--out", str(pair)]) == 0
        assert main(["clean", "--pair", str(pair), "--out", str(out)]) == 0
        segments = json.loads(out.read_text())["segments"]
        assert [(s["t"][0], s["t"][-1]) for s in segments] == [(0.0, 29.5), (30.5, 59.5)]
        assert all(np.diff(s["t"]).max() == 0.5 for s in segments)

    @pytest.mark.parametrize("dt", ["1.0", "7"])
    def test_older_pair_dt_is_not_read(self, tmp_path, dt):
        """A pair file of earlier versions carries `dt`; the times give the cadence instead."""
        segments = run_pipeline_to_segments(tmp_path, stop_at=45)
        pair = tmp_path / "pair.json"
        old = tmp_path / "old-pair.json"
        old.write_text('{"dt": %s, %s' % (dt, pair.read_text()[1:]))
        out = tmp_path / "again.json"
        assert main(["clean", "--pair", str(old), "--out", str(out)]) == 0
        assert out.read_bytes() == segments.read_bytes()

    @pytest.mark.filterwarnings("error")
    def test_one_sample_pair_exits_one(self, tmp_path, capsys):
        """One sample has no time step: no car-following, and no warning from a median of none."""
        pair = tmp_path / "pair.json"
        pair.write_text(json.dumps({
            "t": [0.0], "leader": {"pos": [100.0], "speed": [10.0], "accel": [0.0]},
            "follower": {"pos": [0.0], "speed": [10.0], "accel": [0.0]},
            "leader_start_offset_ft": 0.0}))
        out = tmp_path / "segments.json"
        rc = main(["clean", "--pair", str(pair), "--out", str(out)])
        lines = capsys.readouterr().err.strip().splitlines()
        assert rc == 1
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "no-car-following"
        assert not out.exists()

    @pytest.mark.parametrize("offset", ["1e400", '"x"', None], ids=["1e400", "string", "absent"])
    def test_recorded_leader_offset_is_not_read(self, tmp_path, offset):
        """The positions carry the offset already; clean reads neither it nor its type."""
        segments = run_pipeline_to_segments(tmp_path, stop_at=45)
        pair = tmp_path / "pair.json"
        data = json.loads(pair.read_text())
        if offset is None:
            del data["leader_start_offset_ft"]
            text = json.dumps(data)
        else:
            data["leader_start_offset_ft"] = "@"
            text = json.dumps(data).replace('"@"', offset)
        pair.write_text(text)
        out = tmp_path / "again.json"
        assert main(["clean", "--pair", str(pair), "--out", str(out)]) == 0
        assert out.read_bytes() == segments.read_bytes()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("flag", ["max-accel", "max-follower-speed", "max-spacing"])
    def test_non_finite_threshold_exits_one(self, tmp_path, capsys, flag, value):
        leader, follower = write_logs(tmp_path)
        pair = tmp_path / "pair.json"
        assert main(["ingest", "--leader", str(leader), "--follower", str(follower),
                     "--out", str(pair)]) == 0
        capsys.readouterr()
        out = tmp_path / "segments.json"
        rc = main(["clean", "--pair", str(pair), f"--{flag}={value}", "--out", str(out)])
        lines = capsys.readouterr().err.strip().splitlines()
        assert rc == 1
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "domain"
        assert f"cleaning threshold {flag.replace('-', '_')} must be finite" in err["message"]
        assert sorted(tmp_path.iterdir()) == sorted([leader, follower, pair,
                                                     Path(f"{pair}.manifest.json")])

    @pytest.mark.parametrize("value", ["-1", "0", "1", "9"])
    def test_min_segment_len_below_the_floor_exits_one(self, tmp_path, capsys, value):
        """Below 10 samples, the least a segment holds, clean would cut segments it then rejects."""
        leader, follower = write_logs(tmp_path)
        pair = tmp_path / "pair.json"
        assert main(["ingest", "--leader", str(leader), "--follower", str(follower),
                     "--out", str(pair)]) == 0
        capsys.readouterr()
        out = tmp_path / "segments.json"
        rc = main(["clean", "--pair", str(pair), f"--min-segment-len={value}", "--out", str(out)])
        lines = capsys.readouterr().err.strip().splitlines()
        assert rc == 1
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"error": "domain", "message":
                                        f"min_segment_len must be at least 10 samples, got {value}"}
        assert sorted(tmp_path.iterdir()) == sorted([leader, follower, pair,
                                                     Path(f"{pair}.manifest.json")])

    def test_pair_times_out_of_range_exit_one(self, tmp_path):
        """Pair times beyond ±2^53, whose differences overflowed the float range."""
        n = 12
        t = [-1.7e308, 1.7e308] + [1.7e308 + k * 1e305 for k in range(1, n - 1)]

        def side(pos0):
            return {"pos": [pos0 + 10.0 * i for i in range(n)], "speed": [10.0] * n,
                    "accel": [0.0] * n}

        pair = tmp_path / "pair.json"
        pair.write_text(json.dumps({"t": t, "leader": side(100.0), "follower": side(0.0),
                                    "leader_start_offset_ft": 100.0}))
        err = one_error_line_from_fresh_process(
            ["clean", "--pair", str(pair), "--out", str(tmp_path / "segments.json")])
        assert err == {"error": "domain", "message": f"{pair}: pair JSON t: -1.7e+308 at index 0 "
                                                     f"must be finite and within [-2^53, 2^53]"}

    @pytest.mark.parametrize("command", ["stats", "simulate", "validate", "calibrate"])
    @pytest.mark.parametrize("case", ["times", "spacing", "leader-step"])
    def test_segment_values_out_of_range_exit_one(self, tmp_path, command, case):
        """Times or positions beyond ±2^53: near the float range their differences overflowed."""
        n = 12
        t = [float(i) for i in range(n)]
        leader = [100.0 + 10.0 * i for i in range(n)]
        follower = [10.0 * i for i in range(n)]
        if case == "times":
            t = [-1.7e308, 1.7e308] + [1.7e308 + k * 1e305 for k in range(1, n - 1)]
            named = "t: -1.7e+308 at index 0"
        elif case == "spacing":
            leader, follower = [1.7e308] * n, [-1.7e308] * n
            named = "leader pos: 1.7e+308 at index 0"
        else:
            leader = [100.0] + [1.7e308] * (n - 1)
            named = "leader pos: 1.7e+308 at index 1"
        err = self.run_on_segments(
            tmp_path, command, t,
            {"pos": leader, "speed": [10.0] * n, "accel": [0.0] * n},
            {"pos": follower, "speed": [10.0] * n, "accel": [0.0] * n})
        assert err == {"error": "domain", "message": f"segment 0 {named} "
                                                     f"must be finite and within [-2^53, 2^53]"}

    @pytest.mark.parametrize("command", ["simulate", "validate", "calibrate"])
    @pytest.mark.parametrize("dt", ["1e-300", "1e-06"], ids=["too-many-substeps",
                                                            "schedule-too-large"])
    def test_dt_cuts_more_substeps_than_the_schedule_holds_exit_one(self, tmp_path, command,
                                                                    dt):
        """A first interval of 1e15 s cut into more sub-steps than the schedule can hold.

        At dt 1e-300 the count overflows to infinity, and at dt 1e-6 it is
        finite but more than an array of that many floats per lane can hold.
        """
        n = 12
        t = [0.0, 1e15] + [1e15 + k for k in range(1, n - 1)]
        leader = {"pos": [100.0 + 10.0 * i for i in range(n)],
                  "speed": [10.0] * n, "accel": [0.0] * n}
        follower = {"pos": [10.0 * i for i in range(n)], "speed": [10.0] * n, "accel": [0.0] * n}
        err = self.run_on_segments(tmp_path, command, t, leader, follower, ["--dt", dt])
        assert err == {"error": "config", "message": f"dt={float(dt)} does not divide the "
                                                     f"1e+15 s observation interval"}

    def test_stats_on_times_ulps_apart_exits_one(self, tmp_path):
        """Times 5e-324 s apart make the jerk overflow: no Infinity in an output."""
        n = 12
        err = self.run_on_segments(
            tmp_path, "stats", [k * 5e-324 for k in range(n)],
            {"pos": [100.0] * n, "speed": [10.0] * n, "accel": [0.0] * n},
            {"pos": [0.0] * n, "speed": [10.0] * n, "accel": [float(k % 2) for k in range(n)]})
        assert err["error"] == "domain"
        assert err["message"].startswith("segment values too large for statistics")

    @pytest.mark.parametrize("command, copies", [("simulate", 1), ("calibrate", 3)])
    def test_positions_whose_differences_overflowed_exit_one(self, tmp_path, command, copies):
        """FAR_SEGMENT: simulate wrote Infinity, calibrate a numpy warning and a config line."""
        segments = tmp_path / "segments.json"
        segments.write_text(json.dumps({"segments": [{"id": f"far-{i}", **FAR_SEGMENT}
                                                     for i in range(copies)]}))
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"model": "idm", "a": 2, "delta": 4, "v0": 20, "s0": 5,
                                     "T": 1.5, "b": 3}))
        config = tmp_path / "ga.json"
        config.write_text(json.dumps({"population": 4, "max_generations": 1, "seeds": [0]}))
        argv = {"simulate": ["simulate", "--model", str(model)],
                "calibrate": ["calibrate", "--model", "idm", "--config", str(config)]}[command]
        out = tmp_path / "out.json"
        err = one_error_line_from_fresh_process(
            argv + ["--segments", str(segments), "--out", str(out)])
        assert err == {"error": "domain", "message": "segment 0 leader pos: 1e+308 at index 0 "
                                                     "must be finite and within [-2^53, 2^53]"}
        assert sorted(tmp_path.iterdir()) == sorted([segments, model, config])

    @staticmethod
    def run_on_segments(tmp_path, command, t, leader, follower, flags=()) -> dict:
        """Run a command on two segments far-0 and far-1 in a fresh process; its one error line."""
        from cfcalib.models import default_params, write_params

        segments = tmp_path / "segments.json"
        segments.write_text(json.dumps({"segments": [
            {"id": segment_id, "t": t, "leader": leader, "follower": follower}
            for segment_id in ("far-0", "far-1")]}))
        model = tmp_path / "model.json"
        write_params(default_params("idm"), model)
        config = tmp_path / "ga.json"
        config.write_text(json.dumps({"population": 4, "max_generations": 1, "seeds": [0]}))
        argv = {"stats": ["stats"], "simulate": ["simulate", "--model", str(model)],
                "validate": ["validate", "--params", str(model)],
                "calibrate": ["calibrate", "--model", "idm", "--config", str(config)]}[command]
        out = tmp_path / "out.json"
        err = one_error_line_from_fresh_process(
            argv + [*flags, "--segments", str(segments), "--out", str(out)])
        assert not out.exists()
        return err

    def test_stats_report_and_svgs(self, tmp_path):
        segments = run_pipeline_to_segments(tmp_path)
        out = tmp_path / "stats.json"
        svg_dir = tmp_path / "figures"
        assert main(["stats", "--segments", str(segments), "--out", str(out),
                     "--svg-dir", str(svg_dir)]) == 0
        report = json.loads(out.read_text())
        assert set(report["descriptive"]) == {"speed", "accel", "jerk", "spacing"}
        svgs = sorted(p.name for p in svg_dir.glob("*.svg"))
        assert svgs == ["hist_accel.svg", "hist_jerk.svg", "hist_spacing.svg",
                        "hist_speed.svg"]
        for svg in svg_dir.glob("*.svg"):
            ET.fromstring(svg.read_text())  # valid XML

    def test_svg_deterministic(self, tmp_path):
        segments = run_pipeline_to_segments(tmp_path)
        digests = []
        for attempt in ("a", "b"):
            svg_dir = tmp_path / attempt
            assert main(["stats", "--segments", str(segments),
                         "--out", str(tmp_path / f"stats_{attempt}.json"),
                         "--svg-dir", str(svg_dir)]) == 0
            digests.append(hashlib.sha256(
                (svg_dir / "hist_speed.svg").read_bytes()).hexdigest())
        assert digests[0] == digests[1]


class TestSimulateValidateReport:
    def test_simulate_with_bundled_model(self, tmp_path):
        from cfcalib.models import default_params, write_params

        segments = run_pipeline_to_segments(tmp_path)
        model = tmp_path / "idm.json"
        write_params(default_params("idm"), model)
        out = tmp_path / "sim.json"
        svg_dir = tmp_path / "simfigs"
        assert main(["simulate", "--model", str(model), "--segments", str(segments),
                     "--out", str(out), "--svg-dir", str(svg_dir)]) == 0
        data = json.loads(out.read_text())
        assert len(data["results"]) == 1
        assert list(svg_dir.glob("*_spacing.svg"))

    def test_validate_reports_gof(self, tmp_path):
        from cfcalib.models import default_params, write_params

        segments = run_pipeline_to_segments(tmp_path)
        model = tmp_path / "idm.json"
        write_params(default_params("idm"), model)
        out = tmp_path / "gof.json"
        assert main(["validate", "--params", str(model), "--segments", str(segments),
                     "--out", str(out)]) == 0
        gof = json.loads(out.read_text())["gof"]
        assert set(gof) == {"nrmse_spacing", "mae_spacing", "rmse_spacing",
                            "nrmse_speed", "mae_speed", "rmse_speed"}

    def test_report_renders_stats_tables(self, tmp_path, capsys):
        segments = run_pipeline_to_segments(tmp_path)
        stats_out = tmp_path / "stats.json"
        assert main(["stats", "--segments", str(segments), "--out", str(stats_out)]) == 0
        assert main(["report", "--input", str(stats_out)]) == 0
        text = capsys.readouterr().out
        for row in ("mean", "std", "min", "25%", "50%", "75%", "max"):
            assert row in text
        for col in ("Speed", "Accel", "Jerk", "Spacing"):
            assert col in text

    def test_report_benchmarks(self, capsys):
        assert main(["report", "--benchmarks"]) == 0
        out = capsys.readouterr().out
        assert "117.3210" in out  # benchmark mean spacing
        assert "idm" in out

    def test_report_benchmarks_notes_nrmse_mismatch(self, capsys):
        assert main(["report", "--benchmarks"]) == 0
        out = capsys.readouterr().out
        assert "bundled NRMSE values do not compare" in out
        # 54.8555331 / 0.01131187 and hypot(117.321, 126.835)
        assert "about 4,849 ft" in out
        assert "about 173 ft" in out

    def test_report_kind_flag_removed(self, tmp_path):
        """The kind comes from the file; a `--kind` flag is a usage error."""
        empty = tmp_path / "empty.json"
        empty.write_text("{}")
        with pytest.raises(SystemExit) as exc:
            main(["report", "--input", str(empty), "--kind", "stats"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flags", [[], ["--input", "{empty}", "--benchmarks"]],
                             ids=["neither", "both"])
    def test_report_takes_exactly_one_source(self, tmp_path, capsys, flags):
        """`--input` and `--benchmarks` exclude each other, and one of them is required."""
        empty = tmp_path / "empty.json"
        empty.write_text("{}")
        with pytest.raises(SystemExit) as exc:
            main(["report", *(flag.format(empty=empty) for flag in flags)])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_report_empty_input_stub(self, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text("{}")
        assert main(["report", "--input", str(empty)]) == 0
        assert "no data" in capsys.readouterr().out


class TestParserReuse:
    def test_in_process_calls_share_one_parser(self, tmp_path, capsys, monkeypatch):
        """One parser serves every in-process call, and each call ends as with a fresh parser."""
        from cfcalib import cli

        segments = run_pipeline_to_segments(tmp_path)
        pair = tmp_path / "pair.json"
        outs = [tmp_path / name for name in ("tight.json", "default.json", "stats.json")]
        calls = [
            ["clean", "--pair", str(pair), "--min-segment-len", "40", "--out", str(outs[0])],
            ["clean", "--pair", str(pair), "--out", str(outs[1])],  # the defaults again
            ["stats", "--segments", str(segments), "--out", str(outs[2])],
            ["report"],  # neither --input nor --benchmarks
            ["simulate", "--segments", str(segments), "--out", str(tmp_path / "sim.json")],
            ["report", "--benchmarks"],
            ["--version"],
        ]

        def run_calls():
            ends = []
            for argv in calls:
                try:
                    rc = main(argv)
                except SystemExit as exc:
                    rc = exc.code
                captured = capsys.readouterr()
                ends.append((rc, captured.out, captured.err))
            files = []
            for out in outs:
                manifest = json.loads(Path(f"{out}.manifest.json").read_text())
                del manifest["wall_clock_utc"]
                files.append((out.read_bytes(), manifest))
            return ends, files

        cli.build_parser.cache_clear()
        shared = run_calls()
        assert cli.build_parser.cache_info().misses == 1
        assert [rc for rc, _, _ in shared[0]] == [0, 0, 0, 2, 2, 0, 0]
        assert shared[1][0][1]["config"]["min_segment_len"] == 40
        assert shared[1][1][1]["config"]["min_segment_len"] == 10
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        assert run_calls() == shared


class TestSimulationFaultCli:
    # (v / v0) ** 10 overflows on the first step with v > 0, on either engine
    OVERFLOWING_IDM = {"model": "idm", "a": 2, "delta": 10, "v0": 1e-40, "s0": 5, "T": 1,
                       "b": 2}
    # the IDM term is -inf and (1 - c) * -inf is NaN, which the clamps let through
    NAN_BLEND = {"model": "blend", "a": 1, "delta": 4, "v0": 20, "s0": 1e200, "T": 1, "b": 3,
                 "c": 1.0}

    @pytest.mark.parametrize("n_trips", [2, 32], ids=["scalar-loop", "block"])
    @pytest.mark.parametrize("command, flag", [("simulate", "--model"),
                                               ("validate", "--params")])
    def test_overflow_exits_one_naming_the_segment(self, tmp_path, capsys, command, flag,
                                                   n_trips):
        self.assert_exits_one_naming_the_segment(tmp_path, capsys, command, flag, n_trips,
                                                 self.OVERFLOWING_IDM)

    @pytest.mark.parametrize("n_trips", [2, 32], ids=["scalar-loop", "block"])
    @pytest.mark.parametrize("command, flag", [("simulate", "--model"),
                                               ("validate", "--params")])
    def test_nan_exits_one_naming_the_segment(self, tmp_path, capsys, command, flag, n_trips):
        self.assert_exits_one_naming_the_segment(tmp_path, capsys, command, flag, n_trips,
                                                 self.NAN_BLEND)

    def assert_exits_one_naming_the_segment(self, tmp_path, capsys, command, flag, n_trips,
                                            model_dict):
        from cfcalib.fixtures import short_trip_segments
        from cfcalib.models import default_params
        from cfcalib.series import write_segments_json
        from cfcalib.sim import BATCH_MIN_SEGMENTS

        segments = short_trip_segments(default_params("idm"), n_trips=n_trips, trip_seconds=12)
        assert (len(segments) >= BATCH_MIN_SEGMENTS) == (n_trips == 32)
        seg_path, model, out = (tmp_path / name for name in
                                ("segments.json", "model.json", "out.json"))
        write_segments_json(segments, seg_path)
        model.write_text(json.dumps(model_dict))
        rc = main([command, flag, str(model), "--segments", str(seg_path), "--out", str(out)])
        lines = capsys.readouterr().err.strip().splitlines()
        assert rc == 1
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "domain"
        assert f"segment {segments[0].id}: " in err["message"]
        assert not out.exists()


class TestCalibrateCli:
    def make_recovery_segments(self, tmp_path):
        from cfcalib.fixtures import short_trip_segments
        from cfcalib.models import default_params
        from cfcalib.series import write_segments_json

        segments = short_trip_segments(default_params("idm"), n_trips=8, trip_seconds=12)
        path = tmp_path / "segments.json"
        write_segments_json(segments, path)
        return path

    def write_tiny_config(self, tmp_path):
        config = tmp_path / "ga.json"
        config.write_text(json.dumps({
            "population": 16, "max_generations": 12, "mutation_prob": 0.1,
            "crossover_prob": 0.5, "elitism_ratio": 0.1, "seeds": [0, 1],
            "stall_generations": 12,
        }))
        return config

    def test_calibrate_writes_result(self, tmp_path):
        segments = self.make_recovery_segments(tmp_path)
        config = self.write_tiny_config(tmp_path)
        out = tmp_path / "result.json"
        assert main(["calibrate", "--model", "idm", "--segments", str(segments),
                     "--config", str(config), "--split", "0.8", "--split-seed", "3",
                     "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["calibration"]["model_kind"] == "idm"
        assert len(data["calibration"]["per_seed"]) == 2
        assert data["config"]["population"] == 16
        manifest = json.loads((tmp_path / "result.json.manifest.json").read_text())
        assert manifest["seeds"] == [0, 1]

    def test_rerun_is_byte_identical(self, tmp_path):
        segments = self.make_recovery_segments(tmp_path)
        config = self.write_tiny_config(tmp_path)
        digests = []
        for attempt in ("a", "b"):
            out = tmp_path / f"result_{attempt}.json"
            assert main(["calibrate", "--model", "idm", "--segments", str(segments),
                         "--config", str(config), "--split", "0.8",
                         "--split-seed", "3", "--out", str(out)]) == 0
            digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
        assert digests[0] == digests[1]

    def test_threads_flag_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["calibrate", "--model", "idm", "--segments", "x", "--threads", "2",
                  "--out", str(tmp_path / "result.json")])
        assert exc.value.code == 2

    def test_calibration_report_rendering(self, tmp_path, capsys):
        segments = self.make_recovery_segments(tmp_path)
        config = self.write_tiny_config(tmp_path)
        out = tmp_path / "result.json"
        main(["calibrate", "--model", "idm", "--segments", str(segments),
              "--config", str(config), "--out", str(out)])
        assert main(["report", "--input", str(out)]) == 0
        text = capsys.readouterr().out
        assert "NRMSE" in text and "MAE" in text and "RMSE" in text
        assert "Calibration errors" in text and "Validation errors" in text

    @pytest.mark.parametrize("flag, value, named", [
        ("--seeds", "a,b", "a,b"),
        ("--seeds", "0,-1", "seeds"),
        ("--config", {"populaton": 8}, "populaton"),
        # an idm bounds box with a < 0: every initial individual faults
        ("--config", {"bounds": [[-2, -1], [1, 10], [1, 137], [0.5, 33], [0.1, 5],
                                 [0.33, 26]]}, "idm"),
        # idm has six genes
        ("--config", {"bounds": [[1, 2]]}, "expected 6, got 1"),
        ("--config", {"bounds": [[1, 2]] * 7}, "expected 6, got 7"),
    ])
    def test_bad_calibrate_input_exits_one(self, tmp_path, capsys, flag, value, named):
        segments = self.make_recovery_segments(tmp_path)
        if flag == "--config":
            config = tmp_path / "ga.json"
            config.write_text(json.dumps(value))
            value = str(config)
        rc = main(["calibrate", "--model", "idm", "--segments", str(segments),
                   flag, value, "--out", str(tmp_path / "result.json")])
        lines = capsys.readouterr().err.strip().splitlines()
        assert rc == 1
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "config"
        assert named in err["message"]

    def test_memory_error_exits_one(self, tmp_path, capsys, monkeypatch):
        from cfcalib import calib

        def ga_calibrate(*args):
            # what numpy raises for a population of 1e12, without allocating it
            raise MemoryError("Unable to allocate 43.7 TiB for an array with shape "
                              "(1000000000000, 6) and data type float64")

        monkeypatch.setattr(calib, "ga_calibrate", ga_calibrate)
        segments = self.make_recovery_segments(tmp_path)
        config = tmp_path / "ga.json"
        config.write_text(json.dumps({"population": 1000000000000}))
        out = tmp_path / "result.json"
        rc = main(["calibrate", "--model", "idm", "--segments", str(segments),
                   "--config", str(config), "--out", str(out)])
        lines = capsys.readouterr().err.strip().splitlines()
        assert rc == 1
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "memory"
        assert "43.7 TiB" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("text, named", [
        ('{"population": 1e400}', "population"),
        ('{"population": 10.5}', "population"),
        ('{"population": true}', "population"),
        ('{"stall_generations": "5"}', "stall_generations"),
        ('{"seeds": 5}', "seeds"),
        ('{"seeds": ["a"]}', "seeds"),
        ('{"seeds": [1.5]}', "seeds"),
        ('{"seeds": [false]}', "seeds"),
        ('{"seeds": [-1]}', "seeds"),
        ('{"bounds": [[0, "x"]]}', "bounds"),
        ('{"bounds": [1]}', "bounds"),
        ('{"bounds": [[0, 1e400]]}', "bounds"),
        ('{"bounds": [[0, 1, 2]]}', "bounds"),
        ('{"mutation_prob": "0.1"}', "mutation_prob"),
        ('{"crossover_prob": null}', "crossover_prob"),
    ])
    def test_mistyped_ga_config_exits_one(self, tmp_path, capsys, text, named):
        segments = self.make_recovery_segments(tmp_path)
        config = tmp_path / "ga.json"
        config.write_text(text)
        rc = main(["calibrate", "--model", "idm", "--segments", str(segments),
                   "--config", str(config), "--out", str(tmp_path / "result.json")])
        lines = capsys.readouterr().err.strip().splitlines()
        assert rc == 1
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "config"
        assert named in err["message"]


class TestJsonInputContract:
    COMMANDS = {
        "ingest": ["ingest", "--leader", "{leader}", "--follower", "{follower}"],
        "clean": ["clean", "--pair", "{pair}"],
        "stats": ["stats", "--segments", "{segments}"],
        "simulate": ["simulate", "--model", "{model}", "--segments", "{segments}",
                     "--limits", "{limits}"],
        "validate": ["validate", "--params", "{model}", "--segments", "{segments}"],
        "calibrate": ["calibrate", "--model", "idm", "--segments", "{segments}",
                      "--limits", "{limits}", "--config", "{config}"],
        "report": ["report", "--input", "{report}"],
    }

    def write_inputs(self, tmp_path) -> dict:
        from cfcalib.models import default_params, write_params

        segments = run_pipeline_to_segments(tmp_path, stop_at=45)
        inputs = {"leader": tmp_path / "leader.csv", "follower": tmp_path / "follower.csv",
                  "pair": tmp_path / "pair.json", "segments": segments,
                  "model": tmp_path / "model.json", "limits": tmp_path / "limits.json",
                  "config": tmp_path / "ga.json", "report": tmp_path / "stats.json"}
        write_params(default_params("idm"), inputs["model"])
        inputs["limits"].write_text(json.dumps({"a_min": -20.0}))
        inputs["config"].write_text(json.dumps(
            {"population": 4, "max_generations": 1, "seeds": [0]}))
        assert main(["stats", "--segments", str(segments), "--out", str(inputs["report"])]) == 0
        return inputs

    def assert_one_error(self, capsys, argv, named, code="domain"):
        capsys.readouterr()
        rc = main(argv)
        lines = capsys.readouterr().err.strip().splitlines()
        assert rc == 1
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == code
        assert named in err["message"]
        return err["message"]

    @pytest.mark.parametrize("command, target, text, named", [
        ("clean", "pair", "{not json", "not valid JSON"),
        ("clean", "pair", '{"t": [0, 1], "leader": {"pos": [9, 19], "speed": [10, 10], '
                          '"accel": [0, 0]}}', "{pair}: pair JSON lacks follower"),
        ("stats", "segments", "[1,2]", "JSON object"),
        ("stats", "segments", '{"segments": [{"id": "s", "t": [0, 1]}]}', "leader, follower"),
        ("stats", "segments", '{"segments": [{"id": "s", "t": 0, "leader": {"pos": 1, '
                              '"speed": 1, "accel": 1}, "follower": {"pos": 0, '
                              '"speed": 1, "accel": 1}}]}', "segment 0"),
        ("calibrate", "segments", "[1,2]", "JSON object"),
        ("simulate", "model", '{"model": "idm"}', "a, delta, v0, s0, T, b"),
        ("validate", "model", '{"model": "idm"}', "a, delta, v0, s0, T, b"),
        ("validate", "model", '{"model": []}', "unknown model kind"),
        ("validate", "model", '{"calibration": []}', "calibration"),
        ("simulate", "model", '{"model": "idm", "a": "x", "delta": 1, "v0": 20, "s0": 5, '
                              '"T": 1, "b": 2}', "a must be numbers"),
        ("simulate", "model", '{"model": "idm", "a": Infinity, "delta": 1, "v0": 20, "s0": 5, '
                              '"T": 1, "b": 2}', "non-finite number Infinity"),
        ("validate", "model", '{"model": "idm", "a": 2, "delta": 1, "v0": -Infinity, "s0": 5, '
                              '"T": 1, "b": 2}', "non-finite number -Infinity"),
        # json.loads reads 1e400 as infinity and keeps a 400-digit int exact
        ("simulate", "model", '{"model": "idm", "a": 2, "delta": 1, "v0": 1e400, "s0": 5, '
                              '"T": 1, "b": 2}', "v0 must be finite"),
        ("validate", "model", '{"model": "idm", "a": 2, "delta": 1, "v0": 20, "s0": 5, '
                              '"T": 1, "b": 1%s}' % ("0" * 400), "b must be finite"),
        # the improved-IDM variant is gone: only false, which old files carry, loads
        *[(command, "model", '{"model": "blend", "a": 1.2, "delta": 3, "v0": 18.7, "s0": 9.9, '
                             '"T": 3.0, "b": 24.8, "c": 0.96, "improved_idm": %s}' % value,
           "improved_idm")
          for command in ("simulate", "validate") for value in ("true", '"false"', "1")],
        # a blend file whose "model" names another kind does not load as that kind
        *[(command, "model", '{"model": "idm", "a": 1.2, "delta": 3, "v0": 18.7, "s0": 9.9, '
                             '"T": 3.0, "b": 24.8, "c": 0.96, "k1": 0.5}',
           "idm parameters: unknown keys c, k1")
          for command in ("simulate", "validate")],
        ("simulate", "limits", '{"v_max": 1e400}', "v_max must be finite"),
        ("simulate", "limits", "[]", "JSON object"),
        ("simulate", "limits", '{"a_min": "x"}', "a_min must be numbers"),
        ("calibrate", "limits", "[]", "JSON object"),
        ("calibrate", "config", "[]", "JSON object"),
        ("report", "report", '{"descriptive": 1}', "n_samples"),
        ("report", "report", '{"descriptive": 1, "n_samples": 1, "n_segments": 1, '
                             '"annotations": {"accel_comfort_threshold": 1}}', "JSON object"),
        ("report", "report", '{"calibration": [], "gof_calibration": {}}', "JSON object"),
        ("report", "report", '{"calibration": {"model_kind": "idm"}, "gof_calibration": {}}',
         "best_params"),
        # each printed "no data" and exited 0
        ("report", "report", '{"descriptive": {}}', "stats report lacks n_samples"),
        ("report", "report", '{"descriptive": null}', "stats report lacks n_samples"),
        ("report", "report", '{"calibration": {"model_kind": "idm", "best_params": {}, '
                             '"fitness": 0.5, "generations_run": 1, "per_seed": []}, '
                             '"gof_validation": {}}', "lacks gof_calibration"),
    ])
    def test_malformed_json_input_exits_one(self, tmp_path, capsys, command, target,
                                             text, named):
        inputs = self.write_inputs(tmp_path)
        inputs[target].write_text(text)
        argv = [arg.format(**inputs) for arg in self.COMMANDS[command]]
        self.assert_one_error(capsys, argv + ["--out", str(tmp_path / "out.json")],
                              named.format(**inputs))

    @pytest.mark.parametrize("layout, path, value, named", [
        ("stats", ["descriptive", "speed", "mean"], "x", "mean must be numbers"),
        ("stats", ["descriptive", "jerk"], [], "descriptive jerk must be a JSON object"),
        ("stats", ["normality", "accel", "W"], "x", "W must be numbers"),
        ("stats", ["spearman", "matrix", 0], [1.0], "square"),
        ("stats", ["spearman", "matrix", 1, 0], "x", "spearman accel: 0 must be numbers"),
        ("stats", ["variability", "jerk", "follower_outlier_share"], {}, "must be numbers"),
        ("stats", ["variability", "accel"], None, "variability accel must be a JSON object"),
        ("stats", ["jerk_comfort", "shares"], 0.5, "shares must be a list"),
        ("stats", ["jerk_comfort", "thresholds", 2], None, "thresholds: 2 must be numbers"),
        ("calibration", ["calibration", "fitness"], "x", "fitness must be numbers"),
        ("calibration", ["calibration", "per_seed", 0], 3, "per_seed 0 must be a JSON object"),
        ("calibration", ["gof_validation", "rmse_speed"], None, "rmse_speed must be numbers"),
        ("calibration", ["gof_validation"], None, "gof_validation must be a JSON object"),
    ])
    def test_malformed_report_layout_exits_one(self, tmp_path, capsys, layout, path,
                                               value, named):
        """A real stats or calibrate output with one field broken."""
        inputs = self.write_inputs(tmp_path)
        if layout == "calibration":
            argv = [arg.format(**inputs) for arg in self.COMMANDS["calibrate"]]
            inputs["report"] = tmp_path / "result.json"
            assert main(argv + ["--out", str(inputs["report"])]) == 0
        data = json.loads(inputs["report"].read_text())
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        inputs["report"].write_text(json.dumps(data))
        self.assert_one_error(capsys, ["report", "--input", str(inputs["report"])], named)

    # the leaves the tables print as numbers, a "*" standing for any one key
    # or index; the rest are printed as text (a variable name, the model
    # kind, the best parameters) or not at all (config, split, dt)
    PRINTED_NUMBERS = {
        "stats": [("n_samples",), ("n_segments",), ("annotations", "accel_comfort_threshold"),
                  ("descriptive", "*", "*"), ("normality", "*", "W"), ("normality", "*", "p"),
                  ("spearman", "matrix", "*", "*"), ("variability", "*", "*"),
                  ("variability", "*", "*", "*"), ("jerk_comfort", "*", "*")],
        "calibration": [("calibration", "fitness"), ("calibration", "generations_run"),
                        ("calibration", "per_seed", "*", "seed"),
                        ("calibration", "per_seed", "*", "fitness"),
                        ("gof_calibration", "*"), ("gof_validation", "*")],
    }

    @pytest.mark.parametrize("layout", ["stats", "calibration"])
    def test_every_printed_number_is_checked(self, tmp_path, capsys, layout):
        """A real stats or calibrate output with one leaf set to a string, or deleted.

        Every run exits 0, or 1 with one `domain` line. A leaf the tables
        print as a number exits 1 either way, and the message names its key:
        for a list entry, the list's key, or a spearman row's variable.
        """
        inputs = self.write_inputs(tmp_path)
        if layout == "calibration":
            argv = [arg.format(**inputs) for arg in self.COMMANDS["calibrate"]]
            inputs["report"] = tmp_path / "result.json"
            assert main(argv + ["--out", str(inputs["report"])]) == 0
        text = inputs["report"].read_text()
        base = json.loads(text)

        def leaves(value, path=()):
            if isinstance(value, (dict, list)) and value:
                for key, entry in (value.items() if isinstance(value, dict)
                                   else enumerate(value)):
                    yield from leaves(entry, path + (key,))
            else:
                yield path

        def number_pattern(path):
            """The pattern of PRINTED_NUMBERS that path matches, or None."""
            return next((pattern for pattern in self.PRINTED_NUMBERS[layout]
                         if len(pattern) == len(path)
                         and all(want in ("*", key) for want, key in zip(pattern, path))), None)

        broken = tmp_path / "broken.json"
        matched = set()
        for path in leaves(base):
            pattern = number_pattern(path)
            matched.add(pattern)
            names = [next(key for key in reversed(path) if isinstance(key, str))]
            if path[:2] == ("spearman", "matrix"):
                names.append(base["spearman"]["variables"][path[2]])
            for damage in ("string", "delete"):
                data = json.loads(text)
                parent = functools.reduce(operator.getitem, path[:-1], data)
                if damage == "string":
                    parent[path[-1]] = "x"
                else:
                    del parent[path[-1]]
                broken.write_text(json.dumps(data))
                capsys.readouterr()
                rc = main(["report", "--input", str(broken)])
                captured = capsys.readouterr()
                if rc == 0:
                    assert pattern is None, (path, damage)
                    assert captured.err == ""
                    continue
                assert rc == 1, (path, damage)
                lines = captured.err.strip().splitlines()
                assert len(lines) == 1, (path, damage, captured.err)
                err = json.loads(lines[0])
                assert err["error"] == "domain", (path, damage, err)
                if pattern is not None:
                    assert any(name in err["message"] for name in names), (path, damage, err)
        # every pattern matched some leaf of the real output
        assert matched >= set(self.PRINTED_NUMBERS[layout])

    @pytest.mark.parametrize("command", ["stats", "simulate"])
    def test_nan_speed_in_segments_exits_one(self, tmp_path, capsys, command):
        inputs = self.write_inputs(tmp_path)
        data = json.loads(inputs["segments"].read_text())
        data["segments"][0]["follower"]["speed"][3] = float("nan")
        inputs["segments"].write_text(json.dumps(data))  # writes the NaN token
        argv = [arg.format(**inputs) for arg in self.COMMANDS[command]]
        message = self.assert_one_error(
            capsys, argv + ["--out", str(tmp_path / "out.json")], f"{inputs['segments']}: ")
        assert "non-finite number NaN" in message
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("command, target, path, named", [
        ("validate", "segments", ["segments", 0, "follower", "speed", 3], "segment"),
        ("stats", "segments", ["segments", 1, "leader", "pos", 0], "segment"),
        ("validate", "segments", ["segments", 0, "t", 0], "segment"),
        ("clean", "pair", ["leader", "speed", 2], "{pair}: pair JSON leader speed: "),
        ("clean", "pair", ["t", 0], "{pair}: pair JSON t: "),
    ])
    @pytest.mark.parametrize("literal", ["1e400", "-1" + "0" * 400], ids=["1e400", "-1e400-int"])
    def test_out_of_range_number_exits_one(self, tmp_path, capsys, command, target, path,
                                           named, literal):
        """A number literal beyond the float range in a segments or pair file."""
        inputs = self.write_inputs(tmp_path)
        data = json.loads(inputs[target].read_text())
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = "@"
        inputs[target].write_text(json.dumps(data).replace('"@"', literal))
        argv = [arg.format(**inputs) for arg in self.COMMANDS[command]]
        message = self.assert_one_error(
            capsys, argv + ["--out", str(tmp_path / "out.json")], named.format(**inputs))
        assert "finite" in message or "too large" in message
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("command, target, path, named", [
        ("clean", "pair", [], "{pair}: pair JSON: "),
        ("stats", "segments", ["segments", 0], "segment seg-0000"),
        ("stats", "segments", ["segments", 1], "segment seg-0001"),
        ("simulate", "segments", ["segments", 0], "segment seg-0000"),
        ("validate", "segments", ["segments", 1], "segment seg-0001"),
        ("calibrate", "segments", ["segments", 0], "segment seg-0000"),
    ], ids=["clean", "stats-seg0", "stats-seg1", "simulate-seg0", "validate-seg1",
            "calibrate-seg0"])
    @pytest.mark.parametrize("damage", ["swap", "repeat"])
    def test_times_not_increasing_exit_one(self, tmp_path, capsys, command, target, path,
                                           named, damage):
        """Two adjacent samples out of order, or one time given twice."""
        inputs = self.write_inputs(tmp_path)
        data = json.loads(inputs[target].read_text())
        t = data
        for key in path:
            t = t[key]
        t = t["t"]
        t[4], t[5] = (t[5], t[4]) if damage == "swap" else (t[4], t[4])
        inputs[target].write_text(json.dumps(data))
        argv = [arg.format(**inputs) for arg in self.COMMANDS[command]]
        message = self.assert_one_error(capsys, argv + ["--out", str(tmp_path / "out.json")],
                                        named.format(**inputs), code="ordering")
        assert "times must strictly increase" in message
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("command, target, path, named", [
        ("clean", "pair", ["follower", "speed"], "{pair}: pair JSON follower speed: "),
        ("validate", "segments", ["segments", 1, "leader", "accel"], "segment 1 leader accel: "),
    ], ids=["pair", "segments"])
    @pytest.mark.parametrize("literal", ['"12.5"', "true"], ids=["string", "bool"])
    @pytest.mark.parametrize("where", ["first", "middle"])
    def test_string_or_bool_in_a_column_exits_one(self, tmp_path, capsys, command, target,
                                                  path, named, literal, where):
        """numpy reads "12.5" and true as numbers; the JSON readers must not."""
        inputs = self.write_inputs(tmp_path)
        data = json.loads(inputs[target].read_text())
        column = functools.reduce(operator.getitem, path, data)
        column[0 if where == "first" else len(column) // 2] = "@"
        inputs[target].write_text(json.dumps(data).replace('"@"', literal))
        argv = [arg.format(**inputs) for arg in self.COMMANDS[command]]
        message = self.assert_one_error(
            capsys, argv + ["--out", str(tmp_path / "out.json")], named.format(**inputs))
        assert message.endswith("values must be numbers, not "
                                + ("str" if literal.startswith('"') else "bool"))
        assert not (tmp_path / "out.json").exists()

    def test_old_spacing_column_reads_the_same(self, tmp_path):
        """A segments file that still has each entry's `spacing` gives the same outputs."""
        inputs = self.write_inputs(tmp_path)
        data = json.loads(inputs["segments"].read_text())
        for entry in data["segments"]:
            entry["spacing"] = (np.array(entry["leader"]["pos"])
                                - np.array(entry["follower"]["pos"])).tolist()
        old = tmp_path / "old-segments.json"
        old.write_text(json.dumps(data))
        for command in ("stats", "simulate", "validate", "calibrate"):
            outputs = []
            for segments in (inputs["segments"], old):
                argv = [arg.format(**{**inputs, "segments": segments})
                        for arg in self.COMMANDS[command]]
                outputs.append(tmp_path / f"{command}-{segments.stem}.json")
                assert main(argv + ["--out", str(outputs[-1])]) == 0, command
            assert outputs[0].read_bytes() == outputs[1].read_bytes(), command

    @pytest.mark.parametrize("command", ["simulate", "validate", "calibrate"])
    @pytest.mark.parametrize("dt", ["nan", "inf", "-inf", "0"])
    def test_dt_not_finite_and_positive_exits_one(self, tmp_path, capsys, command, dt):
        inputs = self.write_inputs(tmp_path)
        argv = [arg.format(**inputs) for arg in self.COMMANDS[command]]
        out = tmp_path / "out.json"
        message = self.assert_one_error(capsys, argv + [f"--dt={dt}", "--out", str(out)],
                                        "dt must be a finite number > 0", code="config")
        assert message == f"dt must be a finite number > 0, got {float(dt)}"
        assert not out.exists()

    def test_validate_without_segments_exits_one(self, tmp_path, capsys):
        inputs = self.write_inputs(tmp_path)
        inputs["segments"].write_text('{"segments": []}')
        argv = [arg.format(**inputs) for arg in self.COMMANDS["validate"]]
        capsys.readouterr()
        rc = main(argv + ["--out", str(tmp_path / "out.json")])
        lines = capsys.readouterr().err.strip().splitlines()
        assert rc == 1
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "config"
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("command, target, value, flags, expected", [
        # numpy's generator raised ValueError for a negative seed
        ("calibrate", None, None, ["--split-seed", "-1"],
         {"error": "split", "message": "split seed must be a non-negative integer, got -1"}),
        # an integer delta beyond int64 made numpy's isfinite raise TypeError;
        # it runs as the double it equals, as "delta": 1e30 does
        ("simulate", "model", {"model": "idm", "a": 2.7, "delta": 10 ** 30, "v0": 20, "s0": 9,
                               "T": 2.7, "b": 24}, [], None),
        # genes_to_params rounded such a delta to a 301-digit int, with the same TypeError
        ("calibrate", "config", {"population": 4, "max_generations": 1, "seeds": [0],
                                 "bounds": {1: [1e300, 1e301]}}, [], None),
        # an upper bound beyond int64 made an object array: rng.uniform raised TypeError
        ("calibrate", "config", {"population": 4, "max_generations": 1, "seeds": [0],
                                 "bounds": {0: [0.33, 10 ** 20]}}, [], None),
        # finite bounds whose width overflows: rng.uniform raised OverflowError
        ("calibrate", "config", {"population": 4, "max_generations": 1, "seeds": [0],
                                 "bounds": {0: [-1e308, 1e308]}}, [],
         {"error": "config",
          "message": "gene bounds [-1e+308, 1e+308] are wider than the float range"}),
        # a log byte that is not UTF-8 raised UnicodeDecodeError
        ("ingest", "leader", b"t,lat,lon\n0,28.1,-81.2\n1,28.1\xff,-81.2\n2,28.1,-81.2\n", [],
         {"error": "domain", "message": "{leader}:3: not UTF-8 text: b'1,28.1\\xff,-81.2'"}),
        # csv raised _csv.Error for a cell over its field limit; np.loadtxt
        # would read this one as a number, and must not
        ("ingest", "follower", b"t,lat,lon\n0,28.1,-81.2\n1,28.1" + b"0" * 131_072
         + b",-81.2\n2,28.1,-81.2\n", [],
         {"error": "domain", "message": "{follower}:3: field larger than field limit (131072)"}),
        # an empty path given to a required flag names no file ("" for value)
        *[(command, target, "", [], {"error": "domain", "message": "input file not found: ."})
          for command, target in [("ingest", "leader"), ("ingest", "follower"), ("clean", "pair"),
                                  ("stats", "segments"), ("simulate", "model"),
                                  ("simulate", "segments"), ("validate", "model"),
                                  ("validate", "segments"), ("calibrate", "segments"),
                                  ("report", "report")]],
        # an empty optional --limits or --config is as if it were not given
        ("simulate", "limits", "", [], None),
        ("calibrate", "config", "", [], None),
        # a segment id holding NUL made open() raise ValueError for its figure,
        # after the output and its manifest had been written
        ("simulate", "segments", {"segments": [{"id": "a\u0000b", **PLAIN_SEGMENT}]},
         ["--svg-dir", "{figures}"],
         {"error": "domain",
          "message": "figure 'a\\x00b_spacing.svg' is not one file name in --svg-dir {figures}"}),
    ], ids=["negative-split-seed", "int-delta-beyond-int64", "delta-bounds-beyond-int64",
            "upper-bound-beyond-int64", "bounds-width-overflows", "log-byte-not-utf8",
            "log-cell-over-csv-limit", "empty-leader", "empty-follower", "empty-pair",
            "empty-stats-segments", "empty-model", "empty-simulate-segments", "empty-params",
            "empty-validate-segments", "empty-calibrate-segments", "empty-report-input",
            "empty-limits", "empty-config", "nul-in-segment-id"])
    def test_former_tracebacks_keep_the_contract(self, tmp_path, capsys, command, target,
                                                 value, flags, expected):
        """Exit 0, or exit 1 with the one JSON line expected; never a traceback."""
        from cfcalib.models import GENE_BOUNDS

        inputs = self.write_inputs(tmp_path)
        inputs["figures"] = tmp_path / "figures"
        if target == "config" and value:
            bounds = [[lo, hi] for _, lo, hi, _ in GENE_BOUNDS["idm"]]
            for gene, pair in value["bounds"].items():
                bounds[gene] = pair
            value = {**value, "bounds": bounds}
        if value == "":
            inputs[target] = ""
        elif isinstance(value, bytes):
            inputs[target].write_bytes(value)
        elif target is not None:
            inputs[target].write_text(json.dumps(value))
        if expected is not None:
            expected = {**expected, "message": expected["message"].format(**inputs)}
        argv = [arg.format(**inputs) for arg in self.COMMANDS[command] + flags]
        out = tmp_path / "out.json"
        capsys.readouterr()
        rc = main(argv + ["--out", str(out)])
        assert assert_exit_contract(rc, capsys.readouterr(), out) == expected

    @pytest.mark.parametrize("command, target, way", [
        ("ingest", "leader", "out"),
        ("ingest", "follower", "manifest"),
        ("clean", "pair", "out"),
        ("clean", "pair", "out-sidecar"),
        ("stats", "segments", "out"),
        ("stats", "segments", "sidecar"),
        ("stats", "segments", "figures"),
        ("stats", "segments", "histogram"),
        ("simulate", "segments", "out"),
        ("simulate", "model", "symlink"),
        ("simulate", "limits", "figures"),
        ("validate", "model", "out"),
        ("validate", "segments", "sidecar"),
        ("calibrate", "config", "out"),
        ("calibrate", "segments", "manifest"),
        ("report", "report", "out"),
    ])
    def test_an_output_that_names_an_input_exits_one(self, tmp_path, capsys, command, target,
                                                     way):
        """--out, its manifest, clean's sidecar, the figures' manifest or a stats histogram
        resolving to an input or an input's sidecar: exit 1 with one domain line naming both,
        nothing written."""
        inputs = self.write_inputs(tmp_path)
        flags, out = [], tmp_path / "out.json"
        if way in ("manifest", "out-sidecar", "figures", "histogram"):
            # the input moves to the path that output would take
            moved = {"manifest": tmp_path / "named.json.manifest.json",
                     "out-sidecar": tmp_path / "named.json.columns",
                     "figures": tmp_path / "figures" / "figures.manifest.json",
                     "histogram": tmp_path / "figures" / "hist_jerk.svg"}[way]
            moved.parent.mkdir(exist_ok=True)
            moved.write_bytes(inputs[target].read_bytes())
            inputs[target] = moved
            if way in ("figures", "histogram"):
                flags, written = ["--svg-dir", str(moved.parent)], moved
            else:
                out, written = tmp_path / "named.json", moved
            replaced = f"input {moved}"
        elif way == "sidecar":
            out = written = Path(f"{inputs[target]}.columns")
            replaced = f"{out}, the sidecar of input {inputs[target]}"
        else:
            out = written = inputs[target]
            if way == "symlink":
                out = written = tmp_path / "link.json"
                out.symlink_to(inputs[target])
            replaced = f"input {inputs[target]}"
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        argv = [arg.format(**inputs) for arg in self.COMMANDS[command]]
        capsys.readouterr()
        rc = main(argv + flags + ["--out", str(out)])
        lines = capsys.readouterr().err.strip().splitlines()
        assert rc == 1 and len(lines) == 1
        assert json.loads(lines[0]) == {"error": "domain",
                                        "message": f"output {written} would replace {replaced}"}
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before

    @pytest.mark.parametrize("command, flags", [
        ("stats", ["--svg-dir", "{figures}"]),
        ("simulate", ["--svg-dir", "{figures}"]),
        ("validate", ["--limits", "{limits}"]),
        ("calibrate", []),
    ])
    @pytest.mark.parametrize("sidecar", [True, False], ids=["columns", "json"])
    def test_each_input_is_hashed_once_as_read(self, tmp_path, monkeypatch, command, flags,
                                               sidecar):
        """file_sha256, counted wherever it is referenced, hashes each input once, and both
        manifests record the digests of the bytes read: the segments file's equals its
        sidecar header's json_sha256, whichever path the reader took."""
        import sys
        from cfcalib import jsonio

        inputs = self.write_inputs(tmp_path)
        inputs["figures"] = tmp_path / "figures"
        segments = inputs["segments"]
        columns = Path(f"{segments}.columns")
        header = json.loads(columns.read_bytes().partition(b"\n")[0])
        if not sidecar:
            columns.unlink()
        argv = [arg.format(**inputs) for arg in self.COMMANDS[command] + flags]
        given = [p for p in inputs.values() if isinstance(p, Path) and p.is_file()
                 and str(p) in argv]
        before = {str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in given}
        hashed, file_sha256 = [], jsonio.file_sha256
        for name, module in list(sys.modules.items()):
            if name.startswith("cfcalib") and getattr(module, "file_sha256", None) is file_sha256:
                monkeypatch.setattr(module, "file_sha256",
                                    lambda path: hashed.append(str(path)) or file_sha256(path))
        out = tmp_path / "out.json"
        assert main(argv + ["--out", str(out)]) == 0
        assert sorted(hashed) == sorted(before)
        manifests = [Path(f"{out}.manifest.json")]
        if "--svg-dir" in flags:
            manifests.append(inputs["figures"] / "figures.manifest.json")
        for path in manifests:
            manifest = json.loads(path.read_text())
            assert manifest["segments_read_from"] == ("columns" if sidecar else "json")
            assert manifest["inputs"] == before
            assert manifest["inputs"][str(segments)] == header["json_sha256"]

    @pytest.mark.parametrize("command, flags", [
        ("ingest", []),
        ("clean", []),
        ("stats", ["--svg-dir", "{figures}"]),
        ("simulate", ["--svg-dir", "{figures}"]),
        ("validate", ["--limits", "{limits}"]),
        ("calibrate", []),
        ("report", []),
    ])
    def test_every_input_is_hashed_before_any_is_parsed(self, tmp_path, monkeypatch, command,
                                                        flags):
        """Each file_sha256 call on an input comes before the first parse of any input: a
        JSON object read, a segments sidecar read or a GPS log read."""
        import sys
        from cfcalib import ingest, jsonio, series

        inputs = {**self.write_inputs(tmp_path), "figures": tmp_path / "figures"}
        argv = [arg.format(**inputs) for arg in self.COMMANDS[command] + flags]
        given = {str(p) for p in inputs.values() if p.is_file() and str(p) in argv}
        events = []

        def logged(kind, fn):
            return lambda path, *rest: events.append((kind, str(path))) or fn(path, *rest)

        originals = {"file_sha256": ("hash", jsonio.file_sha256),
                     "read_json_object": ("parse", jsonio.read_json_object)}
        for name, module in list(sys.modules.items()):
            for attr, (kind, fn) in originals.items():
                if name.startswith("cfcalib") and getattr(module, attr, None) is fn:
                    monkeypatch.setattr(module, attr, logged(kind, fn))
        monkeypatch.setattr(series, "_read_columns", logged("parse", series._read_columns))
        monkeypatch.setattr(ingest, "_read_gps_rows", logged("parse", ingest._read_gps_rows))
        assert main(argv + ["--out", str(tmp_path / "out.json")]) == 0
        # clean hashes its own output for the sidecar header, after it has written it
        kinds = [kind for kind, path in events if kind == "parse" or path in given]
        assert kinds == ["hash"] * len(given) + ["parse"] * kinds.count("parse"), events

    @pytest.mark.parametrize("command, flags", [
        ("simulate", []),
        ("validate", ["--limits", "{limits}"]),
        ("calibrate", []),
    ])
    def test_a_limits_file_with_an_unknown_key_exits_one(self, tmp_path, capsys, command,
                                                         flags):
        """A mistyped limit is refused, as a model file's or a GA config's stray key is,
        not run with the default it meant to replace."""
        inputs = self.write_inputs(tmp_path)
        inputs["limits"].write_text(json.dumps({"a_mx": 2.0, "v_max": 15}))
        argv = [arg.format(**inputs) for arg in self.COMMANDS[command] + flags]
        out = tmp_path / "out.json"
        capsys.readouterr()
        rc = main(argv + ["--out", str(out)])
        assert assert_exit_contract(rc, capsys.readouterr(), out) == {
            "error": "domain", "message": "limits: unknown keys a_mx"}

    @pytest.mark.parametrize("case", ["escapes", "subdirectory", "nul", "repeated", "input"])
    def test_a_figure_name_that_is_not_one_new_file_exits_one(self, tmp_path, capsys, case):
        """simulate --svg-dir names each figure after its segment id. A name that leaves the
        directory, makes a subdirectory, holds NUL, repeats another or resolves to an input
        exits 1 with one domain line naming the id, and nothing is written."""
        inputs = self.write_inputs(tmp_path)
        figures = tmp_path / "out" / "figs"
        data = json.loads(inputs["segments"].read_text())
        first = {"escapes": "../../escaped", "subdirectory": "x/y", "nul": "a\u0000b",
                 "repeated": data["segments"][1]["id"], "input": "m"}[case]
        data["segments"][0]["id"] = first
        inputs["segments"].write_text(json.dumps(data))
        if case == "input":
            figures.mkdir(parents=True)
            inputs["model"] = inputs["model"].rename(figures / "m_speed.svg")
        tree = {p: p.read_bytes() if p.is_file() else None for p in tmp_path.rglob("*")}
        argv = [arg.format(**inputs) for arg in self.COMMANDS["simulate"]]
        capsys.readouterr()
        rc = main(argv + ["--svg-dir", str(figures), "--out", str(tmp_path / "out" / "sim.json")])
        lines = capsys.readouterr().err.strip().splitlines()
        assert rc == 1 and len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "domain" and repr(first)[1:-1] in err["message"]
        if case == "input":
            assert err["message"] == (f"output {figures / 'm_speed.svg'} would replace "
                                      f"input {inputs['model']}")
        assert {p: p.read_bytes() if p.is_file() else None
                for p in tmp_path.rglob("*")} == tree

    def test_locale_changes_no_byte(self, tmp_path):
        """A UTF-8 segment id is read and drawn alike under a C locale, whose encoding is ASCII."""
        inputs = self.write_inputs(tmp_path)
        data = json.loads(inputs["segments"].read_text(encoding="utf-8"))
        data["segments"][0]["id"] = "Ström-1"
        segments = tmp_path / "segments-utf8.json"
        segments.write_text(json.dumps(data, ensure_ascii=False), encoding="utf-8")
        outputs = {}
        for locale, env in (("default", {}), ("C", {"PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
                                                    "LC_ALL": "C"})):
            out_dir = tmp_path / locale
            argv = ["simulate", "--model", str(inputs["model"]), "--segments", str(segments),
                    "--out", str(out_dir / "sim.json"), "--svg-dir", str(out_dir / "figures")]
            done = subprocess.run(
                [sys.executable, "-m", "cfcalib.cli", *argv], capture_output=True, timeout=120,
                env={**os.environ, **env, "PYTHONPATH": os.pathsep.join(
                    filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))})
            assert done.returncode == 0, done.stderr
            # manifests hold the wall clock and the output paths
            outputs[locale] = {path.relative_to(out_dir): path.read_bytes()
                               for path in out_dir.rglob("*")
                               if path.is_file() and not path.name.endswith(".manifest.json")}
        assert Path("figures", "Ström-1_spacing.svg") in outputs["C"]
        assert outputs["C"] == outputs["default"]

    def test_valid_inputs_pass(self, tmp_path):
        inputs = self.write_inputs(tmp_path)
        for command, template in self.COMMANDS.items():
            argv = [arg.format(**inputs) for arg in template]
            assert main(argv + ["--out", str(tmp_path / f"{command}.json")]) == 0, command


# ---------------------------------------------------------------------------
# `clean --pair` over mutated valid pair files

PAIR_COLUMNS = [("t",)] + [(side, key) for side in ("leader", "follower")
                           for key in ("pos", "speed", "accel")]
PAIR_KEYS = [("t",), ("leader",), ("follower",), ("leader_start_offset_ft",)] + \
    PAIR_COLUMNS[1:]
# JSON text put in place of a value: a string, null, a list, a bool, a literal
# beyond the float range, an integer beyond a double, the NaN token, and
# finite values beyond ±2^53, whose differences would overflow
ODD_VALUES = ['"x"', "null", "[1.0, 2.0]", "true", "1e400", "1" + "0" * 400, "NaN",
              "1.7e308", "-1.7e308"]


@st.composite
def pair_mutations(draw):
    """One to three damages to a pair file, as (kind, path, argument)."""
    n = 90  # samples in the base pair
    mutation = st.one_of(
        st.tuples(st.just("drop"), st.sampled_from(PAIR_KEYS), st.none()),
        st.tuples(st.just("set"), st.sampled_from(PAIR_KEYS), st.sampled_from(ODD_VALUES)),
        st.tuples(st.just("set"), st.tuples(st.sampled_from(PAIR_COLUMNS), st.integers(0, n - 1))
                  .map(lambda c: c[0] + (c[1],)), st.sampled_from(ODD_VALUES)),
        st.tuples(st.just("ragged"), st.sampled_from(PAIR_COLUMNS), st.none()),
        st.tuples(st.just("swap"), st.just(("t",)),
                  st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))),
    )
    return draw(st.lists(mutation, min_size=1, max_size=3))


def mutated_text(base: dict, mutations) -> str:
    """The JSON text of `base` with each mutation that still finds its target applied.

    A "spacing" mutation gives the segment at its path a `spacing` key, the
    column earlier versions wrote (arg "column") or an odd value.
    """
    data = json.loads(json.dumps(base))
    odd = []
    for kind, path, arg in mutations:
        if kind == "spacing":
            try:
                entry = functools.reduce(operator.getitem, path, data)
                spacing = (np.array(entry["leader"]["pos"])
                           - np.array(entry["follower"]["pos"])).tolist()
            except (KeyError, IndexError, TypeError, ValueError):
                continue  # no longer a segment with two position columns
            entry["spacing"] = spacing if arg == "column" else f"@{len(odd)}@"
            odd += [] if arg == "column" else [arg]
            continue
        try:
            parent = functools.reduce(operator.getitem, path[:-1], data)
            value = parent[path[-1]]
        except (KeyError, IndexError, TypeError):
            continue  # an earlier mutation removed or replaced it
        if not isinstance(parent, (dict, list)):
            continue  # a string indexes, but does not take an item
        if kind == "drop":
            del parent[path[-1]]
        elif kind == "set":
            parent[path[-1]] = f"@{len(odd)}@"
            odd.append(arg)
        elif kind == "ragged" and isinstance(value, list):
            parent[path[-1]] = value[:-1]
        elif kind == "swap" and isinstance(value, list) and max(arg) < len(value):
            i, j = arg
            value[i], value[j] = value[j], value[i]
    text = json.dumps(data)
    for i, value in enumerate(odd):
        text = text.replace(f'"@{i}@"', value)
    return text


@pytest.fixture(scope="module")
def base_pair(tmp_path_factory):
    directory = tmp_path_factory.mktemp("pair-fuzz")
    leader, follower = write_logs(directory, stop_at=45)
    pair = directory / "pair.json"
    assert main(["ingest", "--leader", str(leader), "--follower", str(follower),
                 "--out", str(pair)]) == 0
    return directory, json.loads(pair.read_text())


class TestPairFileFuzz:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(mutations=pair_mutations())
    # finite positions whose spacing overflows the float range
    @example(mutations=[("set", ("leader", "pos", 3), "1.7e308"),
                        ("set", ("follower", "pos", 3), "-1.7e308")])
    def test_clean_exits_zero_or_one_json_line(self, base_pair, capsys, mutations):
        """Exit 0, or exit 1 with one JSON line on stderr; never a NaN or Infinity token."""
        directory, base = base_pair
        pair, out = directory / "mutated.json", directory / "segments.json"
        for path in (out, Path(f"{out}.manifest.json")):
            path.unlink(missing_ok=True)
        pair.write_text(mutated_text(base, mutations))
        capsys.readouterr()
        rc = main(["clean", "--pair", str(pair), "--out", str(out)])
        captured = capsys.readouterr()
        assert captured.out == ""
        if rc == 0:
            assert captured.err == ""
            for path in (out, Path(f"{out}.manifest.json")):
                text = path.read_text()
                assert "NaN" not in text and "Infinity" not in text
        else:
            assert rc == 1
            lines = captured.err.strip().splitlines()
            assert len(lines) == 1, captured.err
            err = json.loads(lines[0])
            assert set(err) == {"error", "message"}
            assert not out.exists()


# ---------------------------------------------------------------------------
# `stats`, `simulate`, `validate` and `calibrate` over mutated segments files

SEGMENT_KEYS = [("id",), ("t",), ("leader",), ("follower",)] + PAIR_COLUMNS[1:]
SEGMENT_COMMANDS = {
    "stats": ["stats"],
    "simulate": ["simulate", "--model", "{model}"],
    "validate": ["validate", "--params", "{model}"],
    "calibrate": ["calibrate", "--model", "idm", "--config", "{config}"],
}


@st.composite
def segments_mutations(draw):
    """One to three damages to a two-segment file, as (kind, path, argument)."""
    n = 30  # fewer samples than either segment of the base file holds
    entry = st.integers(0, 1).map(lambda i: ("segments", i))
    key = st.one_of(st.just(("segments",)),
                    st.tuples(entry, st.sampled_from(SEGMENT_KEYS)).map(lambda c: c[0] + c[1]))
    column = st.tuples(entry, st.sampled_from(PAIR_COLUMNS)).map(lambda c: c[0] + c[1])
    mutation = st.one_of(
        st.tuples(st.just("drop"), key, st.none()),
        st.tuples(st.just("set"), key, st.sampled_from(ODD_VALUES)),
        st.tuples(st.just("set"), st.tuples(column, st.integers(0, n - 1))
                  .map(lambda c: c[0] + (c[1],)), st.sampled_from(ODD_VALUES)),
        st.tuples(st.just("ragged"), column, st.none()),
        st.tuples(st.just("swap"), entry.map(lambda e: e + ("t",)),
                  st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))),
        st.tuples(st.just("spacing"), entry, st.sampled_from(["column"] + ODD_VALUES)),
    )
    return draw(st.lists(mutation, min_size=1, max_size=3))


@pytest.fixture(scope="module")
def base_segments(tmp_path_factory):
    from cfcalib.models import default_params, write_params

    directory = tmp_path_factory.mktemp("segments-fuzz")
    segments = run_pipeline_to_segments(directory, stop_at=45)
    write_params(default_params("idm"), directory / "model.json")
    (directory / "ga.json").write_text(json.dumps(
        {"population": 4, "max_generations": 1, "seeds": [0]}))
    base = json.loads(segments.read_text())
    assert len(base["segments"]) == 2 and min(len(e["t"]) for e in base["segments"]) > 30
    return directory, base


class TestSegmentsFileFuzz:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(mutations=segments_mutations())
    # the column earlier versions wrote, and a string and a bool in a column
    @example(mutations=[("spacing", ("segments", 0), "column"),
                        ("spacing", ("segments", 1), "column")])
    @example(mutations=[("set", ("segments", 0, "follower", "speed", 3), '"x"'),
                        ("set", ("segments", 1, "leader", "accel", 0), "true")])
    # an id read as infinity, and a start whose simulated spacing is near 1.7e308,
    # whose fit report overflowed into Infinity
    @example(mutations=[("set", ("segments", 0, "id"), "1e400")])
    @example(mutations=[("set", ("segments", 0, "follower", "pos", 0), "-1.7e308")])
    # FAR_SEGMENT alone, and three copies of it
    @example(mutations=[("set", ("segments",), json.dumps([{"id": "far", **FAR_SEGMENT}]))])
    @example(mutations=[("set", ("segments",),
                         json.dumps([{"id": f"far-{i}", **FAR_SEGMENT} for i in range(3)]))])
    def test_commands_exit_zero_or_one_json_line(self, base_segments, capsys, mutations):
        """Exit 0, or exit 1 with one JSON line on stderr; never a NaN or Infinity token."""
        directory, base = base_segments
        segments = directory / "mutated.json"
        segments.write_text(mutated_text(base, mutations))
        for command, template in SEGMENT_COMMANDS.items():
            out = directory / f"{command}.json"
            for path in (out, Path(f"{out}.manifest.json")):
                path.unlink(missing_ok=True)
            argv = [arg.format(model=directory / "model.json", config=directory / "ga.json")
                    for arg in template]
            capsys.readouterr()
            rc = main(argv + ["--segments", str(segments), "--out", str(out)])
            captured = capsys.readouterr()
            assert captured.out == "", command
            if rc == 0:
                assert captured.err == "", command
                for path in (out, Path(f"{out}.manifest.json")):
                    text = path.read_text()
                    assert "NaN" not in text and "Infinity" not in text, command
            else:
                assert rc == 1, command
                lines = captured.err.strip().splitlines()
                assert len(lines) == 1, (command, captured.err)
                assert set(json.loads(lines[0])) == {"error", "message"}
                assert not out.exists(), command


def assert_exit_contract(rc, captured, out: Path) -> dict | None:
    """Exit 0 with no NaN or Infinity in out or its manifest, or exit 1 with one JSON line, no out.

    Returns the error line's object, None on exit 0.
    """
    assert captured.out == ""
    if rc == 0:
        assert captured.err == ""
        for path in (out, Path(f"{out}.manifest.json")):
            text = path.read_text()
            assert "NaN" not in text and "Infinity" not in text
        return None
    assert rc == 1
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1, captured.err
    err = json.loads(lines[0])
    assert set(err) == {"error", "message"}
    assert not out.exists()
    return err


# ---------------------------------------------------------------------------
# `ingest` then `clean` over damaged CSV logs

ZONES = st.one_of(st.none(), st.integers(-1439, 1439).map(
    lambda minutes: timezone(timedelta(minutes=minutes))))
# CSV cells: numbers, words, blanks, non-finite, out-of-range and huge values
ODD_CELLS = st.one_of(
    st.floats().map(repr),
    st.integers(-2 ** 70, 2 ** 70).map(str),
    st.sampled_from(["", " ", "nan", "NaN", "inf", "-inf", "1e400", "-1e400", "1" + "0" * 400,
                     "north", "9007199254740993", "91", "-180.0000001", "1_0"]),
)
# epoch and ISO-8601 times, naive or with a zone offset
TIME_CELLS = st.one_of(ODD_CELLS, st.datetimes(timezones=ZONES).map(datetime.isoformat))


@st.composite
def csv_log_pairs(draw):
    """Leader and follower CSV texts: fixes up a meridian, the leader ahead, a few rows damaged."""
    n = draw(st.integers(3, 40))
    t0 = draw(st.sampled_from([0.0, 1.7e9]))
    step = draw(st.sampled_from([0.5, 1.0, 2.0]))
    texts = []
    for ahead_deg in (3e-4, 0.0):  # about 109 ft, at about 15 ft/s
        rows = [[repr(t0 + i * step), repr(28.37 + ahead_deg + i * 4e-5 * step), "-81.25"]
                for i in range(n)]
        for kind, i in draw(st.lists(st.tuples(
                st.sampled_from(["time", "lat", "lon", "row", "delete"]), st.integers(0, n)),
                max_size=3)):
            if kind == "row":  # a blank, short, long or odd row
                rows.insert(i, draw(st.lists(TIME_CELLS, max_size=5)))
            elif i < len(rows) and kind == "delete":
                del rows[i]
            elif i < len(rows) and len(rows[i]) == 3:
                column = ("time", "lat", "lon").index(kind)
                rows[i][column] = draw(TIME_CELLS if column == 0 else ODD_CELLS)
        texts.append("t,lat,lon\n" + "".join(",".join(row) + "\n" for row in rows))
    return texts


class TestCsvLogFuzz:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(logs=csv_log_pairs())
    def test_ingest_and_clean_exit_zero_or_one_json_line(self, tmp_path, capsys, logs):
        """Exit 0, or exit 1 with one JSON line on stderr; never a NaN or Infinity token."""
        leader, follower = tmp_path / "leader.csv", tmp_path / "follower.csv"
        pair, segments = tmp_path / "pair.json", tmp_path / "segments.json"
        for path in (pair, segments):
            path.unlink(missing_ok=True)
        leader.write_text(logs[0])
        follower.write_text(logs[1])
        capsys.readouterr()
        rc = main(["ingest", "--leader", str(leader), "--follower", str(follower),
                   "--out", str(pair)])
        assert_exit_contract(rc, capsys.readouterr(), pair)
        if rc == 0:
            rc = main(["clean", "--pair", str(pair), "--out", str(segments)])
            assert_exit_contract(rc, capsys.readouterr(), segments)


# ---------------------------------------------------------------------------
# `clean` over its four flags

FLAG_FLOATS = st.one_of(
    st.floats().map(repr),
    st.floats(0.01, 1000.0).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "-1e400", "0", "-0.0", "-1"]),
)
FLAG_INTS = st.one_of(st.integers(0, 60), st.integers(-10 ** 21, 10 ** 21),
                      st.sampled_from([0, 9, 10, 10 ** 20]))


@st.composite
def clean_flags(draw):
    """Each of clean's four flags, present or not, as `--flag=value`."""
    flags = [f"--{name}={draw(FLAG_FLOATS)}"
             for name in ("max-accel", "max-follower-speed", "max-spacing")
             if draw(st.booleans())]
    if draw(st.booleans()):
        flags.append(f"--min-segment-len={draw(FLAG_INTS)}")
    return flags


class TestCleanFlagsFuzz:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(flags=clean_flags())
    # a run of 9 samples, which a minimum of 9 kept as a segment that then failed its own check
    @example(flags=["--max-accel=0.2", "--min-segment-len=9"])
    def test_clean_exits_zero_or_one_json_line(self, base_pair, capsys, flags):
        """Exit 0, or exit 1 with one JSON line on stderr; never a NaN or Infinity token.

        The pair is valid, so a `domain` error names the flag at fault.
        """
        directory, _ = base_pair
        out = directory / "flags-segments.json"
        out.unlink(missing_ok=True)
        capsys.readouterr()
        rc = main(["clean", "--pair", str(directory / "pair.json"), *flags, "--out", str(out)])
        err = assert_exit_contract(rc, capsys.readouterr(), out)
        if err is not None and err["error"] != "no-car-following":
            assert err["error"] == "domain", err
            assert err["message"].startswith(("cleaning threshold", "min_segment_len")), err


# ---------------------------------------------------------------------------
# `simulate`, `validate` and `calibrate` over their numeric and seed flags

# floats in any spelling, integers up to 10^20, and forms float() or int()
# refuses, such as 0x10
MODEL_FLAG_VALUES = st.one_of(
    st.floats().map(repr),
    st.integers(-10 ** 20, 10 ** 20).map(str),
    st.sampled_from(["nan", "inf", "-inf", "-0", "-0.0", "1e-320", "1e400", "-1e400", "0x10",
                     "", " ", "0.5", "0.25", "1", "2", "10"]),
)
# seed lists: empty, blank, duplicate, huge or misspelt entries
SEED_LISTS = st.one_of(
    st.lists(st.one_of(st.integers(-2, 10 ** 20).map(str),
                       st.sampled_from(["", " ", " 3 ", "-0", "0x10", "1.5", "nan", "1e400"])),
             max_size=4).map(",".join),
    st.integers(0, 3).map(lambda seed: f"{seed},{seed}"),
)
# each flag: the type argparse converts it with, and the words that name it in an error
MODEL_FLAGS = {"dt": (float, "dt"), "split": (float, "split fraction"),
               "split-seed": (int, "split seed"), "seeds": (str, "seeds")}
FLAGS_OF = {"simulate": ("dt",), "validate": ("dt",), "calibrate": tuple(MODEL_FLAGS)}


@st.composite
def model_flags(draw):
    """Each of the four flags, present or not, as (name, value)."""
    return [(name, draw(SEED_LISTS if name == "seeds" else MODEL_FLAG_VALUES))
            for name in MODEL_FLAGS if draw(st.booleans())]


def converts(kind, value: str) -> bool:
    try:
        kind(value)
    except ValueError:
        return False
    return True


class TestModelFlagsFuzz:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(flags=model_flags())
    # cuts the base segments into 8.3 million sub-steps, whose schedule
    # would take gigabytes
    @example(flags=[("dt", "1e-05")])
    @example(flags=[("split", "nan"), ("split-seed", str(10 ** 20)), ("seeds", "0,0")])
    def test_commands_exit_zero_one_or_two(self, base_segments, capsys, flags):
        """Exit 0 with no NaN or Infinity token, exit 1 with one JSON line naming a flag
        given, or exit 2 where argparse cannot convert a value."""
        directory, _ = base_segments
        for command, names in FLAGS_OF.items():
            taken = [(name, value) for name, value in flags if name in names]
            out = directory / f"flags-{command}.json"
            for path in (out, Path(f"{out}.manifest.json")):
                path.unlink(missing_ok=True)
            argv = [arg.format(model=directory / "model.json", config=directory / "ga.json")
                    for arg in SEGMENT_COMMANDS[command]]
            capsys.readouterr()
            try:
                rc = main(argv + ["--segments", str(directory / "segments.json"),
                                  *(f"--{name}={value}" for name, value in taken),
                                  "--out", str(out)])
            except SystemExit as exc:
                rc = exc.code
            captured = capsys.readouterr()
            if not all(converts(MODEL_FLAGS[name][0], value) for name, value in taken):
                assert rc == 2, (command, taken)
                assert "invalid" in captured.err, (command, captured.err)
                continue
            err = assert_exit_contract(rc, captured, out)
            if err is not None:
                assert any(MODEL_FLAGS[name][1] in err["message"] for name, _ in taken), (
                    command, taken, err)


# ---------------------------------------------------------------------------
# `simulate`, `validate` and `calibrate` over mutated model, limits and GA config files

# JSON text put in place of a value: the odd values above, and numbers at
# the edges of each file's domain. No integer here is a feasible but huge
# population or generation count, which would only run for a long time;
# 2^53 is written as a float, which no count takes
CONFIG_VALUES = ODD_VALUES + ["Infinity", "[]", "{}", "0", "-0.0", "-1", "1e-320", "0.5", "1",
                              "2", "3", "4", "10", "1e15", "-1e15", "9007199254740992.0",
                              "1" + "0" * 20, "1e308", "[0.0, 1e308]", "[1.0, 0.0]",
                              "[-1e308, 1e308]"]
LIMITS = {"a_min": -26.0, "a_max": 10.0, "v_max": 19.5, "v_min": 0.0}
GA_CONFIG = {"population": 4, "max_generations": 1, "stall_generations": 1, "seeds": [0],
             "mutation_prob": 0.1, "crossover_prob": 0.5, "elitism_ratio": 0.1}
# the commands each file goes to, as flags; calibrate fits the model file's kind
CONFIG_COMMANDS = {
    "simulate": ["simulate", "--model", "{model}", "--limits", "{limits}"],
    "validate": ["validate", "--params", "{model}", "--limits", "{limits}"],
    "calibrate": ["calibrate", "--model", "{kind}", "--config", "{config}",
                  "--limits", "{limits}"],
}


@st.composite
def config_files(draw):
    """A model kind, and one to three damages to its model, limits or GA config file."""
    from cfcalib.models import GENE_BOUNDS

    kind = draw(st.sampled_from(sorted(GENE_BOUNDS)))
    genes = [name for name, _, _, _ in GENE_BOUNDS[kind]]
    keys = {"model": ["model", *genes] + (["d0"] if kind == "linear_acc" else []),
            "limits": list(LIMITS),
            "config": [*GA_CONFIG, "bounds"]}
    path = st.one_of(
        st.tuples(st.sampled_from(sorted(keys)), st.none()),
        *[st.tuples(st.just(name), st.sampled_from(key_list)) for name, key_list in keys.items()],
        st.tuples(st.just("config"), st.tuples(st.sampled_from(["seeds", "bounds"]),
                                               st.integers(0, len(genes) - 1))),
        st.tuples(st.just("config"), st.tuples(st.just("bounds"), st.integers(0, len(genes) - 1),
                                               st.integers(0, 1))),
    )
    mutation = st.one_of(
        st.tuples(st.just("drop"), path, st.none()),
        st.tuples(st.just("set"), path, st.sampled_from(CONFIG_VALUES)),
        st.tuples(st.just("stray"), st.sampled_from(sorted(keys)), st.none()),
    )
    return kind, draw(st.lists(mutation, min_size=1, max_size=3))


def config_texts(kind: str, mutations) -> dict:
    """The text of each file, with each mutation that still finds its target applied."""
    from cfcalib.models import GENE_BOUNDS, default_params, params_to_dict

    bounds = [[lo, hi] for _, lo, hi, _ in GENE_BOUNDS[kind]]
    files = {"model": params_to_dict(default_params(kind)), "limits": dict(LIMITS),
             "config": {**GA_CONFIG, "bounds": bounds}}
    odd = []
    for kind_of, target, arg in mutations:
        if kind_of == "stray":
            if isinstance(files[target], dict):
                files[target]["stray"] = 1
            continue
        name, key = target
        if key is None:  # the whole file
            if kind_of == "set":
                files[name] = f"@{len(odd)}@"
                odd.append(arg)
            continue
        path = key if isinstance(key, tuple) else (key,)
        try:
            parent = functools.reduce(operator.getitem, path[:-1], files[name])
            parent[path[-1]]
        except (KeyError, IndexError, TypeError):
            continue  # an earlier mutation removed or replaced it
        if not isinstance(parent, (dict, list)):
            continue
        if kind_of == "drop":
            del parent[path[-1]]
        else:
            parent[path[-1]] = f"@{len(odd)}@"
            odd.append(arg)
    texts = {}
    for name, value in files.items():
        text = json.dumps(value)
        for i, literal in enumerate(odd):
            text = text.replace(f'"@{i}@"', literal)
        texts[name] = text
    return texts


class TestConfigFileFuzz:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=config_files())
    # populations beyond 2^53 raised ValueError in numpy (10^20) and
    # OverflowError in the elite count (10^400)
    @example(case=("idm", [("set", ("config", "population"), "1" + "0" * 20)]))
    @example(case=("blend", [("set", ("config", "population"), "1" + "0" * 400)]))
    # an upper bound beyond int64 made the GA's bounds an object array (TypeError)
    @example(case=('blend', [('set', ('config', ('bounds', 0, 1)), '100000000000000000000')]))
    def test_commands_exit_zero_or_one_json_line(self, base_segments, capsys, case):
        """Exit 0 with no NaN or Infinity token in an output or manifest, or exit 1 with
        one JSON line on stderr and no output."""
        directory, _ = base_segments
        kind, mutations = case
        inputs = {"kind": kind}
        for name, text in config_texts(kind, mutations).items():
            inputs[name] = directory / f"fuzz-{name}.json"
            inputs[name].write_text(text)
        for command, template in CONFIG_COMMANDS.items():
            out = directory / f"fuzz-{command}.json"
            for path in (out, Path(f"{out}.manifest.json")):
                path.unlink(missing_ok=True)
            capsys.readouterr()
            rc = main([arg.format(**inputs) for arg in template]
                      + ["--segments", str(directory / "segments.json"), "--out", str(out)])
            assert_exit_contract(rc, capsys.readouterr(), out)


# ---------------------------------------------------------------------------
# the binary sidecar `<segments>.columns` that `clean` writes

def run_on_segments(directory: Path, command: str) -> tuple[int, bytes | None, dict | None]:
    """Run a command of SEGMENT_COMMANDS on directory's segments.json.

    Returns its exit code, and on exit 0 its output's bytes and its manifest.
    """
    out = directory / f"sidecar-{command}.json"
    argv = [arg.format(model=directory / "model.json", config=directory / "ga.json")
            for arg in SEGMENT_COMMANDS[command]]
    rc = main(argv + ["--segments", str(directory / "segments.json"), "--out", str(out)])
    if rc != 0:
        return rc, None, None
    return rc, out.read_bytes(), json.loads(Path(f"{out}.manifest.json").read_text())


@pytest.fixture(scope="module")
def sidecar_base(base_segments, tmp_path_factory):
    """A copy of the base segments file, its sidecar's bytes, and each command's output
    without the sidecar."""
    source, _ = base_segments
    directory = tmp_path_factory.mktemp("sidecar")
    for name in ("segments.json", "model.json", "ga.json"):
        (directory / name).write_bytes((source / name).read_bytes())
    sidecar = (source / "segments.json.columns").read_bytes()
    expected = {}
    for command in SEGMENT_COMMANDS:
        rc, out, manifest = run_on_segments(directory, command)
        assert rc == 0 and manifest["segments_read_from"] == "json", command
        expected[command] = out
    return directory, sidecar, expected


def restore(directory: Path, sidecar: bytes) -> Path:
    """Put the sidecar back in place of whatever a test left at its path."""
    path = directory / "segments.json.columns"
    if path.is_dir():
        path.rmdir()
    path.write_bytes(sidecar)
    return path


class TestSegmentsSidecar:
    @pytest.mark.parametrize("command", list(SEGMENT_COMMANDS))
    def test_outputs_equal_with_and_without_sidecar(self, sidecar_base, capsys, command):
        directory, sidecar, expected = sidecar_base
        restore(directory, sidecar)
        capsys.readouterr()
        rc, out, manifest = run_on_segments(directory, command)
        assert (rc, capsys.readouterr().err) == (0, "")
        assert manifest["segments_read_from"] == "columns"
        assert out == expected[command]

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(in_header=st.booleans(), where=st.floats(0.0, 1.0, exclude_max=True),
           mask=st.integers(1, 255), command=st.sampled_from(["simulate", "validate"]))
    # the first byte, the header's newline and the payload's first byte
    @example(in_header=True, where=0.0, mask=1, command="simulate")
    @example(in_header=True, where=0.9999, mask=0xFF, command="validate")
    @example(in_header=False, where=0.0, mask=0x80, command="simulate")
    def test_a_flipped_byte_changes_no_output(self, sidecar_base, capsys, in_header, where,
                                              mask, command):
        """Any one byte changed, in the header or the payload: exit 0, no stderr, same bytes.

        `where` places the byte within the header (its newline included) or the payload.
        """
        directory, sidecar, expected = sidecar_base
        data = bytearray(sidecar)
        header = sidecar.index(b"\n") + 1
        i = int(where * header) if in_header else header + int(where * (len(data) - header))
        data[i] ^= mask
        restore(directory, bytes(data))
        capsys.readouterr()
        rc, out, manifest = run_on_segments(directory, command)
        assert (rc, capsys.readouterr().err) == (0, "")
        assert out == expected[command]
        if not in_header:  # the payload's digest fails
            assert manifest["segments_read_from"] == "json"

    @pytest.mark.parametrize("damage", ["cut-one-byte", "header-only", "empty", "one-byte-more",
                                        "wrong-version", "renamed-segment", "directory"])
    @pytest.mark.parametrize("command", list(SEGMENT_COMMANDS))
    def test_a_damaged_sidecar_falls_back_to_the_json(self, sidecar_base, capsys, damage,
                                                       command):
        directory, sidecar, expected = sidecar_base
        path = restore(directory, sidecar)
        if damage == "directory":
            path.unlink()
            path.mkdir()
        else:
            path.write_bytes({
                "cut-one-byte": sidecar[:-1],
                "header-only": sidecar[:sidecar.index(b"\n") + 1],
                "empty": b"",
                "one-byte-more": sidecar + b"\0",
                "wrong-version": sidecar.replace(b"cfcalib-segment-columns-1",
                                                 b"cfcalib-segment-columns-2", 1),
                # one id changed: the payload's digest covers the ids and lengths
                "renamed-segment": sidecar.replace(b'"seg-0000"', b'"seg-0009"', 1),
            }[damage])
        capsys.readouterr()
        rc, out, manifest = run_on_segments(directory, command)
        assert (rc, capsys.readouterr().err) == (0, "")
        assert manifest["segments_read_from"] == "json"
        assert out == expected[command]
        restore(directory, sidecar)

    @pytest.mark.parametrize("command", ["simulate", "validate"])
    def test_a_stale_sidecar_falls_back_to_the_json(self, sidecar_base, tmp_path, capsys,
                                                   command):
        """The JSON rewritten with one value changed, the sidecar left as it was."""
        source, sidecar, _ = sidecar_base
        for name in ("model.json", "ga.json"):
            (tmp_path / name).write_bytes((source / name).read_bytes())
        data = json.loads((source / "segments.json").read_text())
        data["segments"][0]["follower"]["speed"][3] += 0.5
        (tmp_path / "segments.json").write_text(json.dumps(data))
        rc, fresh, _ = run_on_segments(tmp_path, command)
        assert rc == 0
        restore(tmp_path, sidecar)
        capsys.readouterr()
        rc, out, manifest = run_on_segments(tmp_path, command)
        assert (rc, capsys.readouterr().err) == (0, "")
        assert manifest["segments_read_from"] == "json"
        assert out == fresh

    def test_clean_writes_the_sidecar_and_counts(self, tmp_path):
        """`clean` writes a sidecar and says what it did; `ingest`'s pair file gets none."""
        segments = run_pipeline_to_segments(tmp_path, stop_at=45)
        assert not (tmp_path / "pair.json.columns").exists()
        assert segments.with_name("segments.json.columns").is_file()
        data = json.loads(segments.read_text())
        counts = json.loads(Path(f"{segments}.manifest.json").read_text())["counts"]
        assert counts["paired_samples"] == data["paired_samples"]
        assert counts["segments"] == len(data["segments"]) == 2
        assert counts["failed_follower_moving"] == 5
        assert counts["cadence_s"] == 1.0
        assert counts["runs_broken_at_gap"] == counts["runs_dropped_short"] == 0

    def test_stats_figures_manifest_names_the_path(self, sidecar_base, tmp_path):
        directory, sidecar, _ = sidecar_base
        restore(directory, sidecar)
        figures = tmp_path / "figures"
        assert main(["stats", "--segments", str(directory / "segments.json"), "--out",
                     str(tmp_path / "stats.json"), "--svg-dir", str(figures)]) == 0
        manifest = json.loads((figures / "figures.manifest.json").read_text())
        assert manifest["segments_read_from"] == "columns"
