import ast
import importlib.util
import json
import os
from pathlib import Path

import numpy as np
import pytest

from cfcalib.cleaning import clean_segments, pair_trajectories, read_segments_json
from cfcalib.cli import main
from cfcalib.ingest import derive_kinematics, geodesic_distance, read_gps_pair
from cfcalib.jsonio import atomic_write_text, write_json

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "cfcalib"
SCRIPTS = REPO / "scripts"


def temporary_files(directory: Path) -> list[str]:
    return sorted(p.name for p in directory.iterdir() if p.name.endswith(".tmp"))


class TestWriteJson:
    def test_unserializable_payload_leaves_target_untouched(self, tmp_path):
        path = tmp_path / "out.json"
        write_json(path, {"kept": 1})
        before = path.read_bytes()
        with pytest.raises(TypeError):
            write_json(path, {"kept": 2, "bad": {1, 2}})
        assert path.read_bytes() == before
        assert temporary_files(tmp_path) == []

    def test_failed_replace_removes_temporary_file(self, tmp_path, monkeypatch):
        path = tmp_path / "out.txt"
        atomic_write_text(path, "old\n")

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            atomic_write_text(path, "new\n")
        assert path.read_text() == "old\n"
        assert temporary_files(tmp_path) == []

    def test_one_sorted_line_and_identical_bytes(self, tmp_path):
        payload = {"b": [1.5, None, True], "a": {"d": "x", "c": 2}}
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        write_json(first, payload)
        write_json(second, payload)
        assert first.read_bytes() == second.read_bytes()
        assert first.read_text() == '{"a": {"c": 2, "d": "x"}, "b": [1.5, null, true]}\n'

    def test_edge_floats_read_back_bit_for_bit(self, tmp_path):
        values = [5e-324, 1e308, -1.7976931348623157e308, 0.1 + 0.2, -0.0, 1 / 3,
                  float(np.float64(2.0) / 3.0)]
        path = tmp_path / "floats.json"
        # numpy scalars are float subclasses and take the same path
        write_json(path, {"values": values, "numpy": np.float64(0.1 + 0.2)})
        back = json.loads(path.read_text())
        assert [v.hex() for v in back["values"]] == [v.hex() for v in values]
        assert back["numpy"].hex() == (0.1 + 0.2).hex()

    def test_cli_clean_output_equals_in_process_segments(self, tmp_path):
        spec = importlib.util.spec_from_file_location("make_demo_data",
                                                      SCRIPTS / "make_demo_data.py")
        demo = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(demo)
        leader_csv, follower_csv = demo.write_logs(tmp_path, 240, 17)
        pair, out = tmp_path / "pair.json", tmp_path / "segments.json"
        assert main(["ingest", "--leader", str(leader_csv), "--follower", str(follower_csv),
                     "--out", str(pair)]) == 0
        assert main(["clean", "--pair", str(pair), "--out", str(out)]) == 0

        leader_fixes, follower_fixes = read_gps_pair(leader_csv, follower_csv)
        paired = pair_trajectories(
            derive_kinematics(leader_fixes, vehicle_id="leader"),
            derive_kinematics(follower_fixes, vehicle_id="follower"),
            leader_offset=geodesic_distance(follower_fixes[0], leader_fixes[0]))
        expected = clean_segments(paired)
        got = read_segments_json(out)
        assert [s.id for s in got] == [s.id for s in expected]
        names = ("t", "leader_pos", "leader_speed", "leader_accel",
                 "follower_pos", "follower_speed", "follower_accel")
        for a, b in zip(got, expected):
            for name in names:
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), (a.id, name)


def _json_calls(tree: ast.AST):
    """(node, function name) for every json.dump / json.dumps call in `tree`."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "json"
                and node.func.attr in ("dump", "dumps")):
            yield node, node.func.attr


def test_no_indented_or_direct_json_writes_in_src():
    """Any indent puts json on its pure-Python encoder; files go through jsonio.write_json."""
    problems = []
    modules = sorted(SRC.glob("*.py"))
    assert any(p.name == "jsonio.py" for p in modules)
    for module in modules:
        tree = ast.parse(module.read_text(), filename=str(module))
        for node, name in _json_calls(tree):
            if any(kw.arg == "indent" for kw in node.keywords):
                problems.append(f"{module.name}:{node.lineno}: json.{name} with indent")
            if name == "dump" and module.name != "jsonio.py":
                problems.append(f"{module.name}:{node.lineno}: json.dump outside jsonio")
        if module.name == "jsonio.py":
            continue
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "write_text"
                    and any(list(_json_calls(arg)) for arg in node.args)):
                problems.append(f"{module.name}:{node.lineno}: json.dumps to write_text")
    assert problems == []
