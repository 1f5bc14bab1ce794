import ast
import importlib.util
import json
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cfcalib.cleaning import clean_segments, pair_trajectories, read_segments_json
from cfcalib.cli import main
from cfcalib.ingest import derive_kinematics, geodesic_distance, read_gps_pair
from cfcalib import jsonio
from cfcalib.jsonio import atomic_write_text, write_json

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "cfcalib"
SCRIPTS = REPO / "scripts"
LONG = 5000  # the values of a long column


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

    @given(payload=st.deferred(lambda: PAYLOADS))
    @settings(max_examples=150, deadline=None)
    @example(payload={"é": {"t": np.arange(LONG, dtype=float), "n": -0.0},
                      "a": [(np.zeros((0,)), 2 ** 63), np.full(LONG - 1, 5e-324)]})
    def test_equals_json_dumps_of_the_payload_with_arrays_as_lists(self, tmp_path_factory,
                                                                     payload):
        path = tmp_path_factory.mktemp("payload") / "out.json"
        write_json(path, payload)
        expected = json.dumps(as_lists(payload), sort_keys=True) + "\n"
        assert path.read_bytes() == expected.encode()
        assert temporary_files(path.parent) == []

    @pytest.mark.parametrize("payload", [
        {"column": np.zeros(LONG), "later": {1, 2}},
        [np.zeros(LONG), {"inner": [np.ones(LONG), {1, 2}]}],
    ], ids=["dict", "list"])
    def test_unserializable_value_after_a_column_writes_nothing(self, tmp_path, payload):
        path = tmp_path / "out.json"
        with pytest.raises(TypeError, match="type set is not JSON serializable"):
            write_json(path, payload)
        assert not path.exists()
        assert temporary_files(tmp_path) == []

    def test_many_short_columns_are_encoded_one_at_a_time(self, tmp_path, monkeypatch):
        # 400 segments of 20 samples: no column is long, but together they
        # are, and no container of them may be encoded whole
        payload = {"segments": [{"id": str(i), "t": np.arange(20.0) + i,
                                 "leader": {"pos": np.full(20, 0.1 * i)}} for i in range(400)]}
        encoded, encoder = [], jsonio._ENCODER

        class Recording:
            def encode(self, value):
                encoded.append(value)
                return encoder.encode(value)

        monkeypatch.setattr(jsonio, "_ENCODER", Recording())
        path = tmp_path / "out.json"
        write_json(path, payload)
        assert path.read_text() == json.dumps(as_lists(payload), sort_keys=True) + "\n"
        assert sum(isinstance(value, np.ndarray) for value in encoded) == 800
        assert [value for value in encoded if isinstance(value, (dict, list, tuple))] == []

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

        leader_log, follower_log = read_gps_pair(leader_csv, follower_csv)
        paired = pair_trajectories(
            derive_kinematics(leader_log, vehicle_id="leader"),
            derive_kinematics(follower_log, vehicle_id="follower"),
            leader_offset=geodesic_distance(follower_log.lat[0], follower_log.lon[0],
                                            leader_log.lat[0], leader_log.lon[0]))
        expected = clean_segments(paired)
        got = read_segments_json(out)
        assert [s.id for s in got] == [s.id for s in expected]
        names = ("t", "leader_pos", "leader_speed", "leader_accel",
                 "follower_pos", "follower_speed", "follower_accel")
        for a, b in zip(got, expected):
            for name in names:
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), (a.id, name)


def as_lists(value):
    """value with every numpy array replaced by its list, the payload json.dumps takes."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {key: as_lists(entry) for key, entry in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(map(as_lists, value))
    return value


# short and long columns, empty and 2-d included
ARRAY_SHAPES = [(0,), (1,), (7,), (2, 3), (0, 4), (LONG,), (64, 64)]
EDGE_FLOATS = np.array([0.0, -0.0, 5e-324, -2.5e-308, 1e308, 0.1 + 0.2, 2.0 ** 53 + 2, -1 / 3])


@st.composite
def arrays(draw):
    shape = draw(st.sampled_from(ARRAY_SHAPES))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        return rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max, shape,
                            dtype=np.int64, endpoint=True)
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-320, 300, shape)
    edges = rng.random(shape) < 0.2
    values[edges] = rng.choice(EDGE_FLOATS, int(edges.sum()))
    return values


SCALARS = (st.none() | st.booleans() | st.integers(-2 ** 80, 2 ** 80)
           | st.floats(allow_nan=False) | st.text(max_size=6))
PAYLOADS = st.recursive(
    SCALARS | arrays(),
    lambda children: (st.lists(children, max_size=4)
                      | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(st.text(max_size=4), children, max_size=4)
                      # json.dumps writes an int or float key as a string
                      | st.dictionaries(st.integers(-3, 3) | st.floats(-2, 2), children,
                                        max_size=4)),
    max_leaves=8)


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
