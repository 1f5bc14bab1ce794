import dataclasses
import hashlib
import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from cfcalib import DomainError, FollowingSegment, OrderingError, clean_segments, cleaning
from cfcalib import series as series_module
from cfcalib.fixtures import constant_leader_segment, steady_pair
from cfcalib.series import (
    COLUMNS, columns_path, read_pair_json, read_segments_json, segments_from_dict,
    segments_to_dict, series_columns, series_to_dict, write_pair_json, write_segments_json)


class TestFollowingSegment:
    def test_rejects_nonpositive_spacing(self):
        n = 12
        t = np.arange(n, dtype=float)
        with pytest.raises(DomainError):
            FollowingSegment(
                id="bad", t=t,
                leader_pos=np.zeros(n), leader_speed=np.zeros(n), leader_accel=np.zeros(n),
                follower_pos=np.zeros(n), follower_speed=np.zeros(n), follower_accel=np.zeros(n),
            )

    def test_rejects_short_segments(self):
        with pytest.raises(DomainError):
            constant_leader_segment(10.0, 5, 50.0)

    @pytest.mark.parametrize("i, value, named", [
        (6, 4.0, "t[6] = 4.0 follows t[5] = 5.0"),
        (6, 5.0, "t[6] = 5.0 follows t[5] = 5.0"),
        (6, float("nan"), "t[6] = nan follows t[5] = 5.0"),
    ], ids=["decreasing", "repeated", "nan"])
    def test_rejects_times_not_increasing(self, i, value, named):
        segment = constant_leader_segment(10.0, 11, 50.0, seg_id="s")
        t = segment.t.copy()
        t[i] = value
        with pytest.raises(OrderingError) as exc:
            dataclasses.replace(segment, t=t)
        assert str(exc.value) == f"segment s: times must strictly increase; {named}"

    # a NaN time is an ordering fault, named first (test_rejects_times_not_increasing)
    @pytest.mark.parametrize("name, value", [
        (name, value) for name in COLUMNS for value in (1.7e308, float("inf"), float("nan"))
        if not (name == "t" and value != value)])
    def test_rejects_values_out_of_range(self, name, value):
        segment = constant_leader_segment(10.0, 11, 50.0, seg_id="s")
        column = getattr(segment, name).copy()
        i = len(column) - 1  # a time that still increases
        column[i] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and no numpy warning on the way
            with pytest.raises(DomainError) as exc:
                dataclasses.replace(segment, **{name: column})
        assert str(exc.value) == (f"segment s {name}: {value!r} at index {i} "
                                  f"must be finite and within [-2^53, 2^53]")

    def test_range_is_checked_before_the_spacing(self):
        segment = constant_leader_segment(10.0, 11, 50.0, seg_id="s")
        leader_pos = segment.leader_pos.copy()
        leader_pos[2] = -50.0  # behind the follower
        leader_pos[6] = 1.7e308
        with pytest.raises(DomainError, match="segment s leader_pos: 1.7e\\+308 at index 6"):
            dataclasses.replace(segment, leader_pos=leader_pos)
        leader_pos[6] = segment.leader_pos[6]
        with pytest.raises(DomainError, match="segment s: spacing must stay positive"):
            dataclasses.replace(segment, leader_pos=leader_pos)

    # each column at the bound, with the sign that keeps the times
    # increasing and the spacing positive
    BOUND = 2.0 ** 53
    AT_BOUND = {"t": BOUND, "leader_pos": BOUND, "leader_speed": BOUND, "leader_accel": -BOUND,
                "follower_pos": -BOUND, "follower_speed": -BOUND, "follower_accel": BOUND}

    @pytest.mark.parametrize("name", COLUMNS)
    def test_values_at_the_bound_kept_and_the_next_double_rejected(self, name):
        segment = constant_leader_segment(10.0, 11, 50.0, seg_id="s")
        column = getattr(segment, name).copy()
        i = len(column) - 1
        column[i] = self.AT_BOUND[name]
        kept = dataclasses.replace(segment, **{name: column})
        assert getattr(kept, name)[i] == self.AT_BOUND[name]
        assert np.all(np.isfinite(kept.spacing)) and np.all(kept.spacing > 0.0)
        beyond = float(np.nextafter(column[i], np.copysign(np.inf, column[i])))
        column[i] = beyond
        named = f"segment s {name}: {beyond!r} at index {i} "
        with pytest.raises(DomainError, match=re.escape(named)):
            dataclasses.replace(segment, **{name: column})


class TestSegmentsJson:
    def test_segments_json_round_trip(self, tmp_path):
        segments = clean_segments(steady_pair(25))
        path = tmp_path / "segments.json"
        write_segments_json(segments, path)
        loaded = read_segments_json(path)
        assert len(loaded) == len(segments)
        assert np.array_equal(loaded[0].spacing, segments[0].spacing)

    def test_segments_json_keys_and_the_old_spacing_column(self, tmp_path):
        """An entry holds id and the columns; a file that still has `spacing` reads the same."""
        segments = clean_segments(steady_pair(25))
        path = tmp_path / "segments.json"
        write_segments_json(segments, path)
        data = json.loads(path.read_text())
        assert [set(entry) for entry in data["segments"]] == [
            {"id", "t", "leader", "follower"}] * len(segments)
        for entry, seg in zip(data["segments"], segments):
            entry["spacing"] = seg.spacing.tolist()
        old = tmp_path / "old.json"
        old.write_text(json.dumps(data))
        for got, want in zip(read_segments_json(old), read_segments_json(path), strict=True):
            assert got.id == want.id
            for name in COLUMNS:
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes()

    def test_cleaning_reaches_the_same_reader_and_writer(self):
        assert cleaning.read_segments_json is series_module.read_segments_json
        assert cleaning.write_segments_json is series_module.write_segments_json

    def write_counting(self, tmp_path, monkeypatch):
        """A one-segment file with its sidecar, and the list of paths file_sha256 is called on."""
        path = tmp_path / "segments.json"
        write_segments_json([constant_leader_segment(12.0, 20, 60.0)], path)
        hashed, file_sha256 = [], series_module.file_sha256
        monkeypatch.setattr(series_module, "file_sha256",
                            lambda p: hashed.append(p) or file_sha256(p))
        return path, hashed

    @pytest.mark.parametrize("sidecar", [True, False], ids=["columns", "json"])
    def test_the_file_is_hashed_once_and_the_digest_kept(self, tmp_path, monkeypatch, sidecar):
        """Called with the path alone, the reader hashes the file once, the sidecar's json_sha256
        being that digest."""
        path, hashed = self.write_counting(tmp_path, monkeypatch)
        header = json.loads(columns_path(path).read_bytes().partition(b"\n")[0])
        assert header["json_sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
        if not sidecar:
            columns_path(path).unlink()
        assert read_segments_json(path).read_from == ("columns" if sidecar else "json")
        assert hashed == [path]

    @pytest.mark.parametrize("matches", [True, False], ids=["columns", "json"])
    def test_a_digest_handed_in_is_checked_not_taken(self, tmp_path, monkeypatch, matches):
        """Handed a digest, the reader hashes nothing: it takes the sidecar when the digest
        matches its json_sha256, and the JSON when it does not, with the same segments."""
        path, hashed = self.write_counting(tmp_path, monkeypatch)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        if not matches:
            digest = hashlib.sha256(b"other bytes").hexdigest()
        segments = read_segments_json(path, digest)
        assert segments.read_from == ("columns" if matches else "json")
        assert hashed == []
        columns = [[getattr(s, name).tobytes() for name in COLUMNS]
                   for s in (*segments, *read_segments_json(path))]
        assert columns[0] == columns[1]


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_pair_column_at_the_bound_kept_and_the_next_double_rejected(tmp_path, sign):
    path = tmp_path / "pair.json"
    write_pair_json(steady_pair(20), 0.0, path)
    data = json.loads(path.read_text())
    bound = sign * 2.0 ** 53
    data["leader"]["speed"][3] = bound
    path.write_text(json.dumps(data))
    assert read_pair_json(path).leader_speed[3] == bound
    beyond = float(np.nextafter(bound, sign * np.inf))
    data["leader"]["speed"][3] = beyond
    path.write_text(json.dumps(data))
    with pytest.raises(DomainError) as exc:
        read_pair_json(path)
    assert str(exc.value) == (f"{path}: pair JSON leader speed: {beyond!r} at index 3 "
                              f"must be finite and within [-2^53, 2^53]")


def columns_of(series):
    return [getattr(series, name) for name in COLUMNS]


def test_dicts_of_numpy_columns_read_back_in_process():
    # series_to_dict hands out numpy columns; the readers take them as the
    # lists write_json writes for them
    segments = [constant_leader_segment(10.0, 11, 50.0, seg_id="a"),
                FollowingSegment("b", *columns_of(steady_pair(12, spacing=0.1 + 0.2)))]
    back = segments_from_dict(segments_to_dict(segments))
    assert [s.id for s in back] == ["a", "b"]
    for got, expected in zip(back, segments):
        for name in COLUMNS:
            assert getattr(got, name).tobytes() == getattr(expected, name).tobytes(), name
    paired = steady_pair(7, accel=-0.0)
    columns = series_columns(series_to_dict(paired), "pair")
    assert columns.tobytes() == np.array(columns_of(paired)).tobytes()
    # a numpy column is held to the rule a list is
    entry = series_to_dict(paired)
    entry["leader"]["speed"] = np.full(7, True)
    with pytest.raises(DomainError, match="pair leader speed: values must be numbers, not bool"):
        series_columns(entry, "pair")


# ---------------------------------------------------------------------------
# the binary sidecar of a segments file

# doubles at the edges of what a segment may hold
EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.0 ** 53, -(2.0 ** 53), 2.0 ** 53 - 1, 0.1]
VALUES = st.one_of(st.sampled_from(EDGE_VALUES),
                   st.floats(-(2.0 ** 53), 2.0 ** 53, allow_nan=False))


@st.composite
def sidecar_segments(draw):
    """Valid segments: up to three drawn, repeated under drawn ids to 0-3 or 32-40 of them."""
    bases = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(10, 14))
        t = sorted(draw(st.lists(VALUES, min_size=n, max_size=n, unique=True)))
        # the leader ahead: the larger of two distinct positions
        pairs = draw(st.lists(st.tuples(VALUES, VALUES).filter(lambda p: p[0] != p[1]),
                              min_size=n, max_size=n))
        rest = [draw(st.lists(VALUES, min_size=n, max_size=n)) for _ in range(4)]
        bases.append(FollowingSegment(
            "", t, [max(p) for p in pairs], rest[0], rest[1], [min(p) for p in pairs],
            rest[2], rest[3]))
    count = draw(st.one_of(st.integers(0, 3), st.integers(32, 40)))
    ids = draw(st.lists(st.text(max_size=8), min_size=count, max_size=count))
    return [dataclasses.replace(bases[i % len(bases)], id=ids[i]) for i in range(count)]


def exact(segments) -> list:
    """Each segment's id and every value as float.hex, in order."""
    return [(s.id, [[float.hex(float(v)) for v in getattr(s, name)] for name in COLUMNS])
            for s in segments]


class TestColumnsSidecar:
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture,
                                     HealthCheck.too_slow])
    @given(segments=sidecar_segments())
    @example(segments=[constant_leader_segment(12.0, 20, 60.0, seg_id="Ström-1 ✓")])
    def test_sidecar_reads_what_the_json_reads(self, tmp_path, segments):
        path = tmp_path / "segments.json"
        write_segments_json(segments, path)
        from_columns = read_segments_json(path)
        columns_path(path).unlink()
        from_json = read_segments_json(path)
        assert (from_columns.read_from, from_json.read_from) == ("columns", "json")
        assert exact(from_columns) == exact(from_json) == exact(segments)

    def test_sidecar_layout(self, tmp_path):
        """One header line, then each segment's columns in COLUMNS order as little-endian doubles."""
        segments = [constant_leader_segment(12.0, 20, 60.0, seg_id="a"),
                    constant_leader_segment(10.0, 11, 40.0, seg_id="b")]
        path = tmp_path / "segments.json"
        write_segments_json(segments, path)
        header, _, payload = columns_path(path).read_bytes().partition(b"\n")
        header = json.loads(header)
        assert header["ids"] == [s.id for s in segments]
        assert header["lengths"] == [len(s) for s in segments]
        assert header["json_sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
        assert payload == b"".join(getattr(s, name).astype("<f8").tobytes()
                                   for s in segments for name in COLUMNS)

    def test_readers_write_no_sidecar(self, tmp_path):
        path = tmp_path / "segments.json"
        path.write_text(json.dumps(segments_to_dict([constant_leader_segment(12.0, 20, 60.0)]),
                                   default=lambda a: a.tolist()))
        assert read_segments_json(path).read_from == "json"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["segments.json"]

    def test_extra_keys_keep_the_json_bytes(self, tmp_path):
        segments = [constant_leader_segment(12.0, 20, 60.0)]
        path = tmp_path / "segments.json"
        write_segments_json(segments, path, retained_samples=len(segments[0]), paired_samples=99)
        expected = {**segments_to_dict(segments), "retained_samples": len(segments[0]),
                    "paired_samples": 99}
        assert path.read_text() == json.dumps(expected, sort_keys=True,
                                              default=lambda a: a.tolist()) + "\n"
