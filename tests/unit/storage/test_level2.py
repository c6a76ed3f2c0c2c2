"""Unit tests for the level-2 filesystem store."""

import json

import pytest

from repro.core.errors import StorageError
from repro.storage.level2 import Level2Store, RunWriter, encode_block, encode_json


@pytest.fixture
def store(tmp_path):
    return Level2Store(tmp_path / "exp")


def _events(store, node, run):
    return store.read_run_stream(run, "events.jsonl").get(node, [])


def test_description_roundtrip(store):
    store.write_description("<experiment name='x'/>")
    assert store.read_description() == "<experiment name='x'/>"


def test_missing_description_raises(store):
    with pytest.raises(StorageError):
        store.read_description()


def test_plan_roundtrip(store):
    plan = [{"run_id": 0, "treatment": {"f": 1}}]
    store.write_plan(plan)
    assert store.read_plan() == plan


def test_topology_phases(store):
    store.write_topology("before", {"nodes": ["a"]})
    master = store.root / "master"
    assert json.loads((master / "topology_before.json").read_text()) == {"nodes": ["a"]}
    assert not (master / "topology_after.json").exists()
    with pytest.raises(StorageError):
        store.write_topology("middle", {})
    # A measurement that is already level-2 text is written as it is.
    store.write_topology("after", encode_json({"nodes": ["a"]}))
    assert (master / "topology_after.json").read_bytes() == (
        master / "topology_before.json"
    ).read_bytes()


def test_timesync_roundtrip(store):
    store.write_timesync(3, {"n1": {"offset": 0.5}})
    assert store.read_timesync(3)["n1"]["offset"] == 0.5
    with pytest.raises(StorageError):
        store.read_timesync(99)


def test_run_data_appends(store):
    store.write_run_data("n1", 0, [{"name": "e1"}], [{"uid": 1}])
    store.write_run_data("n1", 0, [{"name": "e2"}], [])
    events = _events(store, "n1", 0)
    assert [e["name"] for e in events] == ["e1", "e2"]
    assert store.read_run_stream(0, "packets.jsonl")["n1"] == [{"uid": 1}]
    assert _events(store, "n1", 5) == []


def test_extra_measurements(store):
    store.write_extra_measurement("n1", 0, "plugin_a", {"x": 1})
    store.write_extra_measurement("n1", 0, "plugin_b", [1, 2])
    out = store.read_run_extra_measurements(0)
    assert out == {"n1": {"plugin_a": {"x": 1}, "plugin_b": [1, 2]}}
    assert store.read_run_extra_measurements(9) == {}


def test_run_info_roundtrip(store):
    store.write_run_info(2, {"run_id": 2, "start_time": 1.5, "treatment": {}})
    assert store.read_run_info(2)["start_time"] == 1.5
    with pytest.raises(StorageError):
        store.read_run_info(3)


def test_node_logs_and_experiment_events(store):
    store.write_node_collections({"n1": "line1\nline2"}, {"n1": encode_block([{"name": "init"}])})
    assert store.read_node_logs() == {"n1": "line1\nline2"}
    assert store._read_node_frames("experiment_events.jsonl") == {"n1": [{"name": "init"}]}


def test_eefiles(store):
    store.write_eefile("VERSION", "1.0")
    store.write_eefile("sub/tool.py", "print()")
    files = store.eefiles()
    assert files["VERSION"] == "1.0"
    assert files["sub/tool.py"] == "print()"


def test_experiment_measurements(store):
    store.write_experiment_measurement("medium", {"loss": 1})
    assert store.experiment_measurements() == {"medium": {"loss": 1}}


def test_enumeration(store):
    store.write_run_data("n1", 0, [], [])
    store.write_run_data("n2", 1, [], [])
    assert store.node_ids() == ["n1", "n2"]
    assert store.run_ids() == [0, 1]


def test_run_writer_buffers_and_appends(store, monkeypatch):
    monkeypatch.setattr(RunWriter, "FLUSH_RECORDS", 4)
    with store.run_writer(0) as w:
        w.add_events("n1", [{"name": "e1"}, {"name": "e2"}])
        w.add_packets("n1", [{"uid": 1}])
        w.add_events("n2", [{"name": "e3"}])
        # Below the flush threshold: nothing guaranteed on disk yet, but
        # the files exist (enumeration sees the run immediately).
        assert store.run_ids() == [0]
        w.add_events("n1", [{"name": "e4"}, {"name": "e5"}])  # crosses 4
        assert w.records_written == 6
    assert [e["name"] for e in _events(store, "n1", 0)] == ["e1", "e2", "e4", "e5"]
    assert store.read_run_stream(0, "packets.jsonl")["n1"] == [{"uid": 1}]
    assert [e["name"] for e in _events(store, "n2", 0)] == ["e3"]


def test_run_writer_empty_batches_create_streams(store):
    # write_run_data with empty lists still creates both stream files;
    # the buffered writer must preserve that enumeration contract.
    with store.run_writer(3) as w:
        w.add_events("n1", [])
        w.add_packets("n1", [])
    assert store.run_ids() == [3]
    assert _events(store, "n1", 3) == []


def test_run_writer_interleaves_with_plain_appends(store):
    store.write_run_data("n1", 0, [{"name": "before"}], [])
    with store.run_writer(0) as w:
        w.add_events("n1", [{"name": "during"}])
    store.write_run_data("n1", 0, [{"name": "after"}], [])
    assert [e["name"] for e in _events(store, "n1", 0)] == ["before", "during", "after"]


def test_run_writer_closed_rejects_appends(store):
    w = store.run_writer(0)
    w.close()
    with pytest.raises(StorageError):
        w.add_events("n1", [{"name": "late"}])
    w.close()  # idempotent


def test_enumeration_cache_tracks_writes(store):
    assert store.run_ids() == []
    store.write_run_data("n1", 0, [], [])
    assert store.node_ids() == ["n1"]
    assert store.run_ids() == [0]
    store.write_run_data("n2", 4, [], [])
    assert store.node_ids() == ["n1", "n2"]
    assert store.run_ids() == [0, 4]
    store.write_node_collections({"n3": "log"}, {})
    assert store.node_ids() == ["n1", "n2", "n3"]
