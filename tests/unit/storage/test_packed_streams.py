"""The packed level-2 layout: corruption at every offset, constant file
count, one-run-at-a-time conditioning, and the retired per-node layout."""

import json
import zlib

import pytest

from repro.core.errors import StorageError
from repro.storage import level2
from repro.storage.conditioning import iter_conditioned_runs
from repro.storage.level2 import Level2Store, encode_block
from repro.storage.level3 import ExperimentDatabase, store_level3

NODES = ("h1", "h2", "master")


def _event(node, i, run_id=0):
    return {"name": f"ev{i}", "node": node, "local_time": float(i),
            "params": [], "run_id": run_id}


def _record_run(root, salvage=False):
    """Three nodes interleaved in one packed stream, one of them silent."""
    store = Level2Store(root, salvage=salvage)
    with store.run_writer(0) as writer:
        writer.add_events("h1", [_event("h1", 0), _event("h1", 1)])
        writer.add_events("h2", [])
        writer.add_events("master", [_event("master", 2)])
        writer.add_events("h1", [_event("h1", 3)])
    return store


def _intact_frames(data):
    """Independent oracle: ``[(node, record-or-None)]`` for every line of
    *data* that is a whole frame whose CRC holds."""
    frames = []
    for line in data.split(b"\n"):
        parts = line.rstrip(b"\r").split(b"\t")
        if len(parts) != 3 or len(parts[2]) != 8:
            continue
        try:
            crc = int(parts[2], 16)
            if parts[2] != b"%08x" % crc or zlib.crc32(parts[0] + b"\t" + parts[1]) != crc:
                continue
            node = parts[0].decode("utf-8")
            frames.append((node, json.loads(parts[1]) if parts[1] else None))
        except ValueError:
            continue
    return frames


def _check_damaged(tmp_path, pristine, damaged):
    """Strict mode refuses *damaged*; salvage mode keeps exactly the intact
    frames under the right node and counts every other line."""
    root = tmp_path / "l2"
    path = root / "runs" / "0" / "events.jsonl"
    path.write_bytes(damaged)
    intact = _intact_frames(damaged)
    lines = [ln for ln in damaged.split(b"\n") if ln.rstrip(b"\r")]
    dropped = len(lines) - len(intact)

    if dropped:
        with pytest.raises(StorageError, match="--salvage"):
            Level2Store(root).read_run_stream(0, "events.jsonl")
    else:
        # Cut on a frame boundary: what is left is a clean, shorter stream.
        assert intact == _intact_frames(pristine)[: len(intact)]

    store = Level2Store(root, salvage=True)
    groups = store.read_run_stream(0, "events.jsonl")
    expected = {}
    for node, record in intact:
        expected.setdefault(node, [])
        if record is not None:
            expected[node].append(record)
    assert groups == expected

    records = store.salvage_records()
    assert sum(r["dropped"] for r in records) == dropped
    for rec in records:
        assert rec["node"] == "*" or rec["node"] in expected
        assert rec["kept"] == len(expected.get(rec["node"], ()))
    report_path = store.write_salvage_report()
    if dropped:
        report = json.loads(report_path.read_text(encoding="utf-8"))
        assert report["total_dropped"] == dropped
        assert report["records"] == records
    else:
        assert report_path is None and records == []
    return records


def test_truncation_at_every_offset(tmp_path):
    _record_run(tmp_path / "l2")
    pristine = (tmp_path / "l2" / "runs" / "0" / "events.jsonl").read_bytes()
    assert len(_intact_frames(pristine)) == 5
    for cut in range(len(pristine)):
        records = _check_damaged(tmp_path, pristine, pristine[:cut])
        # A torn tail is one bad line, blamed on a node the intact part
        # of the stream already names or on nobody.
        assert len(records) <= 1


def test_byte_flip_at_every_offset(tmp_path):
    _record_run(tmp_path / "l2")
    pristine = (tmp_path / "l2" / "runs" / "0" / "events.jsonl").read_bytes()
    for offset in range(len(pristine)):
        for mask in (0x01, 0x80, 0xFF):
            damaged = bytearray(pristine)
            damaged[offset] ^= mask
            records = _check_damaged(tmp_path, pristine, bytes(damaged))
            assert records, f"flip at {offset} (mask {mask:#x}) went unnoticed"


def test_flipped_prefix_is_attributed_to_nobody(tmp_path):
    store = _record_run(tmp_path / "l2", salvage=True)
    path = tmp_path / "l2" / "runs" / "0" / "events.jsonl"
    lines = path.read_bytes().split(b"\n")
    assert lines[2].startswith(b"h2\t")  # the silent node's only frame
    lines[2] = b"h9" + lines[2][2:]
    lines[3] = lines[3].replace(b"ev2", b"ev7")  # body damage, prefix intact
    path.write_bytes(b"\n".join(lines))
    groups = store.read_run_stream(0, "events.jsonl")
    assert sorted(groups) == ["h1"]
    assert {(r["node"], r["dropped"]) for r in store.salvage_records()} == {("*", 2)}
    # master's prefix is intact but no intact frame vouches for it; h1's is.
    lines[0] = lines[0].replace(b"ev0", b"ev8")
    path.write_bytes(b"\n".join(lines))
    fresh = Level2Store(tmp_path / "l2", salvage=True)
    fresh.read_run_stream(0, "events.jsonl")
    assert {(r["node"], r["kept"], r["dropped"]) for r in fresh.salvage_records()} == {
        ("*", 0, 2), ("h1", 2, 1)}


# ----------------------------------------------------------------------
# The two properties the packed layout exists for
# ----------------------------------------------------------------------
def _stage_single_run(root, nodes):
    """What one master writes for a single run over *nodes* nodes."""
    store = Level2Store(root)
    store.write_description("<experiment name='x'/>")
    store.write_plan([{"run_id": 0, "treatment": {}}])
    names = [f"n{i}" for i in range(nodes)]
    store.write_topology("before", {"names": names})
    store.write_timesync(0, {n: {"offset": 0.0} for n in names})
    store.write_run_info(0, {"run_id": 0, "start_time": 0.0, "treatment": {}})
    with store.run_writer(0) as writer:
        for n in names:
            writer.add_events(n, [_event(n, 1)])
            writer.add_packets(n, [])
        writer.add_events("master", [_event("master", 0)])
        assert len(writer._handles) <= 3
    with store.run_writer(0) as writer:
        writer.add_traces("master", [{"name": "run"}])
    store.write_extra_measurement("master", 0, "medium", {"x": 1})
    store.write_topology("after", {"names": names})
    for n in names:
        store.write_node_collections(
            {n: f"log of {n}"}, {n: encode_block([{"name": "experiment_init"}])}
        )
    store.write_node_collections({}, {"master": encode_block([])})
    return store


def _inventory(root):
    paths = list(root.rglob("*"))
    return (sum(p.is_file() for p in paths), sum(p.is_dir() for p in paths))


def test_file_count_is_independent_of_node_count(tmp_path):
    small = _stage_single_run(tmp_path / "n8", 8)
    large = _stage_single_run(tmp_path / "n64", 64)
    assert _inventory(small.root) == _inventory(large.root)
    assert len(small.node_ids()) == 9 and len(large.node_ids()) == 65
    assert large.read_node_logs()["n63"] == "log of n63"
    assert large.read_run_stream(0, "events.jsonl")["n63"] == [_event("n63", 1)]


def test_conditioning_holds_one_run_at_a_time(tmp_path, monkeypatch):
    store = Level2Store(tmp_path / "l2")
    store.write_description("<experiment name='x'/>")
    store.write_plan([])
    for run_id in range(20):
        store.write_timesync(run_id, {})
        store.write_run_info(run_id, {"run_id": run_id, "start_time": 0.0, "treatment": {}})
        for node in NODES:
            store.write_run_data(
                node, run_id, [_event(node, i, run_id) for i in range(5)],
                [{"node": node, "local_time": 1.0, "uid": 1, "run_id": run_id}],
            )

    handed_out = []  # (run_id, stream, the dict the reader returned)
    real = Level2Store.read_run_stream

    def spy(self, run_id, stream):
        groups = real(self, run_id, stream)
        handed_out.append((run_id, stream, groups))
        return groups

    monkeypatch.setattr(Level2Store, "read_run_stream", spy)
    for run in iter_conditioned_runs(store):
        assert len(run.events) == 15 and len(run.packets) == 3
        # Everything the reader parsed so far has been consumed, and the
        # store itself retains no parsed records between runs: what it keeps
        # of a read is the node keys of each stream (for node_ids()).
        assert all(not groups for _, _, groups in handed_out)
        assert all(rid <= run.run_id for rid, _, _ in handed_out)
        kept = {k: v for k, v in vars(store).items() if k != "_scanned"}
        assert not any(isinstance(v, (dict, list)) and v for v in kept.values())
        assert all(nodes == set(NODES) for _, nodes in store._scanned.values())
    # Each packed stream was scanned exactly once, run by run.
    assert [(rid, s) for rid, s, _ in handed_out] == [
        (rid, s) for rid in range(20) for s in ("events.jsonl", "packets.jsonl")]
    monkeypatch.undo()
    # Reading again re-scans the file: nothing was consumed on disk.
    assert store.read_run_stream(7, "events.jsonl")["h1"] == [_event("h1", i, 7) for i in range(5)]


def test_store_level3_reads_packed_layout_end_to_end(tmp_path):
    store = _stage_single_run(tmp_path / "l2", 4)
    with ExperimentDatabase(store_level3(store, tmp_path / "x.db")) as db:
        assert db.row_counts()["Events"] == 5
        assert db.node_ids() == ["master", "n0", "n1", "n2", "n3"]


def test_retired_per_node_layout_is_refused(tmp_path):
    old = tmp_path / "old" / "nodes" / "h1" / "runs" / "0"
    old.mkdir(parents=True)
    (old / "events.jsonl").write_text('{"name": "ev0"}\n', encoding="utf-8")
    with pytest.raises(StorageError, match="per-node layout"):
        Level2Store(tmp_path / "old")
    assert not hasattr(level2, "_parse_record_line")


def test_corrupt_l2_tool_targets_one_frame(tmp_path):
    import importlib.util
    from pathlib import Path

    tool_path = Path(__file__).resolve().parents[3] / "tools" / "corrupt_l2.py"
    spec = importlib.util.spec_from_file_location("corrupt_l2", tool_path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)

    root = tmp_path / "l2"
    _record_run(root)  # file order: h1 ev0, h1 ev1, h2 marker, master ev2, h1 ev3
    assert tool.main([str(root), "--run", "0", "--node", "h1", "--index", "1",
                      "--flip-byte"]) == 0
    store = Level2Store(root, salvage=True)
    groups = store.read_run_stream(0, "events.jsonl")
    assert [e["name"] for e in groups["h1"]] == ["ev0", "ev3"]
    assert store.salvage_records() == [{
        "run_id": 0, "node": "h1", "stream": "events.jsonl",
        "kept": 2, "dropped": 1, "reason": "crc_mismatch"}]

    # A torn write inside master's frame takes everything after it along.
    assert tool.main([str(root), "--run", "0", "--node", "master",
                      "--truncate-bytes", "5"]) == 0
    store = Level2Store(root, salvage=True)
    groups = store.read_run_stream(0, "events.jsonl")
    assert sorted(groups) == ["h1", "h2"] and len(groups["h1"]) == 1
    assert {(r["node"], r["reason"]) for r in store.salvage_records()} == {
        ("h1", "crc_mismatch"), ("*", "truncated")}
    with pytest.raises(SystemExit, match="no index 7"):
        tool.main([str(root), "--run", "0", "--node", "h1", "--index", "7", "--flip-byte"])

    # Broken JSON under a CRC that holds: the frame is intact, its body is not.
    root = tmp_path / "again"
    _record_run(root)
    assert tool.main([str(root), "--run", "0", "--node", "h1", "--bad-json"]) == 0
    store = Level2Store(root, salvage=True)
    assert [e["name"] for e in store.read_run_stream(0, "events.jsonl")["h1"]] == ["ev0", "ev1"]
    assert store.salvage_records() == [{
        "run_id": 0, "node": "h1", "stream": "events.jsonl",
        "kept": 2, "dropped": 1, "reason": "bad_json"}]
