"""Unit tests for CRC-framed run streams and strict conditioning: the first
corrupt frame is refused, named by file, line and reason."""

import json
import zlib

import pytest

from repro.core.errors import StorageError
from repro.durable import frame
from repro.storage.level2 import Level2Store
from repro.storage.level3 import store_level3

DESC_XML = """<experiment name="framing" seed="1" comment="c">
  <platform>
    <actornode id="h1" address="10.0.0.1" abstract="A" />
    <envnode id="h2" address="10.0.0.2" />
  </platform>
</experiment>"""


def _event(i, run_id=0, node="h1"):
    return {"name": f"ev{i}", "node": node, "local_time": float(i),
            "params": [], "run_id": run_id}


def _fill(root, events=5):
    store = Level2Store(root)
    store.write_description(DESC_XML)
    store.write_plan([])
    store.write_timesync(0, {})
    store.write_run_info(0, {"run_id": 0, "start_time": 0.0, "treatment": {}})
    store.write_run_data("h1", 0, [_event(i) for i in range(events)], [])
    return store


def _events_path(root):
    return root / "runs" / "0" / "events.jsonl"


def _corrupt_crc(path):
    """Flip a digit in the last record's body, keeping its CRC frame."""
    lines = path.read_text(encoding="utf-8").splitlines()
    body, suffix = lines[-1].rsplit("\t", 1)
    lines[-1] = body.replace('"local_time": 4.0', '"local_time": 9.0') + "\t" + suffix
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
def test_run_streams_are_crc_framed(tmp_path):
    _fill(tmp_path / "l2")
    lines = _events_path(tmp_path / "l2").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 5
    for line in lines:
        # <node>\t<json>\t<crc32>, the CRC covering node and json.
        node, body, suffix = line.split("\t")
        assert node == "h1"
        assert json.loads(body)["node"] == "h1"
        head = node + "\t" + body
        assert suffix == f"{zlib.crc32(head.encode('utf-8')):08x}"


def test_framed_roundtrip_and_legacy_lines(tmp_path):
    store = _fill(tmp_path / "l2")
    events = store.read_run_stream(0, "events.jsonl")["h1"]
    assert events == [_event(i) for i in range(5)]
    # A pre-framing store wrote bare JSON lines; there is no reader for
    # them any more — an unframed line is a torn frame.
    with open(_events_path(tmp_path / "l2"), "a", encoding="utf-8") as fh:
        fh.write(json.dumps(_event(5)) + "\n")
    with pytest.raises(StorageError, match=r"line 6: truncated\)"):
        store.read_run_stream(0, "events.jsonl")


# ----------------------------------------------------------------------
# Corruption: a hard fail naming the file, the line and the reason
# ----------------------------------------------------------------------
def test_crc_mismatch_is_refused(tmp_path):
    store = _fill(tmp_path / "l2")
    path = _events_path(tmp_path / "l2")
    _corrupt_crc(path)
    with pytest.raises(StorageError) as info:
        store.read_run_stream(0, "events.jsonl")
    assert str(info.value) == f"corrupt record in {path} (line 5: crc_mismatch)"


def test_truncated_tail_is_refused(tmp_path):
    store = _fill(tmp_path / "l2")
    path = _events_path(tmp_path / "l2")
    data = path.read_bytes()
    path.write_bytes(data[:-5])  # cuts into the 8-hex CRC suffix
    with pytest.raises(StorageError, match=r"line 5: truncated\)"):
        store.read_run_stream(0, "events.jsonl")


def test_bad_json_under_a_holding_crc_is_refused(tmp_path):
    store = _fill(tmp_path / "l2")
    with open(_events_path(tmp_path / "l2"), "a", encoding="utf-8") as fh:
        fh.write(frame("h1", "{not json at all").decode() + "\n")  # CRC itself is valid
    with pytest.raises(StorageError, match=r"line 6: bad_json\)"):
        store.read_run_stream(0, "events.jsonl")


def test_node_files_share_the_run_stream_error(tmp_path):
    store = _fill(tmp_path / "l2")
    store.write_node_collections({"h1": "log", "h2": "log"}, {})
    path = tmp_path / "l2" / "nodes" / "logs.jsonl"
    path.write_bytes(path.read_bytes().replace(b'"log"', b'"lug"', 1))
    with pytest.raises(StorageError) as info:
        store.read_node_logs()
    assert str(info.value) == f"corrupt record in {path} (line 1: crc_mismatch)"


# ----------------------------------------------------------------------
# Conditioning to level 3, and the CLI
# ----------------------------------------------------------------------
def test_store_level3_refuses_a_corrupt_store_and_leaves_no_database(tmp_path):
    _fill(tmp_path / "l2")
    _corrupt_crc(_events_path(tmp_path / "l2"))
    with pytest.raises(StorageError, match="crc_mismatch"):
        store_level3(Level2Store(tmp_path / "l2"), tmp_path / "strict.db")
    assert not (tmp_path / "strict.db").exists()
    assert sorted(p.name for p in (tmp_path / "l2").iterdir()) == [
        "experiment.xml", "master", "plan.json", "runs"]


def test_condition_and_inspect_on_the_cli(tmp_path, capsys):
    from repro.cli import main

    l2, db = tmp_path / "l2", tmp_path / "x.db"
    _fill(l2)
    assert main(["inspect", str(l2)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {l2} is a directory; inspect expects a level-3 database\n"

    assert main(["condition", str(l2), str(db)]) == 0
    assert main(["inspect", str(db)]) == 0
    assert "runs: 1" in capsys.readouterr().out

    _corrupt_crc(_events_path(l2))
    assert main(["condition", str(l2), str(tmp_path / "y.db")]) == 2
    assert "(line 5: crc_mismatch)" in capsys.readouterr().err
