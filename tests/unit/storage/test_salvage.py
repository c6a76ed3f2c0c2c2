"""Unit tests for CRC-framed run streams and salvage-mode conditioning."""

import json
import zlib

import pytest

from repro.core.errors import StorageError
from repro.storage.conditioning import condition_experiment
from repro.durable import frame
from repro.storage.level2 import Level2Store
from repro.storage.level3 import ExperimentDatabase, store_level3

DESC_XML = """<experiment name="salv" seed="1" comment="c">
  <platform>
    <actornode id="h1" address="10.0.0.1" abstract="A" />
    <envnode id="h2" address="10.0.0.2" />
  </platform>
</experiment>"""


def _event(i, run_id=0, node="h1"):
    return {"name": f"ev{i}", "node": node, "local_time": float(i),
            "params": [], "run_id": run_id}


def _fill(root, salvage=False, events=5):
    store = Level2Store(root, salvage=salvage)
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
    with pytest.raises(StorageError, match="truncated"):
        store.read_run_stream(0, "events.jsonl")["h1"]


# ----------------------------------------------------------------------
# Corruption without --salvage: hard fail, pointing at the flag
# ----------------------------------------------------------------------
def test_crc_mismatch_fails_without_salvage(tmp_path):
    store = _fill(tmp_path / "l2")
    _corrupt_crc(_events_path(tmp_path / "l2"))
    with pytest.raises(StorageError, match="--salvage"):
        store.read_run_stream(0, "events.jsonl")["h1"]


def test_truncated_tail_fails_without_salvage(tmp_path):
    store = _fill(tmp_path / "l2")
    path = _events_path(tmp_path / "l2")
    data = path.read_bytes()
    path.write_bytes(data[:-5])  # cuts into the 8-hex CRC suffix
    with pytest.raises(StorageError, match="truncated"):
        store.read_run_stream(0, "events.jsonl")["h1"]


# ----------------------------------------------------------------------
# Salvage mode: quarantine and carry on
# ----------------------------------------------------------------------
def test_salvage_quarantines_crc_mismatch(tmp_path):
    store = _fill(tmp_path / "l2", salvage=True)
    _corrupt_crc(_events_path(tmp_path / "l2"))
    events = store.read_run_stream(0, "events.jsonl")["h1"]
    assert [e["name"] for e in events] == ["ev0", "ev1", "ev2", "ev3"]
    records = store.salvage_records()
    assert records == [{"run_id": 0, "node": "h1", "stream": "events.jsonl",
                        "kept": 4, "dropped": 1, "reason": "crc_mismatch"}]
    sidecar = tmp_path / "l2" / "quarantine" / "runs" / "0" / "events.jsonl"
    quarantined = [json.loads(ln) for ln in
                   sidecar.read_text(encoding="utf-8").splitlines()]
    assert len(quarantined) == 1
    assert quarantined[0]["reason"] == "crc_mismatch"
    assert quarantined[0]["node"] == "h1"
    assert '"local_time": 9.0' in quarantined[0]["raw"]


def test_salvage_classifies_bad_json(tmp_path):
    store = _fill(tmp_path / "l2", salvage=True)
    path = _events_path(tmp_path / "l2")
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(frame("h1", "{not json at all").decode() + "\n")  # CRC itself is valid
    store.read_run_stream(0, "events.jsonl")["h1"]
    assert store.salvage_records()[0]["reason"] == "bad_json"


def test_salvage_report_written_and_probe_nonmutating(tmp_path):
    store = _fill(tmp_path / "l2", salvage=True)
    _corrupt_crc(_events_path(tmp_path / "l2"))

    store.read_run_stream(0, "events.jsonl")["h1"]
    report_path = store.write_salvage_report()
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["total_kept"] == 4
    assert report["total_dropped"] == 1
    assert report["records"][0]["stream"] == "events.jsonl"
    # Nothing salvaged -> no report.
    assert Level2Store(tmp_path / "l2", salvage=True).write_salvage_report() is None


def test_clean_store_probe_and_records_empty(tmp_path):
    store = _fill(tmp_path / "l2", salvage=True)
    assert store.read_run_stream(0, "events.jsonl")["h1"]
    assert store.salvage_records() == []


# ----------------------------------------------------------------------
# Conditioning and level 3
# ----------------------------------------------------------------------
def test_store_level3_salvage_path_records_salvage_info(tmp_path):
    _fill(tmp_path / "l2")
    _corrupt_crc(_events_path(tmp_path / "l2"))

    with pytest.raises(StorageError, match="--salvage"):
        store_level3(Level2Store(tmp_path / "l2"), tmp_path / "strict.db")

    salvaging = Level2Store(tmp_path / "l2", salvage=True)
    db_path = store_level3(salvaging, tmp_path / "salvaged.db")
    with ExperimentDatabase(db_path) as db:
        rows = db.salvage_info()
        assert len(rows) == 1
        assert rows[0]["RunID"] == 0
        assert rows[0]["NodeID"] == "h1"
        assert rows[0]["RecordsKept"] == 4
        assert rows[0]["RecordsDropped"] == 1
        assert rows[0]["Reason"] == "crc_mismatch"
        assert db.row_counts()["Events"] == 4
    # store_level3 also summarized the quarantine on the way out.
    assert (tmp_path / "l2" / "quarantine" / "salvage_report.json").exists()


def _corrupt_trace(root):
    """A 1-run store whose last ``traces.jsonl`` frame fails its CRC."""
    store = _fill(root)
    with store.run_writer(0) as writer:
        writer.add_traces("master", [{"run_id": 0, "span_id": 1, "name": "run"},
                                     {"run_id": 0, "span_id": 2, "name": "exit"}])
    path = root / "runs" / "0" / "traces.jsonl"
    path.write_bytes(path.read_bytes().replace(b'"exit"', b'"exiT"'))


def test_store_level3_records_salvaged_trace_frames(tmp_path):
    _corrupt_trace(tmp_path / "l2")
    db_path = store_level3(Level2Store(tmp_path / "l2", salvage=True), tmp_path / "s.db")
    with ExperimentDatabase(db_path) as db:
        assert [
            (r["NodeID"], r["Stream"], r["RecordsKept"], r["RecordsDropped"], r["Reason"])
            for r in db.salvage_info()
        ] == [("master", "traces.jsonl", 1, 1, "crc_mismatch")]
        assert [span["name"] for span in db.run_traces()] == ["run"]
    report = json.loads((tmp_path / "l2" / "quarantine" / "salvage_report.json")
                        .read_text(encoding="utf-8"))
    assert report["total_dropped"] == 1


def test_condition_experiment_carries_salvage_records(tmp_path):
    _fill(tmp_path / "l2")
    _corrupt_crc(_events_path(tmp_path / "l2"))
    data = condition_experiment(Level2Store(tmp_path / "l2", salvage=True))
    assert [r["reason"] for r in data.salvage_records] == ["crc_mismatch"]
    clean = condition_experiment(_fill(tmp_path / "clean"))
    assert clean.salvage_records == []


# ----------------------------------------------------------------------
# `repro inspect --salvage`: the quarantine seen from the CLI
# ----------------------------------------------------------------------
def test_inspect_salvage_on_a_level2_directory_and_a_database(tmp_path, capsys):
    from repro.cli import main

    l2, db = tmp_path / "l2", tmp_path / "salvaged.db"
    _fill(l2)
    _corrupt_crc(_events_path(l2))
    assert main(["inspect", str(l2)]) == 2  # a directory needs --salvage
    assert main(["inspect", str(l2), "--salvage"]) == 0
    assert "salvage reports: 0" in capsys.readouterr().out

    assert main(["condition", str(l2), str(db), "--salvage"]) == 0
    capsys.readouterr()
    assert main(["inspect", str(l2), "--salvage"]) == 0
    out = capsys.readouterr().out
    assert "total kept: 4  total dropped: 1" in out
    assert "run 0 node h1 events.jsonl: kept 4, dropped 1 (crc_mismatch)" in out
    assert "salvage reports: 1" in out

    assert main(["inspect", str(db), "--salvage"]) == 0
    out = capsys.readouterr().out
    assert "salvage run 0 node h1 events.jsonl: kept 4, dropped 1 (crc_mismatch)" in out
    assert "salvage records: 1" in out
