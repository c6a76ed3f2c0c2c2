"""``Level2Store.node_ids()`` reuses the run-stream reads the level-3
writers make anyway; the experiment scope's node list must still be exactly
what a fresh scan of the store names, wherever a node is named.  A store
with a corrupt frame has no scope: conditioning and staging refuse it."""

import json
import sqlite3
import zlib

import pytest

from repro.campaign import run_campaign
from repro.campaign.merge import SCOPE_NAME, ShardWriter, shard_has_run
from repro.core.errors import StorageError
from repro.durable import frame
from repro.sd.processlib import build_two_party_description
from repro.storage.conditioning import condition_scope, decode_scope, encode_scope
from repro.storage.level2 import Level2Store, encode_block
from repro.storage.level3 import store_level3

from tests.conftest import staging_store

DESC_XML = """<experiment name="nodes" seed="1">
  <platform>
    <actornode id="h1" address="10.0.0.1" abstract="A" />
  </platform>
</experiment>"""


def _store(root):
    store = Level2Store(root)
    store.write_description(DESC_XML)
    store.write_plan([])
    store.write_timesync(0, {})
    store.write_run_info(0, {"run_id": 0, "start_time": 0.0, "treatment": {}})
    store.write_run_data("h1", 0, [{"name": "e", "node": "h1", "local_time": 1.0}], [])
    return store


def _append_frame(store, stream, line: bytes):
    with open(store.root / "runs" / "0" / stream, "ab") as fh:
        fh.write(line + b"\n")


def _marker(store):
    with store.run_writer(0) as writer:
        writer.add_packets("n-marker", [])


def _log(store):
    store.write_node_collections({"n-log": "log text"}, {})


def _experiment_events(store):
    store.write_node_collections({}, {"n-xev": encode_block([{"name": "x"}])})


def _extra(store):
    store.write_extra_measurement("n-extra", 0, "plugin", {"v": 1})


def _empty_extra(store):
    (store.root / "runs" / "0" / "extra" / "n-bare").mkdir(parents=True)


def _trace(store):
    with store.run_writer(0) as writer:
        writer.add_traces("n-trace", [{"run_id": 0, "span_id": 1, "name": "s"}])


def _other_stream(store):
    """A packed file in the run directory that no writer reads."""
    _append_frame(store, "other.jsonl", frame("n-other", "{}"))


def _bad_json(store):
    """An intact frame whose JSON does not parse: its node is named."""
    _append_frame(store, "events.jsonl", frame("n-badjson", "{"))


def _crc_mismatch(store):
    """A frame whose CRC fails: its node is not named."""
    head = b'n-flipped\t{"a": 1}'
    _append_frame(store, "events.jsonl", head + b"\t%08x" % (zlib.crc32(head) ^ 1))


def _undecodable_key(store):
    """An intact frame whose node key is not UTF-8."""
    head = b"\xff\t{}"
    _append_frame(store, "traces.jsonl", head + b"\t%08x" % zlib.crc32(head))


CLEAN = [_marker, _log, _experiment_events, _extra, _empty_extra, _trace, _other_stream]
CORRUPT = [_bad_json, _crc_mismatch, _undecodable_key]


def _logs_rows(db_path):
    conn = sqlite3.connect(str(db_path))
    try:
        return [row[0] for row in conn.execute("SELECT NodeID FROM Logs ORDER BY rowid")]
    finally:
        conn.close()


@pytest.mark.parametrize("shape", CLEAN + CORRUPT, ids=lambda f: f.__name__.strip("_"))
def test_scope_lists_exactly_the_node_ids(tmp_path, shape):
    shape(_store(tmp_path / "l2"))
    expected = Level2Store(tmp_path / "l2").node_ids()
    assert len(expected) == (2 if shape is not _crc_mismatch else 1)

    if shape in CORRUPT:
        with pytest.raises(StorageError, match="bad_json|crc_mismatch"):
            store_level3(Level2Store(tmp_path / "l2"), tmp_path / "x.db")
        with ShardWriter(tmp_path / "w0.db") as shard, pytest.raises(StorageError):
            shard.stage_run(Level2Store(tmp_path / "l2"), 0)
        assert not (tmp_path / "x.db").exists()
        assert not shard_has_run(tmp_path / "w0.db", 0)
        return

    db_path = store_level3(Level2Store(tmp_path / "l2"), tmp_path / "x.db")
    assert _logs_rows(db_path) == expected

    # The plan's first run of a campaign: stage it, then condition the scope.
    store = Level2Store(tmp_path / "l2")
    with ShardWriter(tmp_path / "w0.db") as shard:
        shard.stage_run(store, 0)
    scope = decode_scope(encode_scope(condition_scope(store)))
    assert list(scope.node_logs) == expected
    assert store.node_ids() == expected


def test_a_stream_appended_after_its_read_is_scanned_again(tmp_path):
    store = _store(tmp_path / "l2")
    store.read_run_stream(0, "events.jsonl")
    assert store.node_ids() == ["h1"]
    _append_frame(store, "events.jsonl", frame("n-late", "{}"))
    assert store.node_ids() == ["h1", "n-late"]


def test_campaign_scope_json_lists_the_staging_node_ids(tmp_path):
    desc = build_two_party_description(name="scope", seed=5, replications=1, env_count=1)
    run_campaign(desc, tmp_path / "c", tmp_path / "c.db")
    scope = json.loads((tmp_path / "c" / SCOPE_NAME).read_text(encoding="utf-8"))
    assert list(scope["node_logs"]) == staging_store(tmp_path / "c", 0).node_ids()
