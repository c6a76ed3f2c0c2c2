"""Unit tests for run shipping: worker shard -> SQLite image -> coordinator shard."""

import base64
import sqlite3

import pytest

from repro.campaign.merge import SCOPE_NAME, ShardWriter, load_scope_payload
from repro.core.errors import StorageError
from repro.fabric.shipping import (
    CoordinatorShard,
    decode_payload,
    decode_scope,
    encode_payload,
    encode_scope,
    extract_run_rows,
)
from repro.storage.conditioning import condition_scope
from repro.storage.level2 import Level2Store
from repro.storage.level3 import ALL_RUN_TABLES, EXTENSION_TABLES, TABLE_SCHEMAS

DESC_XML = """<experiment name="ship" seed="1">
  <platform><actornode id="h1" address="10.0.0.1" abstract="A" /></platform>
</experiment>"""

#: Cells XML-RPC or a careless JSON codec would mangle: an integer past
#: 32 bits, a float whose shortest repr needs all 17 digits, a NULL, a BLOB.
AWKWARD_SPAN = (0, "master", (1 << 40) + 1, None, "awkward", 0.1 + 0.2, 1e-9, "ok", b"\x00\xff\x80")


@pytest.fixture
def staged(tmp_path):
    """A level-2 store with two runs and a worker shard holding both."""
    store = Level2Store(tmp_path / "l2")
    store.write_description(DESC_XML)
    store.write_plan([{"run_id": r, "treatment": {"f": r}} for r in (0, 1)])
    for run_id in (0, 1):
        base = 10.0 * run_id
        store.write_timesync(run_id, {"h1": {"offset": 0.125, "rtt": 0.001}})
        store.write_run_info(run_id, {"run_id": run_id, "start_time": base, "treatment": {}})
        events = [
            {"name": "sd_start_search", "node": "h1", "local_time": base + 0.1, "params": []},
            {"name": "sd_service_add", "node": "h1", "local_time": base + 0.7, "params": ["s"]},
        ]
        packets = [{"node": "h1", "local_time": base + 0.05, "uid": 1 << 33, "src": "10.0.0.1"}]
        store.write_run_data("h1", run_id, events, packets)
    shard = tmp_path / "worker.db"
    with ShardWriter(shard) as writer:
        writer.stage_run(store, 1)  # staged out of order on purpose
        writer.stage_run(store, 0)
        with writer.conn:
            writer.conn.execute(
                "INSERT INTO RunTraces VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                AWKWARD_SPAN,
            )
    return store, shard


def _run_rows(path, run_id):
    """Every cell of one run as ``(repr, typeof)``, tables in rowid order."""
    conn = sqlite3.connect(str(path))
    try:
        out = {}
        for table in ALL_RUN_TABLES:
            columns = {**TABLE_SCHEMAS, **EXTENSION_TABLES}[table]
            typeofs = ", ".join(f"typeof({c})" for c in columns)
            out[table] = [
                [(repr(row[i]), row[len(columns) + i]) for i in range(len(columns))]
                for row in conn.execute(
                    f"SELECT {', '.join(columns)}, {typeofs} FROM {table} "
                    "WHERE RunID = ? ORDER BY rowid",
                    (run_id,),
                )
            ]
        return out
    finally:
        conn.close()


def _ship(shard, run_id):
    """What the coordinator holds after the wire: encoded, then decoded."""
    return decode_payload(encode_payload({"image": extract_run_rows(shard, run_id)}))["image"]


def _edited(image, *statements):
    """*image* with *statements* applied — a forged or trimmed shipment."""
    conn = sqlite3.connect(":memory:", isolation_level=None)
    try:
        conn.deserialize(base64.b64decode(image))
        for statement in statements:
            conn.execute(statement)
        return base64.b64encode(conn.serialize()).decode("ascii")
    finally:
        conn.close()


def test_shipped_run_arrives_row_for_row_in_rowid_order(staged, tmp_path):
    _store, shard = staged
    landed = tmp_path / "coordinator.db"
    with CoordinatorShard(landed) as coordinator:
        for run_id in (0, 1):
            rows = sum(len(r) for r in _run_rows(shard, run_id).values())
            assert coordinator.ingest(run_id, _ship(shard, run_id)) == rows
        assert coordinator.run_ids() == [0, 1]
    for run_id in (0, 1):
        assert _run_rows(landed, run_id) == _run_rows(shard, run_id)
    awkward = _run_rows(landed, 0)["RunTraces"][-1]
    assert [r for r, _t in awkward] == [repr(cell) for cell in AWKWARD_SPAN]
    assert [t for _r, t in awkward] == [
        "integer", "text", "integer", "null", "text", "real", "real", "text", "blob",
    ]


def test_image_holds_only_the_run_tables_and_the_run(staged):
    _store, shard = staged
    conn = sqlite3.connect(":memory:")
    try:
        conn.deserialize(base64.b64decode(_ship(shard, 0)))
        schema = conn.execute("SELECT type, name FROM sqlite_master ORDER BY name").fetchall()
        assert schema == [("table", t) for t in sorted(ALL_RUN_TABLES)]  # no index
        for table in ALL_RUN_TABLES:
            assert conn.execute(f"SELECT COUNT(*) FROM {table} WHERE RunID != 0").fetchone() == (0,)
    finally:
        conn.close()


def test_second_ingest_replaces_the_run(staged, tmp_path):
    _store, shard = staged
    landed = tmp_path / "coordinator.db"
    image = _ship(shard, 0)
    with CoordinatorShard(landed) as coordinator:
        coordinator.ingest(0, image)
        coordinator.ingest(1, _ship(shard, 1))
        fewer = _edited(
            image,
            "DELETE FROM Events WHERE rowid > (SELECT MIN(rowid) FROM Events)",
            "DELETE FROM RunTraces",
        )
        coordinator.ingest(0, fewer)  # a re-shipment wins whole, not row-merged
    rows = _run_rows(landed, 0)
    assert len(rows["Events"]) == 1 and rows["RunTraces"] == []
    assert rows["Packets"] == _run_rows(shard, 0)["Packets"]
    assert _run_rows(landed, 1) == _run_rows(shard, 1)  # the other run untouched


def test_ingest_refuses_malformed_shipments(staged, tmp_path):
    _store, shard = staged
    image = _ship(shard, 0)
    with CoordinatorShard(tmp_path / "coordinator.db") as coordinator:
        with pytest.raises(StorageError, match="holds tables.*ExperimentInfo"):
            coordinator.ingest(0, _edited(image, "CREATE TABLE ExperimentInfo (ExpXML)"))
        with pytest.raises(StorageError, match="holds tables"):
            coordinator.ingest(0, _edited(image, "DROP TABLE RunInfos"))
        with pytest.raises(StorageError, match="no RunInfos rows"):
            coordinator.ingest(0, _edited(image, "DELETE FROM RunInfos"))
        with pytest.raises(StorageError, match="no RunInfos rows"):
            coordinator.ingest(0, _ship(shard, 1))  # run 1's rows shipped as run 0
        with pytest.raises(StorageError, match="no SQLite image"):
            coordinator.ingest(0, "not base64 at all!")
        assert coordinator.run_ids() == []  # nothing committed


def test_torn_image_is_refused_and_the_committed_run_stays(staged, tmp_path):
    _store, shard = staged
    landed = tmp_path / "coordinator.db"
    image = base64.b64decode(_ship(shard, 0))
    torn = base64.b64encode(image[: len(image) // 2]).decode("ascii")
    with CoordinatorShard(landed) as coordinator:
        coordinator.ingest(0, _ship(shard, 0))
        with pytest.raises(StorageError, match=r"run 0 (is no SQLite image|fails quick_check)"):
            coordinator.ingest(0, torn)
        assert coordinator.run_ids() == [0]
    assert _run_rows(landed, 0) == _run_rows(shard, 0)


def test_scope_codec_roundtrips_and_scope_file_is_read_back(staged, tmp_path):
    store, _shard = staged
    scope = condition_scope(store)
    text = encode_scope(scope)
    assert decode_scope(text) == scope
    assert encode_scope(decode_scope(text)) == text
    (tmp_path / SCOPE_NAME).write_text(text, encoding="utf-8")
    assert load_scope_payload(tmp_path / SCOPE_NAME) == scope


def test_missing_scope_file_names_the_unshipped_scope_run(tmp_path):
    with pytest.raises(StorageError, match="scope run never settled"):
        load_scope_payload(tmp_path / SCOPE_NAME)
