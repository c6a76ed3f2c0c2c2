"""Unit tests for the level-3 database (Table I) and its digest stamp."""


import pytest

from repro.core.errors import StorageError
from repro.storage.level2 import Level2Store
from repro.storage import level3
from repro.storage.level3 import (
    CHECKSUM_TABLE,
    EXTENSION_TABLES,
    TABLE_SCHEMAS,
    ExperimentDatabase,
    read_stamped_digest,
    store_level3,
)

DESC_XML = """<experiment name="t3" seed="1" comment="c">
  <platform>
    <actornode id="h1" address="10.0.0.1" abstract="A" />
    <envnode id="h2" address="10.0.0.2" />
  </platform>
</experiment>"""


@pytest.fixture
def filled_store(tmp_path):
    s = Level2Store(tmp_path / "l2")
    s.write_description(DESC_XML)
    s.write_plan([{"run_id": 0, "treatment": {"f": 1}, "replication": 0,
                   "treatment_index": 0, "seed": 7}])
    s.write_eefile("VERSION", "1.0")
    s.write_experiment_measurement("overall", {"k": 1})
    s.write_node_collections({"h1": "the log"}, {})
    s.write_timesync(0, {"h1": {"offset": 0.5, "rtt": 0.001,
                                "error_bound": 0.0005, "probes": 5}})
    s.write_run_info(0, {"run_id": 0, "start_time": 1.0, "treatment": {"f": 1}})
    s.write_run_data(
        "h1", 0,
        [{"name": "ev", "node": "h1", "local_time": 2.0, "params": ["p"],
          "run_id": 0}],
        [{"node": "h1", "local_time": 2.5, "uid": 3, "src": "10.0.0.1",
          "dst": "10.0.0.2", "direction": "tx", "payload": "'blob'"}],
    )
    s.write_extra_measurement("h1", 0, "plug", {"m": 9})
    return s


def test_schema_matches_table_one(filled_store, tmp_path):
    db_path = store_level3(filled_store, tmp_path / "x.db")
    with ExperimentDatabase(db_path) as db:
        schema = db.schema()
        # Table I verbatim, plus the integrity side tables (DESIGN.md §11)
        # and the digest-stamp table, which deliberately live outside
        # TABLE_SCHEMAS.
        assert set(schema) == (
            set(TABLE_SCHEMAS) | set(EXTENSION_TABLES) | {CHECKSUM_TABLE}
        )
        for table, attrs in TABLE_SCHEMAS.items():
            assert schema[table] == attrs, table
        for table, attrs in EXTENSION_TABLES.items():
            assert schema[table] == attrs, table


def test_experiment_info_row(filled_store, tmp_path):
    with ExperimentDatabase(store_level3(filled_store, tmp_path / "x.db")) as db:
        info = db.experiment_info()
        assert info["Name"] == "t3"
        assert info["Comment"] == "c"
        assert info["ExpXML"] == DESC_XML
        assert "excovery" in info["EEVersion"]


def test_events_conditioned_and_parsed(filled_store, tmp_path):
    with ExperimentDatabase(store_level3(filled_store, tmp_path / "x.db")) as db:
        events = db.events(run_id=0)
        assert len(events) == 1
        assert events[0]["name"] == "ev"
        assert events[0]["params"] == ["p"]
        assert events[0]["common_time"] == pytest.approx(1.5)  # 2.0 - 0.5


def test_packets_src_resolved_to_node(filled_store, tmp_path):
    with ExperimentDatabase(store_level3(filled_store, tmp_path / "x.db")) as db:
        packets = db.packets(run_id=0)
        assert packets[0]["src_node"] == "h1"  # 10.0.0.1 -> h1 via platform


def test_run_infos_carry_timediff(filled_store, tmp_path):
    with ExperimentDatabase(store_level3(filled_store, tmp_path / "x.db")) as db:
        rows = db.run_infos(0)
        by_node = {r["NodeID"]: r for r in rows}
        assert by_node["h1"]["TimeDiff"] == 0.5
        assert by_node["master"]["TimeDiff"] == 0.0
        assert by_node["h1"]["StartTime"] == 1.0


def test_plan_and_extras_stored(filled_store, tmp_path):
    with ExperimentDatabase(store_level3(filled_store, tmp_path / "x.db")) as db:
        assert db.plan()[0]["seed"] == 7
        extras = db.extra_measurements(0)
        assert extras["h1"]["plug"] == {"m": 9}
        counts = db.row_counts()
        assert counts["Logs"] == 1
        assert counts["ExperimentMeasurements"] == 1


def test_refuses_overwrite(filled_store, tmp_path):
    store_level3(filled_store, tmp_path / "x.db")
    with pytest.raises(StorageError):
        store_level3(filled_store, tmp_path / "x.db")


def test_rejects_wrong_source_type(tmp_path):
    with pytest.raises(StorageError):
        store_level3({"not": "a store"}, tmp_path / "y.db")


def test_event_pair_latencies(tmp_path):
    s = Level2Store(tmp_path / "l2x")
    s.write_description(DESC_XML)
    s.write_plan([])
    for run_id, (t_start, t_end) in enumerate([(1.0, 1.4), (2.0, None)]):
        s.write_timesync(run_id, {})
        s.write_run_info(run_id, {"run_id": run_id, "start_time": 0.0,
                                  "treatment": {}})
        events = [{"name": "op_start", "node": "h1", "local_time": t_start,
                   "params": [], "run_id": run_id}]
        if t_end is not None:
            events.append({"name": "op_done", "node": "h1",
                           "local_time": t_end, "params": [], "run_id": run_id})
        s.write_run_data("h1", run_id, events, [])
    with ExperimentDatabase(store_level3(s, tmp_path / "pair.db")) as db:
        rows = db.event_pair_latencies("op_start", "op_done")
        assert len(rows) == 2
        assert rows[0]["latency"] == pytest.approx(0.4)
        assert rows[1]["latency"] is None
        # End-before-start never matches.
        assert db.event_pair_latencies("op_done", "op_start")[0]["latency"] is None
        # Node filter applies.
        assert db.event_pair_latencies("op_start", "op_done", node_id="ghost") == []


def test_event_pair_latencies_single_pass_per_run_false(tmp_path):
    s = Level2Store(tmp_path / "l2y")
    s.write_description(DESC_XML)
    s.write_plan([])
    for run_id in (0, 1):
        s.write_timesync(run_id, {})
        s.write_run_info(run_id, {"run_id": run_id, "start_time": 0.0,
                                  "treatment": {}})
        s.write_run_data("h1", run_id, [
            {"name": "op_start", "node": "h1", "local_time": 1.0 + run_id,
             "params": [], "run_id": run_id},
            {"name": "op_done", "node": "h1", "local_time": 1.5 + run_id,
             "params": [], "run_id": run_id},
        ], [])
    with ExperimentDatabase(store_level3(s, tmp_path / "flat.db")) as db:
        rows = db.event_pair_latencies("op_start", "op_done", per_run=False)
        # One global scan: first start (run 0) to first subsequent done.
        assert rows == [{"run_id": None, "start": 1.0, "end": 1.5,
                         "latency": pytest.approx(0.5)}]


def test_iter_events_and_iter_packets_stream(filled_store, tmp_path, monkeypatch):
    monkeypatch.setattr(level3, "_CHUNK_ROWS", 1)
    with ExperimentDatabase(store_level3(filled_store, tmp_path / "x.db")) as db:
        it = db.iter_events(run_id=0)
        assert next(it)["name"] == "ev"
        assert list(it) == []
        assert list(db.iter_events(event_type="ghost")) == []
        # Streaming readers return the same records as the list APIs.
        assert list(db.iter_events()) == db.events()
        assert list(db.iter_packets()) == db.packets()


def test_store_level3_streams_runs_lazily(filled_store, tmp_path, monkeypatch):
    """The Level2Store path must not materialize every run at once."""
    import repro.storage.level3 as level3

    seen = []

    def tracking_iter(store):
        from repro.storage.conditioning import condition_run
        for run_id in store.run_ids():
            seen.append(run_id)
            yield condition_run(store, run_id)

    monkeypatch.setattr(level3, "iter_conditioned_runs", tracking_iter)
    db_path = level3.store_level3(filled_store, tmp_path / "lazy.db")
    assert seen == [0]
    with ExperimentDatabase(db_path) as db:
        assert db.row_counts()["Events"] == 1


def test_open_missing_database(tmp_path):
    with pytest.raises(StorageError):
        ExperimentDatabase(tmp_path / "missing.db")


# ----------------------------------------------------------------------
# Digest stamping (PackageChecksums)
# ----------------------------------------------------------------------
def test_store_level3_stamps_table1_digest(filled_store, tmp_path):
    from repro.campaign.merge import database_digest

    db_path = store_level3(filled_store, tmp_path / "x.db")
    assert read_stamped_digest(db_path) == database_digest(db_path)


def test_content_fingerprint_trusts_stamp_unless_told_not_to(
    filled_store, tmp_path
):
    import sqlite3

    from repro.campaign.merge import database_digest
    from repro.repo.fingerprint import content_fingerprint

    db_path = store_level3(filled_store, tmp_path / "x.db")
    true_digest = database_digest(db_path)
    # Tamper with the stamp: the trusted path believes it (that is the
    # O(1) contract), the verification path recomputes.
    with sqlite3.connect(db_path) as conn:
        conn.execute(
            f"UPDATE {CHECKSUM_TABLE} SET Value = 'bogus'"
        )
        conn.commit()
    assert content_fingerprint(db_path) == "bogus"
    assert content_fingerprint(db_path, trusted=False) == true_digest


def test_content_fingerprint_falls_back_without_stamp(filled_store, tmp_path):
    import sqlite3

    from repro.campaign.merge import database_digest
    from repro.repo.fingerprint import content_fingerprint

    db_path = store_level3(filled_store, tmp_path / "x.db")
    # Pre-stamp package: drop the table entirely, as an old writer's
    # output would look.
    with sqlite3.connect(db_path) as conn:
        conn.execute(f"DROP TABLE {CHECKSUM_TABLE}")
        conn.commit()
    assert read_stamped_digest(db_path) is None
    assert content_fingerprint(db_path) == database_digest(db_path)


def test_stamp_survives_and_tracks_abort_annotation(filled_store, tmp_path):
    from repro.campaign.merge import apply_abort_reasons, database_digest

    db_path = store_level3(filled_store, tmp_path / "x.db")
    before = read_stamped_digest(db_path)
    # Annotation rewrites RunInfos (a digested table): the stamp must be
    # refreshed to the post-annotation digest, not left stale.
    assert apply_abort_reasons(db_path, {0: "node lost"}) > 0
    after = read_stamped_digest(db_path)
    assert after != before
    assert after == database_digest(db_path)


def test_digest_pages_by_rowid_without_a_sorter(filled_store, tmp_path):
    """Every query the digest runs is an integer-primary-key search: no
    ``TEMP B-TREE`` (GROUP BY / ORDER BY sorter) for any table."""
    import sqlite3

    db_path = store_level3(filled_store, tmp_path / "x.db")
    conn = sqlite3.connect(db_path)
    queries = []

    class Recording:  # the digest's view of the connection
        def execute(self, sql, params=()):
            queries.append((sql, params))
            return conn.execute(sql, params)

    level3._table1_digest(Recording())
    assert {t for t in TABLE_SCHEMAS if any(f"main.{t} " in q for q, _ in queries)} == set(
        TABLE_SCHEMAS
    )
    for query, params in queries:
        plan = " / ".join(row[3] for row in conn.execute("EXPLAIN QUERY PLAN " + query, params))
        assert "TEMP B-TREE" not in plan, plan
        assert "USING INTEGER PRIMARY KEY (rowid>?)" in plan, plan
    conn.close()


def test_digest_readers_never_create_a_file(tmp_path):
    from repro.campaign.merge import database_digest

    missing = tmp_path / "missing.db"
    for reader in (database_digest, read_stamped_digest):
        with pytest.raises(StorageError, match=f"no database at {missing}"):
            reader(missing)
    assert not missing.exists()
