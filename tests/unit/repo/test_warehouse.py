"""The warehouse façade: ingest, dedup, read models, recovery, queue."""

import sqlite3

import pytest

from repro.core.errors import StorageError
from repro.repo import (
    IngestJournal,
    Warehouse,
    WriteBehindIngester,
    fingerprint_package,
)
from repro.storage.level3 import ExperimentDatabase


@pytest.fixture
def warehouse(tmp_path):
    wh = Warehouse(tmp_path / "wh")
    yield wh
    wh.close()


# ----------------------------------------------------------------------
# Ingest + dedup
# ----------------------------------------------------------------------
def test_ingest_dedup_and_force(warehouse, make_level3):
    db = make_level3("alpha")
    first = warehouse.ingest(db)
    assert not first.duplicate

    again = warehouse.ingest(db)
    assert again.duplicate and again.exp_id == first.exp_id

    forced = warehouse.ingest(db, force=True)
    assert not forced.duplicate and forced.exp_id != first.exp_id
    assert len(warehouse.experiments()) == 2


def test_batch_ingest_dedups_within_batch(warehouse, make_level3, tmp_path):
    db = make_level3("alpha")
    import shutil
    copy = tmp_path / "copy.db"
    shutil.copy(db, copy)
    results = warehouse.ingest_many([db, copy])
    assert not results[0].duplicate
    assert results[1].duplicate and results[1].exp_id == results[0].exp_id


def test_same_factor_space_shares_partition(warehouse, make_level3):
    db_a = make_level3("alpha")
    db_b = make_level3("alpha-more", name="alpha", t0=50.0)
    db_c = make_level3("alpha-wide", name="alpha", factor_levels=(0, 1, 2),
                       n_runs=3)
    ra, rb, rc = (warehouse.ingest(d) for d in (db_a, db_b, db_c))
    assert ra.partition_id == rb.partition_id
    assert rc.partition_id != ra.partition_id


# ----------------------------------------------------------------------
# Read models
# ----------------------------------------------------------------------
def test_materialized_models_refresh_on_ingest(warehouse, make_level3):
    db = make_level3("alpha", n_runs=4)
    exp_id = warehouse.ingest(db).exp_id

    stats = warehouse.stats(exp_id)
    assert stats["Runs"] == 4 and stats["Packets"] == 4

    counts = {r["event_type"]: r["n"]
              for r in warehouse.event_counts(exp_id=exp_id)}
    assert counts["sd_service_add"] == 4
    assert counts["fault_pl_run"] == 4

    faults = warehouse.fault_breakdown(exp_id=exp_id)
    assert [(f["kind"], f["phase"], f["n"]) for f in faults] == [("pl", "run", 4)]

    surface = warehouse.responsiveness_surface(exp_id=exp_id)
    assert len(surface) == 2  # two factor levels
    assert all(row["runs"] == 2 and row["complete"] == 2 for row in surface)


def test_responsiveness_model_matches_canonical_analysis(
    warehouse, make_level3
):
    from repro.analysis.responsiveness import responsiveness_by_treatment

    db = make_level3("alpha", n_runs=6, factor_levels=(0, 1, 2))
    exp_id = warehouse.ingest(db).exp_id
    with ExperimentDatabase(db) as level3:
        canonical = responsiveness_by_treatment(level3, deadlines=[1.0])
    surface = warehouse.responsiveness_surface(exp_id=exp_id)
    assert len(surface) == len(canonical)
    for canon, row in zip(canonical, surface):
        assert row["runs"] == canon["summary"]["runs"]
        assert row["complete"] == canon["summary"]["complete"]
        assert row["t_r_median"] == canon["summary"]["t_r_median"]
        assert row["t_r_mean"] == canon["summary"]["t_r_mean"]


def test_trend_orders_by_ingest_sequence(warehouse, make_level3):
    first = make_level3("alpha")
    second = make_level3("beta", t0=30.0)
    warehouse.ingest(first)
    warehouse.ingest(second)
    trend = warehouse.trend("sd_service_add")
    assert [row["name"] for row in trend] == ["alpha", "beta"]
    assert trend[0]["ingest_seq"] < trend[1]["ingest_seq"]


def test_cache_invalidated_by_ingest(warehouse, make_level3):
    warehouse.ingest(make_level3("alpha"))
    warehouse.trend("sd_service_add")
    warehouse.trend("sd_service_add")
    assert warehouse.cache.hits >= 1
    generation = warehouse.cache.generation
    warehouse.ingest(make_level3("beta", t0=30.0))
    assert warehouse.cache.generation > generation
    assert len(warehouse.trend("sd_service_add")) == 2  # recomputed


def test_shard_view_matches_level3_reader(warehouse, make_level3):
    db = make_level3("alpha", n_runs=3)
    exp_id = warehouse.ingest(db).exp_id
    view = warehouse.view(exp_id)
    with ExperimentDatabase(db) as level3:
        assert view.events() == level3.events()
        assert view.packets() == level3.packets()
        assert view.run_ids() == level3.run_ids()
        assert view.node_ids() == level3.node_ids()
        assert view.plan() == level3.plan()


def test_closing_a_view_leaves_the_shard_connection_to_the_warehouse(
    warehouse, make_level3
):
    db = make_level3("alpha", n_runs=3)
    exp_id = warehouse.ingest(db).exp_id
    with warehouse.view(exp_id) as view:
        assert view.run_ids() == [0, 1, 2]
    # The reader borrowed the warehouse's shard connection: still open.
    assert warehouse.run_ids(exp_id) == [0, 1, 2]
    assert len(warehouse.events(exp_id, event_type="sd_service_add")) == 3
    # A slice carries Table I only; the side-table readers say "nothing".
    assert view.run_traces() == []
    assert view.abort_reasons() == {}


def test_failed_detach_is_counted_not_raised(warehouse, make_level3):
    from repro.obs.metrics import MetricsRegistry, set_registry
    from repro.repo.shard import copy_batch_into_shard

    db = make_level3("alpha")
    key = fingerprint_package(db)
    pid, _ = warehouse.catalog.get_or_create_partition(
        key.name, key.factor_fingerprint)
    shard = warehouse._shard(pid)

    class DetachFails:
        def execute(self, sql, *args):
            if sql.startswith("DETACH"):
                raise sqlite3.OperationalError("database src0 is locked")
            return shard.execute(sql, *args)

    registry = MetricsRegistry()
    set_registry(registry)
    try:
        copy_batch_into_shard(DetachFails(), [(7, db)])
        suppressed = registry.counter(
            "repro_suppressed_errors_total", labels=("site",))
        assert suppressed.value(site="shard_detach") == 1
    finally:
        set_registry(None)
        shard.execute("DETACH DATABASE src0")
    with ExperimentDatabase(db) as level3:
        copied = ExperimentDatabase.over_shard(shard, 7)
        assert copied.events() == level3.events()  # the copy itself stood


def test_resolve_by_id_and_name(warehouse, make_level3):
    exp_id = warehouse.ingest(make_level3("alpha")).exp_id
    assert warehouse.resolve(exp_id) == exp_id
    assert warehouse.resolve(str(exp_id)) == exp_id
    assert warehouse.resolve("alpha") == exp_id
    with pytest.raises(StorageError):
        warehouse.resolve("ghost")
    with pytest.raises(StorageError):
        warehouse.resolve(999)


# ----------------------------------------------------------------------
# Diff + regression check
# ----------------------------------------------------------------------
def test_diff_identical_and_divergent(warehouse, make_level3):
    db_a = make_level3("alpha")
    db_b = make_level3("alpha-twin", name="alpha")  # same content
    db_c = make_level3("beta", n_runs=4, extra_events=("custom",))
    a = warehouse.ingest(db_a).exp_id
    b = warehouse.ingest(db_b, force=True).exp_id
    c = warehouse.ingest(db_c).exp_id

    twin = warehouse.diff(a, b)
    assert twin["identical"]

    divergent = warehouse.diff(a, c)
    assert not divergent["identical"]
    assert divergent["stats"]["Runs"] == (2, 4)
    assert "custom" in divergent["event_counts"]


def test_regression_check_passes_on_identical_package(
    warehouse, make_level3
):
    db = make_level3("alpha")
    warehouse.ingest(db)
    verdict = warehouse.regression_check(db)
    assert verdict["ok"] and verdict["digest_match"]


def test_regression_check_flags_perturbed_digest(
    warehouse, make_level3, tmp_path
):
    db = make_level3("alpha")
    warehouse.ingest(db)
    import shutil
    perturbed = tmp_path / "perturbed.db"
    shutil.copy(db, perturbed)
    with sqlite3.connect(perturbed) as conn:
        conn.execute(
            "UPDATE Events SET CommonTime = CommonTime + 5.0 "
            "WHERE EventType = 'sd_service_add'"
        )
        conn.commit()
    verdict = warehouse.regression_check(perturbed, baseline="alpha")
    assert not verdict["ok"] and not verdict["digest_match"]
    drifted = [c for c in verdict["checks"]
               if c["check"].startswith("responsiveness") and not c["ok"]]
    assert drifted


def test_regression_check_tolerance_and_strict(
    warehouse, make_level3, tmp_path
):
    db = make_level3("alpha")
    warehouse.ingest(db)
    import shutil
    shifted = tmp_path / "shifted.db"
    shutil.copy(db, shifted)
    with sqlite3.connect(shifted) as conn:
        # Shift whole runs: digest changes, responsiveness intervals don't.
        conn.execute("UPDATE Events SET CommonTime = CommonTime + 100.0")
        conn.execute("UPDATE Packets SET CommonTime = CommonTime + 100.0")
        conn.commit()
    tolerant = warehouse.regression_check(shifted, baseline="alpha",
                                          tolerance=1e-9)
    assert tolerant["ok"] and not tolerant["digest_match"]
    # The default tolerance of 0 is the strict verdict: digest drift fails.
    strict = warehouse.regression_check(shifted, baseline="alpha")
    assert not strict["ok"]


def test_regression_check_digest_only_drift_needs_explicit_tolerance(
    warehouse, make_level3, tmp_path
):
    """Content perturbed outside every aggregate still fails by default:
    digest drift passes only when --tol opts into aggregate-equivalence."""
    db = make_level3("alpha")
    warehouse.ingest(db)
    import shutil
    perturbed = tmp_path / "sneaky.db"
    shutil.copy(db, perturbed)
    with sqlite3.connect(perturbed) as conn:
        conn.execute(
            "UPDATE Events SET Parameter = '[\"tampered\"]' "
            "WHERE EventType NOT LIKE 'sd_%' AND rowid = "
            "(SELECT MIN(rowid) FROM Events WHERE EventType NOT LIKE 'sd_%')"
        )
        conn.commit()
    verdict = warehouse.regression_check(perturbed, baseline="alpha")
    assert not verdict["ok"] and not verdict["digest_match"]
    aggregates = [c for c in verdict["checks"] if c["check"] != "table1_digest"]
    assert aggregates and all(c["ok"] for c in aggregates)
    tolerant = warehouse.regression_check(
        perturbed, baseline="alpha", tolerance=1e-9
    )
    assert tolerant["ok"] and not tolerant["digest_match"]


def test_regression_check_flags_missing_runs(warehouse, make_level3, tmp_path):
    db = make_level3("alpha", n_runs=4)
    warehouse.ingest(db)
    import shutil
    truncated = tmp_path / "truncated.db"
    shutil.copy(db, truncated)
    with sqlite3.connect(truncated) as conn:
        for table in ("Events", "Packets", "RunInfos"):
            conn.execute(f"DELETE FROM {table} WHERE RunID >= 2")
        conn.commit()
    verdict = warehouse.regression_check(truncated, baseline="alpha")
    assert not verdict["ok"]
    by_name = {c["check"]: c for c in verdict["checks"]}
    assert not by_name["run_count"]["ok"]


# ----------------------------------------------------------------------
# Crash recovery
# ----------------------------------------------------------------------
def test_recovery_reingests_journaled_but_uncatalogued(tmp_path, make_level3):
    db = make_level3("alpha")
    root = tmp_path / "wh"
    Warehouse(root).close()

    journal = IngestJournal(root)
    ticket = journal.next_ticket()
    journal.append_many([journal.begin_record(ticket, db,
                                              fingerprint_package(db))])
    with Warehouse(root) as warehouse:
        assert len(warehouse.last_recovery["reingested"]) == 1
        assert len(warehouse.experiments()) == 1
        assert warehouse.journal.incomplete() == []
    # Idempotent: a second recovery changes nothing.
    with Warehouse(root) as warehouse:
        assert all(not v for v in warehouse.last_recovery.values())
        assert len(warehouse.experiments()) == 1


def test_recovery_completes_pending_with_partial_shard(tmp_path, make_level3):
    db = make_level3("alpha")
    root = tmp_path / "wh"
    warehouse = Warehouse(root)
    key = fingerprint_package(db)
    pid, _ = warehouse.catalog.get_or_create_partition(
        key.name, key.factor_fingerprint)
    exp_id = warehouse.catalog.insert_pending(
        pid, key, db, warehouse.catalog.next_ingest_seq())
    warehouse.catalog.conn.commit()
    shard = warehouse._shard(pid)
    shard.execute(
        "INSERT INTO Events (ExpID, RunID, NodeID, CommonTime, EventType, "
        "Parameter) VALUES (?, 0, 'h1', 0.0, 'partial_garbage', '[]')",
        (exp_id,))
    shard.commit()
    warehouse.close()

    with Warehouse(root) as recovered:
        assert recovered.last_recovery["completed"] == [exp_id]
        events = recovered.view(exp_id).events()
        assert all(e["name"] != "partial_garbage" for e in events)
        with ExperimentDatabase(db) as level3:
            assert events == level3.events()


def test_recovery_purges_pending_with_missing_source(tmp_path, make_level3):
    db = make_level3("alpha")
    root = tmp_path / "wh"
    warehouse = Warehouse(root)
    key = fingerprint_package(db)
    pid, _ = warehouse.catalog.get_or_create_partition(
        key.name, key.factor_fingerprint)
    warehouse.catalog.insert_pending(
        pid, key, tmp_path / "vanished.db", warehouse.catalog.next_ingest_seq())
    warehouse.catalog.conn.commit()
    warehouse.close()

    with Warehouse(root) as recovered:
        assert len(recovered.last_recovery["purged"]) == 1
        assert recovered.experiments() == []


def test_recovery_confirms_completed_but_unclosed_ticket(
    tmp_path, make_level3
):
    db = make_level3("alpha")
    root = tmp_path / "wh"
    with Warehouse(root) as warehouse:
        exp_id = warehouse.ingest(db).exp_id
    # Simulate a crash after catalogue commit but before the journal's
    # done record: append a dangling begin for the same content.
    journal = IngestJournal(root)
    ticket = journal.next_ticket()
    journal.append_many([journal.begin_record(ticket, db,
                                              fingerprint_package(db))])
    with Warehouse(root) as recovered:
        assert recovered.last_recovery["confirmed"] == [exp_id]
        assert len(recovered.experiments()) == 1
        assert recovered.journal.incomplete() == []


# ----------------------------------------------------------------------
# Write-behind queue
# ----------------------------------------------------------------------
def test_queue_returns_results_in_submission_order(warehouse, make_level3):
    dbs = [make_level3(f"exp-{i}", t0=1.0 + 20.0 * i) for i in range(5)]
    with WriteBehindIngester(warehouse, batch_size=3) as queue:
        for db in dbs:
            queue.submit(db)
        results = queue.flush()
    assert [r.source for r in results] == [str(db) for db in dbs]
    assert len({r.exp_id for r in results}) == 5
    assert len(warehouse.experiments()) == 5


def test_queue_dedups_against_catalogue(warehouse, make_level3):
    db = make_level3("alpha")
    warehouse.ingest(db)
    with WriteBehindIngester(warehouse) as queue:
        queue.submit(db)
        results = queue.flush()
    assert results[0].duplicate


def test_queue_isolates_corrupt_package(warehouse, make_level3, tmp_path):
    good = make_level3("alpha")
    bad = tmp_path / "corrupt.db"
    bad.write_bytes(b"this is not a database")
    queue = WriteBehindIngester(warehouse, batch_size=4)
    queue.submit(good)
    queue.submit(bad)
    with pytest.raises(StorageError, match="ingest queue failures"):
        queue.close()
    assert len(warehouse.experiments()) == 1  # the good one landed


def test_a_failed_batch_falls_back_one_by_one_and_is_counted(
    warehouse, make_level3, monkeypatch, suppressed
):
    ingest_many = warehouse.ingest_many
    calls = []

    def fails_once(paths, **kwargs):
        calls.append(paths)
        if len(calls) == 1:
            raise StorageError("transient batch failure")
        return ingest_many(paths, **kwargs)

    monkeypatch.setattr(warehouse, "ingest_many", fails_once)
    dbs = [make_level3(f"exp-{i}", t0=1.0 + 20.0 * i) for i in range(3)]
    with WriteBehindIngester(warehouse, batch_size=3) as queue:
        for db in dbs:
            queue.submit(db)
        results = queue.flush()
    assert [r.source for r in results] == [str(db) for db in dbs]
    assert len(warehouse.experiments()) == 3
    assert suppressed.value(site="repo_batch_fallback") == 1


def test_queue_rejects_submissions_after_close(warehouse, make_level3):
    queue = WriteBehindIngester(warehouse)
    queue.submit(make_level3("alpha"))
    queue.close()
    with pytest.raises(StorageError):
        queue.submit(make_level3("beta", t0=30.0))
