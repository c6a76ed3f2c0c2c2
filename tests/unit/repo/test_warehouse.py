"""The warehouse façade: ingest, dedup, read models, recovery, queue."""

import sqlite3
import threading

import pytest

from repro.core.errors import StorageError
from repro.repo import (
    IngestJournal,
    Warehouse,
    WriteBehindIngester,
    fingerprint_package,
)
from repro.repo.catalog import CATALOG_FILE
from repro.repo.shard import SHARD_COPY_COLUMNS
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
    # The reader borrowed the warehouse's connection: still open.
    assert warehouse.run_ids(exp_id) == [0, 1, 2]
    assert len(warehouse.events(exp_id, event_type="sd_service_add")) == 3
    # A slice carries Table I only; the side-table readers say "nothing".
    assert view.run_traces() == []
    assert view.abort_reasons() == {}


def test_failed_detach_is_counted_not_raised(warehouse, make_level3):
    from repro.obs.metrics import MetricsRegistry, set_registry
    from repro.repo.shard import copy_batch_into_shard

    db = make_level3("alpha")
    catalog = warehouse.catalog
    conn = catalog.conn

    class DetachFails:
        def __getattr__(self, name):
            return getattr(conn, name)

        def execute(self, sql, *args):
            if sql.startswith("DETACH"):
                raise sqlite3.OperationalError("database src0 is locked")
            return conn.execute(sql, *args)

    registry = MetricsRegistry()
    set_registry(registry)
    catalog.conn = DetachFails()
    try:
        [(exp_id, _pid)] = copy_batch_into_shard(
            catalog, [(db, fingerprint_package(db), 1)])
        suppressed = registry.counter(
            "repro_suppressed_errors_total", labels=("site",))
        assert suppressed.value(site="shard_detach") == 1
    finally:
        catalog.conn = conn
        set_registry(None)
        conn.execute("DETACH DATABASE src0")
    with ExperimentDatabase(db) as level3:
        # The group itself committed.
        assert warehouse.view(exp_id).events() == level3.events()


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


def test_recovery_abandons_a_ticket_whose_source_is_gone(tmp_path, make_level3):
    db = make_level3("alpha")
    root = tmp_path / "wh"
    journal = IngestJournal(root)
    journal.append_many([journal.begin_record(journal.next_ticket(), db,
                                              fingerprint_package(db))])
    db.unlink()
    with Warehouse(root) as warehouse:
        assert warehouse.last_recovery["abandoned"] == [str(db)]
        assert warehouse.experiments() == []
        assert warehouse.journal.incomplete() == []


class _Crash(BaseException):
    """Stands in for the process dying: not an error ingest handles."""


def test_a_crash_before_a_group_commits_leaves_none_of_it(
    tmp_path, make_level3, monkeypatch
):
    from repro.repo import shard

    dbs = [make_level3(f"exp-{i}", t0=1.0 + 20.0 * i) for i in range(3)]
    root = tmp_path / "wh"
    refresh = shard.refresh_experiment_views
    refreshed = []

    def crash_before_commit(conn, exp_id):
        refresh(conn, exp_id)
        refreshed.append(exp_id)
        if len(refreshed) == len(dbs):  # the group's last copy is done
            raise _Crash

    monkeypatch.setattr(shard, "refresh_experiment_views", crash_before_commit)
    warehouse = Warehouse(root)
    with pytest.raises(_Crash):
        warehouse.ingest_many(dbs)
    warehouse.close()
    monkeypatch.undo()

    with sqlite3.connect(root / CATALOG_FILE) as conn:
        for table in ("Experiments", "MvExperimentStats", "MvEventCounts",
                      "MvFaultBreakdown", "MvResponsiveness", *SHARD_COPY_COLUMNS):
            assert conn.execute(f"SELECT COUNT(*) FROM {table}").fetchone() == (0,), table
    with Warehouse(root) as reopened:
        assert len(reopened.last_recovery["reingested"]) == len(dbs)
        experiments = reopened.experiments()
        assert [e["SourcePath"] for e in experiments] == [str(db) for db in dbs]
        for exp, db in zip(experiments, dbs):
            with ExperimentDatabase(db) as level3:
                assert reopened.view(exp["ExpID"]).events() == level3.events()
        assert reopened.journal.incomplete() == []


@pytest.mark.parametrize("goods_before, goods_after", [(1, 1), (6, 1)])
def test_a_package_that_fails_its_copy_fails_alone(
    tmp_path, make_level3, goods_before, goods_after
):
    """good, bad, good — and eight packages with the bad one in the second
    attach group: the bad package's ticket is abandoned, every good one
    lands once and is reported as ingested, and a reopen recovers
    nothing."""
    goods = [make_level3(f"good{i}", t0=1.0 + 20.0 * i)
             for i in range(goods_before + goods_after)]
    bad = make_level3("bad", t0=900.0)
    with sqlite3.connect(bad) as conn:
        conn.execute("DROP TABLE Packets")  # still fingerprints; cannot copy
    packages = goods[:goods_before] + [bad] + goods[goods_before:]
    root = tmp_path / "wh"
    with Warehouse(root) as warehouse:
        queue = WriteBehindIngester(warehouse)
        for package in packages:
            queue.submit(package)
        with pytest.raises(StorageError, match="bad.db") as failed:
            queue.flush()
        digests = [e["ContentDigest"] for e in warehouse.experiments()]
        assert sorted(digests) == sorted(fingerprint_package(g).content_digest for g in goods)
        assert warehouse.journal.incomplete() == []
        results = failed.value.results
        assert results[goods_before] is None
        reported = [r for r in results if r is not None]
        assert [r.source for r in reported] == [str(g) for g in goods]
        assert not any(r.duplicate for r in reported)
    with Warehouse(root) as reopened:
        assert not any(reopened.last_recovery.values())
        assert len(reopened.experiments()) == len(goods)


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


def test_queue_writes_a_batch_when_its_buffer_fills(warehouse, make_level3):
    dbs = [make_level3(f"exp-{i}", t0=1.0 + 20.0 * i) for i in range(3)]
    queue = WriteBehindIngester(warehouse, batch_size=2)
    held = []
    for db in dbs:
        queue.submit(db)
        held.append(len(warehouse.experiments()))
    assert held == [0, 2, 2]
    queue.flush()
    assert len(warehouse.experiments()) == 3


def test_a_cached_aggregate_is_replaced_after_the_batch_that_changes_it(
    warehouse, make_level3
):
    queue = WriteBehindIngester(warehouse, batch_size=2)
    queue.submit(make_level3("alpha"))
    assert warehouse.event_counts() == []
    assert warehouse.event_counts() == []  # cached: nothing was written
    assert (warehouse.cache.hits, warehouse.cache.misses) == (1, 1)

    queue.submit(make_level3("beta", t0=40.0))  # fills the batch
    counts = warehouse.event_counts()
    assert warehouse.cache.misses == 2
    assert {row["name"] for row in counts} == {"alpha", "beta"}
    assert counts == warehouse.event_counts()
    assert warehouse.cache.hits == 2


def test_queue_starts_no_thread(warehouse, make_level3):
    before = threading.active_count()
    with WriteBehindIngester(warehouse, batch_size=2) as queue:
        queue.submit(make_level3("alpha"))
        assert threading.active_count() == before
        queue.submit(make_level3("beta", t0=40.0))
        assert threading.active_count() == before
        queue.flush()
    assert threading.active_count() == before
    assert len(warehouse.experiments()) == 2


def test_queue_rejects_submissions_after_close(warehouse, make_level3):
    queue = WriteBehindIngester(warehouse)
    queue.submit(make_level3("alpha"))
    queue.close()
    with pytest.raises(StorageError):
        queue.submit(make_level3("beta", t0=30.0))
