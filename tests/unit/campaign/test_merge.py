"""Unit tests for sharded level-3 writes and the deterministic merge."""

import shutil
import sqlite3

import pytest

from repro import Level2Store, store_level3
from repro.campaign import merge
from repro.campaign.merge import (
    ShardWriter,
    apply_abort_reasons,
    database_digest,
    merge_shards,
    shard_has_run,
)
from repro.core.errors import StorageError
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.sd.processlib import build_two_party_description
from repro.storage.conditioning import condition_scope
from repro.storage.level3 import RUN_TABLES, ExperimentDatabase, read_stamped_digest

from tests.conftest import execute_plan


@pytest.fixture(scope="module")
def executed_store(tmp_path_factory):
    """Both runs of a 2-run experiment in one level-2 store (shared,
    read-only): each run's master writes into the same root."""
    root = tmp_path_factory.mktemp("store")
    desc = build_two_party_description(name="mrg", seed=11, replications=2, env_count=1)
    execute_plan(desc, root)
    return Level2Store(root)


def _row_counts(path, run_id):
    conn = sqlite3.connect(str(path))
    try:
        return {
            t: conn.execute(
                f"SELECT COUNT(*) FROM {t} WHERE RunID = ?",
                (run_id,),
            ).fetchone()[0]
            for t in RUN_TABLES
        }
    finally:
        conn.close()


def test_stage_run_is_idempotent(executed_store, tmp_path):
    shard = tmp_path / "w0.db"
    with ShardWriter(shard) as writer:
        writer.stage_run(executed_store, 0)
        once = _row_counts(shard, 0)
        writer.stage_run(executed_store, 0)  # retry/crash re-stage
        assert writer.run_ids() == [0]
    assert _row_counts(shard, 0) == once
    assert once["RunInfos"] > 0 and once["Events"] > 0


def test_merge_matches_serial_store_level3(executed_store, tmp_path):
    """Merging shards reproduces store_level3 byte-for-byte."""
    serial_db = store_level3(executed_store, tmp_path / "serial.db")
    shard = tmp_path / "w0.db"
    with ShardWriter(shard) as writer:
        writer.stage_run(executed_store, 1)  # staged out of order on purpose
        writer.stage_run(executed_store, 0)
    merged = merge_shards(
        tmp_path / "merged.db",
        condition_scope(executed_store),
        {0: shard, 1: shard},
    )
    assert database_digest(merged) == database_digest(serial_db)


def test_merge_refuses_existing_database(executed_store, tmp_path):
    out = tmp_path / "out.db"
    out.write_bytes(b"")
    with pytest.raises(StorageError, match="refusing to overwrite"):
        merge_shards(out, condition_scope(executed_store), {})


def test_merge_missing_shard_raises(executed_store, tmp_path):
    with pytest.raises(StorageError, match="shard database missing"):
        merge_shards(
            tmp_path / "out.db",
            condition_scope(executed_store),
            {0: tmp_path / "nope.db"},
        )
    assert not (tmp_path / "out.db").exists()  # the failed merge left nothing


def test_a_failed_store_level3_leaves_no_database(executed_store, tmp_path):
    broken = tmp_path / "broken.l2"
    shutil.copytree(executed_store.root, broken)
    (broken / "master" / "runinfo" / "run_1.json").unlink()
    with pytest.raises(StorageError, match="run 1 has no run info"):
        store_level3(Level2Store(broken), tmp_path / "out.db")
    assert not (tmp_path / "out.db").exists()  # a retry is not refused


def test_merge_detects_journal_shard_divergence(executed_store, tmp_path):
    shard = tmp_path / "w0.db"
    with ShardWriter(shard) as writer:
        writer.stage_run(executed_store, 0)
    with pytest.raises(StorageError, match="diverged"):
        # Journal claims run 1 lives in this shard; it does not.
        merge_shards(tmp_path / "out.db", condition_scope(executed_store), {0: shard, 1: shard})


def test_database_digest_ignore_columns(executed_store, tmp_path):
    db = store_level3(executed_store, tmp_path / "a.db")
    base = database_digest(db)
    assert database_digest(db) == base  # stable
    assert database_digest(db, ignore_columns=("StartTime",)) != base


def test_probing_an_unreadable_shard_is_false_and_counted(executed_store, tmp_path):
    shard = tmp_path / "w0.db"
    with ShardWriter(shard) as writer:
        writer.stage_run(executed_store, 0)
    garbage = tmp_path / "garbage.db"
    garbage.write_bytes(b"this is not a sqlite database, it only sits where one should" * 20)
    registry = MetricsRegistry()
    set_registry(registry)
    try:
        assert shard_has_run(shard, 0) and not shard_has_run(shard, 1)
        assert not shard_has_run(tmp_path / "absent.db", 0)
        suppressed = registry.counter("repro_suppressed_errors_total", labels=("site",))
        assert suppressed.value(site="shard_probe") == 0  # none of those is an error
        assert shard_has_run(garbage, 0) is False
        assert suppressed.value(site="shard_probe") == 1
    finally:
        set_registry(None)


def test_merge_attaches_more_shards_than_sqlite_holds_at_once(tmp_path):
    """One run from each of 12 shard files: more than SQLite attaches at
    once, so the merge attaches between commits, and the result equals
    the merge of the same runs from one shard."""
    assert sqlite3.connect(":memory:").getlimit(sqlite3.SQLITE_LIMIT_ATTACHED) < 12
    root = tmp_path / "store"
    execute_plan(build_two_party_description(name="wide", seed=12, replications=12, env_count=0), root)
    store = Level2Store(root)
    one, sources = tmp_path / "one.db", {}
    for run_id in range(12):
        sources[run_id] = tmp_path / f"w{run_id:02d}.db"
        for shard in (one, sources[run_id]):
            with ShardWriter(shard) as writer:
                writer.stage_run(store, run_id)
    scope = condition_scope(store)
    wide = merge_shards(tmp_path / "wide.db", scope, sources)
    narrow = merge_shards(tmp_path / "narrow.db", scope, dict.fromkeys(sources, one))
    with ExperimentDatabase(wide) as db:
        assert db.run_ids() == list(range(12))
    assert database_digest(wide) == database_digest(narrow)


def test_every_writer_stamps_the_digest_it_committed(executed_store, tmp_path):
    """``store_level3``, ``merge_shards`` and ``apply_abort_reasons`` each
    leave a stamp equal to a fresh read-only digest of the package."""
    serial = store_level3(executed_store, tmp_path / "serial.db")
    assert read_stamped_digest(serial) == database_digest(serial)
    shard = tmp_path / "w0.db"
    with ShardWriter(shard) as writer:
        writer.stage_run(executed_store, 0)
        writer.stage_run(executed_store, 1)
    merged = merge_shards(
        tmp_path / "merged.db", condition_scope(executed_store), {0: shard, 1: shard},
    )
    assert read_stamped_digest(merged) == database_digest(merged)
    assert apply_abort_reasons(merged, {1: "node lost"}) > 0
    assert read_stamped_digest(merged) == database_digest(merged)
    assert read_stamped_digest(merged) != read_stamped_digest(serial)


def test_abort_annotations_and_their_stamp_commit_together(
    executed_store, tmp_path, monkeypatch,
):
    db = store_level3(executed_store, tmp_path / "a.db")

    def failing_stamp(*_args):
        raise sqlite3.OperationalError("disk I/O error")

    monkeypatch.setattr(merge, "stamp_table1_digest", failing_stamp)
    with pytest.raises(sqlite3.OperationalError):
        apply_abort_reasons(db, {0: "node lost"})
    with ExperimentDatabase(db) as reader:
        assert reader.abort_reasons() == {}
    assert read_stamped_digest(db) == database_digest(db)
