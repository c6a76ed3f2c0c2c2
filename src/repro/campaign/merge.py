"""Sharded level-3 writes and the deterministic campaign merge.

Concurrent workers must never contend on one SQLite file, so each worker
owns a **shard database** (same Table I schema, run tables only) and
appends every run it completes in a single transaction.  The final
experiment database is then assembled by :func:`merge_shards`:

* experiment-scope tables (ExperimentInfo, Logs, EEFiles,
  ExperimentMeasurements) come from ``scope.json`` at the campaign root —
  the conditioned scope the plan's first run returned, which every
  campaign has and which is identical regardless of worker count or
  transport;
* run tables (RunInfos, ExtraRunMeasurements, Events, Packets) are pulled
  run by run **in ascending run id order** from whichever shard the
  journal names for that run.  Completion order, worker count and shard
  layout therefore never influence the merged database: byte-for-byte the
  same file as a single-worker campaign.

Within one run, rows keep their shard insertion order (``ORDER BY
rowid``), which is the conditioned order (common time, node, seq) — the
same order :func:`repro.storage.level3.store_level3` produces.  No
staging store is read: the shards and ``scope.json`` are the campaign's
record.
"""

from __future__ import annotations

import sqlite3
from pathlib import Path
from typing import Dict, Mapping

from repro.core.errors import StorageError
from repro.obs.metrics import count_suppressed_error
from repro.storage.conditioning import ConditionedExperiment, condition_run, decode_scope
from repro.storage.level2 import Level2Store
from repro.storage.level3 import (
    EXTENSION_RUN_TABLES,
    RUN_TABLES,
    RunShard,
    _addr_to_node_map,
    create_schema,
    database_digest,
    fresh_database,
    fsync_database,
    insert_experiment_scope,
    insert_rows,
    insert_run,
    insert_run_traces,
    open_fast_connection,
    read_run_rows,
    stamp_table1_digest,
)

__all__ = [
    "ShardWriter",
    "merge_shards",
    "shard_has_run",
    "load_scope_payload",
    "SCOPE_NAME",
    "apply_abort_reasons",
    "database_digest",
]

#: File name of the persisted experiment-scope payload at the campaign
#: root.  The session writes it when the plan's first run settles, on
#: either transport, before that run's journal entry — so a journaled
#: scope run implies the file exists.
SCOPE_NAME = "scope.json"


def load_scope_payload(path) -> ConditionedExperiment:
    """Read a persisted ``scope.json`` back into the scope payload form
    :func:`merge_shards` takes."""
    path = Path(path)
    if not path.exists():
        raise StorageError(
            f"experiment scope payload missing: {path}; the campaign's "
            "scope run never settled",
        )
    return decode_scope(path.read_text(encoding="utf-8"))


class ShardWriter(RunShard):
    """One worker's append-only level-3 shard.

    ``stage_run`` is idempotent: it replaces whatever a previous (crashed
    or retried) attempt left for the run (:meth:`RunShard.replacing_run`).
    """

    def stage_run(self, store: Level2Store, run_id: int) -> None:
        """Condition *run_id* from its staging store and commit it here,
        its harness spans in the same transaction.  A corrupt frame raises
        :class:`StorageError` before anything is written: the attempt
        fails and the campaign re-executes the run."""
        run = condition_run(store, run_id)
        src_map = _addr_to_node_map(store.read_description())
        # Harness spans the (single-run) master persisted for this run.
        # Experiment-scope spans carry no run id and stay in the staging
        # store; only run-attributed traces travel through the merge.
        by_node = store.read_run_stream(run_id, "traces.jsonl")
        traces = [rec for node_id in sorted(by_node) for rec in by_node[node_id]]
        with self.replacing_run(run_id) as conn:  # the campaign's commit point
            insert_run(conn, run, src_map)
            insert_run_traces(conn, traces)


def merge_shards(
    db_path,
    scope: ConditionedExperiment,
    run_sources: Mapping[int, Path],
) -> Path:
    """Assemble the single experiment database from campaign shards.

    Parameters
    ----------
    db_path:
        Output database (must not exist, and does not exist after a
        failed merge — same contract as
        :func:`~repro.storage.level3.store_level3`).
    scope:
        The conditioned experiment scope (:func:`load_scope_payload` of
        the campaign's ``scope.json``); its run list is ignored.
    run_sources:
        ``{run_id: shard database path}`` — typically
        ``CampaignJournal.completed()`` mapped to absolute paths.  Merged
        in ascending run id order regardless of mapping order.
    """
    with fresh_database(db_path) as db_path:
        # The merged database is freshly created and rebuildable from the
        # shards at any time, so it gets the full fast-write treatment: no
        # journal, no per-statement syncs, one transaction, one final fsync.
        out = open_fast_connection(db_path, fresh=True)
        shards: Dict[Path, sqlite3.Connection] = {}
        try:
            create_schema(out)
            out.execute("BEGIN")
            insert_experiment_scope(out, scope)
            for run_id in sorted(run_sources):
                shard_path = Path(run_sources[run_id])
                conn = shards.get(shard_path)
                if conn is None:
                    if not shard_path.exists():
                        raise StorageError(f"shard database missing: {shard_path}")
                    conn = shards[shard_path] = sqlite3.connect(str(shard_path))
                if not insert_rows(out, read_run_rows(conn, run_id, RUN_TABLES)):
                    raise StorageError(
                        f"run {run_id} has no rows in shard {shard_path}; "
                        "journal and shard diverged",
                    )
                # Side tables: copied per run like the run tables, but
                # excluded from the divergence check above — a run executed
                # with tracing off legitimately has no spans.
                insert_rows(out, read_run_rows(conn, run_id, EXTENSION_RUN_TABLES))
            out.execute("COMMIT")
        finally:
            for conn in shards.values():
                conn.close()
            out.close()
        stamp_table1_digest(db_path)
        fsync_database(db_path)
    return db_path


def shard_has_run(shard_path, run_id: int) -> bool:
    """Whether a shard database holds committed rows for *run_id*.

    The resume check of both transports: a journal ``run_complete`` entry
    is only trusted when the shard transaction it points at really
    committed.  Returns False for missing or unreadable shards — the
    run is then re-queued — counting an unreadable one in
    ``repro_suppressed_errors_total{site="shard_probe"}``.
    """
    shard_path = Path(shard_path)
    if not shard_path.exists():
        return False
    try:
        conn = sqlite3.connect(str(shard_path))
        try:
            row = conn.execute(
                "SELECT 1 FROM RunInfos WHERE RunID = ? LIMIT 1",
                (run_id,),
            ).fetchone()
        finally:
            conn.close()
    except sqlite3.Error:
        count_suppressed_error("shard_probe")
        return False
    return row is not None


def apply_abort_reasons(db_path, reasons: Mapping[int, str]) -> int:
    """Annotate merged ``RunInfos`` rows with earlier attempts' failures.

    *reasons* maps run id → reason string (from the campaign journal's
    ``run_failed`` entries).  Applied after the merge so shard contents —
    and therefore every digest over the actual measurement data — stay
    identical to a fault-free campaign's; callers comparing annotated
    databases pass ``ignore_columns=("AbortReason",)`` to
    :func:`database_digest`.  Returns the number of updated rows.
    """
    if not reasons:
        return 0
    conn = sqlite3.connect(str(db_path))
    try:
        updated = 0
        with conn:
            for run_id in sorted(reasons):
                cur = conn.execute(
                    "UPDATE RunInfos SET AbortReason = ? WHERE RunID = ?",
                    (str(reasons[run_id])[:500], run_id),
                )
                updated += cur.rowcount
    finally:
        conn.close()
    if updated:
        # AbortReason lives in RunInfos — a digested table — so the
        # stamped digest goes stale the moment an annotation lands.
        stamp_table1_digest(db_path)
    fsync_database(db_path)
    return updated
