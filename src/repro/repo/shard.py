"""Per-partition shard databases: storage.

A shard holds the Table-I data of every experiment in one partition,
each table widened with an ``ExpID`` discriminator column.  Ingest is an
``ATTACH`` + ``INSERT ... SELECT`` copy — the rows never surface into
Python, so a 100k-event package ingests at C speed in O(1) Python
memory.  Sources are attached in groups and copied inside a single
shard transaction per group, which is the batched half of the
write-behind ingest's throughput win.

A shard slice is read back by the level-3 reader itself
(:meth:`repro.storage.level3.ExperimentDatabase.over_shard`), so every
warehouse query is the same query the source package answers; the copy's
fidelity — rows, order, tie-breaks — is pinned by property test.
"""

from __future__ import annotations

import sqlite3
from pathlib import Path
from typing import Any, Dict, List

from repro.obs.metrics import count_suppressed_error
from repro.storage.level3 import TABLE_SCHEMAS

__all__ = [
    "SHARD_COPY_COLUMNS",
    "copy_batch_into_shard",
    "delete_experiment_rows",
    "open_shard",
]

#: Shard table -> the source level-3 columns copied verbatim (ExpID is
#: prepended on insert): Table I minus ``ExperimentInfo``, which the
#: catalogue holds, and minus the surrogate ``ExperimentMeasurements.ID``.
#: ``RunInfos.AbortReason`` rides along, so the warehouse keeps the retry
#: annotations of campaign-merged packages.
SHARD_COPY_COLUMNS: Dict[str, List[str]] = {
    table: [c for c in columns if (table, c) != ("ExperimentMeasurements", "ID")]
    for table, columns in TABLE_SCHEMAS.items()
    if table != "ExperimentInfo"
}

_SHARD_DDL = """
BEGIN;
CREATE TABLE IF NOT EXISTS Logs (
    ExpID INTEGER NOT NULL, NodeID TEXT NOT NULL, Log TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS EEFiles (
    ExpID INTEGER NOT NULL, ID TEXT NOT NULL, File TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS ExperimentMeasurements (
    ExpID INTEGER NOT NULL, NodeID TEXT NOT NULL, Name TEXT NOT NULL,
    Content TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS RunInfos (
    ExpID INTEGER NOT NULL, RunID INTEGER NOT NULL, NodeID TEXT NOT NULL,
    StartTime REAL NOT NULL, TimeDiff REAL NOT NULL, AbortReason TEXT
);
CREATE TABLE IF NOT EXISTS ExtraRunMeasurements (
    ExpID INTEGER NOT NULL, RunID INTEGER NOT NULL, NodeID TEXT NOT NULL,
    Name TEXT NOT NULL, Content TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS Events (
    ExpID INTEGER NOT NULL, RunID INTEGER, NodeID TEXT NOT NULL,
    CommonTime REAL NOT NULL, EventType TEXT NOT NULL, Parameter TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS Packets (
    ExpID INTEGER NOT NULL, RunID INTEGER, NodeID TEXT NOT NULL,
    CommonTime REAL NOT NULL, SrcNodeID TEXT NOT NULL, Data TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_shard_events
    ON Events (ExpID, EventType, RunID);
CREATE INDEX IF NOT EXISTS idx_shard_runinfos ON RunInfos (ExpID, RunID);
CREATE INDEX IF NOT EXISTS idx_shard_packets ON Packets (ExpID, RunID);
COMMIT;
"""

#: SQLite's default attached-database limit is 10; stay well below it so
#: the main database plus temp storage never collide with a batch.
ATTACH_GROUP = 6


def open_shard(path) -> sqlite3.Connection:
    """Open (and if needed create) a shard database."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    conn = sqlite3.connect(str(path))
    conn.row_factory = sqlite3.Row
    # Rollback journal on, per-commit fsyncs off.  The journal keeps
    # attach-group copies atomic across *process* crashes (a hot journal
    # replays on the next open), which together with the catalogue's
    # pending-row protocol is what recovery needs.  fsyncs are skipped
    # because shards are derived data: after the rare power loss that
    # corrupts one, every row is still in the source packages and the
    # partition can be re-ingested.  (WAL is deliberately not used here:
    # bulk appends land on fresh pages, so the rollback journal stays
    # nearly empty while WAL would double-write the entire copy.)
    conn.execute("PRAGMA synchronous=OFF")
    conn.executescript(_SHARD_DDL)
    conn.commit()
    return conn


def _source_has_column(
    conn: sqlite3.Connection, alias: str, table: str, column: str
) -> bool:
    cols = [row[1] for row in conn.execute(f"PRAGMA {alias}.table_info({table})")]
    return column in cols


def copy_batch_into_shard(
    conn: sqlite3.Connection, batch: "List[tuple[int, Any]]"
) -> None:
    """Attach-copy a batch of ``(exp_id, source path)`` pairs.

    Sources are attached in groups of :data:`ATTACH_GROUP`; each group's
    copies run in one shard transaction (``ATTACH`` is illegal inside a
    transaction, hence attach-all-then-begin).  On any failure the open
    transaction is rolled back, leaving previously committed groups in
    place — recovery deletes by ExpID, so partial batches are safe.
    """
    for start in range(0, len(batch), ATTACH_GROUP):
        group = batch[start : start + ATTACH_GROUP]
        aliases = []
        try:
            for i, (_exp_id, source) in enumerate(group):
                alias = f"src{i}"
                conn.execute(f"ATTACH DATABASE ? AS {alias}", (str(source),))
                aliases.append(alias)
            conn.execute("BEGIN")
            try:
                for alias, (exp_id, _source) in zip(aliases, group):
                    _copy_one(conn, alias, exp_id)
                conn.execute("COMMIT")
            except BaseException:
                conn.execute("ROLLBACK")
                raise
        finally:
            for alias in aliases:
                try:
                    conn.execute(f"DETACH DATABASE {alias}")
                except sqlite3.Error:
                    # The copy's outcome stands either way; a source left
                    # attached fails the next group's ATTACH loudly.
                    count_suppressed_error("shard_detach")


def _copy_one(conn: sqlite3.Connection, alias: str, exp_id: int) -> None:
    for table, columns in SHARD_COPY_COLUMNS.items():
        select_cols = list(columns)
        if table == "RunInfos" and not _source_has_column(
            conn, alias, table, "AbortReason"
        ):
            # Pre-AbortReason packages: the column is NULL in the shard.
            select_cols[select_cols.index("AbortReason")] = "NULL"
        # ORDER BY rowid: shard rowids then replay the package's insertion
        # order, so view queries can tie-break equal sort keys exactly the
        # way a direct ExperimentDatabase scan does.
        conn.execute(
            f"INSERT INTO {table} (ExpID, {', '.join(columns)}) "
            f"SELECT ?, {', '.join(select_cols)} FROM {alias}.{table} "
            f"ORDER BY rowid",
            (exp_id,),
        )


def delete_experiment_rows(conn: sqlite3.Connection, exp_id: int) -> None:
    """Remove every row of one ExpID (recovery of a partial ingest)."""
    conn.execute("BEGIN")
    try:
        for table in SHARD_COPY_COLUMNS:
            conn.execute(f"DELETE FROM {table} WHERE ExpID = ?", (exp_id,))
        conn.execute("COMMIT")
    except BaseException:
        conn.execute("ROLLBACK")
        raise
