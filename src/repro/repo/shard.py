"""Attach-group ingest: a package's Table-I rows into the warehouse file.

The warehouse database (:mod:`repro.repo.catalog`) holds the Table-I
data of every experiment, each table widened with an ``ExpID``
discriminator column.  Ingest is an ``ATTACH`` + ``INSERT ... SELECT``
copy — the rows never surface into Python, so a 100k-event package
ingests at C speed in O(1) Python memory.  Sources are attached in
groups of at most :data:`ATTACH_GROUP`, and each group commits in one
transaction: every package's ``Experiments`` row, Table-I rows and read
models, or none of them.

An experiment's slice is read back by the level-3 reader itself
(:meth:`repro.storage.level3.ExperimentDatabase.over_shard`), so every
warehouse query is the same query the source package answers; the copy's
fidelity — rows, order, tie-breaks — is pinned by property test.
"""

from __future__ import annotations

import sqlite3
from typing import Any, Dict, List, Sequence, Tuple

from repro.obs.metrics import count_suppressed_error
from repro.storage.level3 import TABLE_SCHEMAS

from repro.repo.views import refresh_experiment_views

__all__ = ["ATTACH_GROUP", "SHARD_COPY_COLUMNS", "copy_batch_into_shard"]

#: Warehouse table -> the source level-3 columns copied verbatim (ExpID
#: is prepended on insert): Table I minus ``ExperimentInfo``, which the
#: catalogue holds, and minus the surrogate ``ExperimentMeasurements.ID``.
#: ``RunInfos.AbortReason`` rides along, so the warehouse keeps the retry
#: annotations of campaign-merged packages.
SHARD_COPY_COLUMNS: Dict[str, List[str]] = {
    table: [c for c in columns if (table, c) != ("ExperimentMeasurements", "ID")]
    for table, columns in TABLE_SCHEMAS.items()
    if table != "ExperimentInfo"
}

#: SQLite's default attached-database limit is 10; stay well below it so
#: the main database plus temp storage never collide with a group.
ATTACH_GROUP = 6


def _source_has_column(
    conn: sqlite3.Connection, alias: str, table: str, column: str
) -> bool:
    cols = [row[1] for row in conn.execute(f"PRAGMA {alias}.table_info({table})")]
    return column in cols


def copy_batch_into_shard(
    catalog, group: Sequence[Tuple[Any, Any, int]]
) -> List[Tuple[int, int]]:
    """Ingest one attach group of ``(source path, key, ingest seq)``
    triples in one transaction; returns ``(exp_id, partition_id)`` per
    package.

    ``ATTACH`` is illegal inside a transaction, so every source is
    attached first.  Then, per package, its ``Experiments`` row allocates
    the ExpID, its Table-I rows are copied and its read models refreshed,
    and the group commits.  On any failure — an error or an interrupt —
    the transaction is rolled back and nothing of the group remains.
    """
    conn = catalog.conn
    aliases, ids = [], []
    try:
        for i, (source, _key, _seq) in enumerate(group):
            alias = f"src{i}"
            conn.execute(f"ATTACH DATABASE ? AS {alias}", (str(source),))
            aliases.append(alias)
        conn.execute("BEGIN")
        try:
            for alias, (source, key, seq) in zip(aliases, group):
                exp_id, partition_id = catalog.insert_experiment(key, source, seq)
                _copy_one(conn, alias, exp_id)
                refresh_experiment_views(conn, exp_id)
                ids.append((exp_id, partition_id))
            conn.execute("COMMIT")
        except BaseException:
            conn.execute("ROLLBACK")
            raise
    finally:
        for alias in aliases:
            try:
                conn.execute(f"DETACH DATABASE {alias}")
            except sqlite3.Error:
                # The group's outcome stands either way; a source left
                # attached fails the next group's ATTACH loudly.
                count_suppressed_error("shard_detach")
    return ids


def _copy_one(conn: sqlite3.Connection, alias: str, exp_id: int) -> None:
    for table, columns in SHARD_COPY_COLUMNS.items():
        select_cols = list(columns)
        if table == "RunInfos" and not _source_has_column(
            conn, alias, table, "AbortReason"
        ):
            # Pre-AbortReason packages: the column is NULL in the warehouse.
            select_cols[select_cols.index("AbortReason")] = "NULL"
        # ORDER BY rowid: warehouse rowids then replay the package's
        # insertion order, so view queries can tie-break equal sort keys
        # exactly the way a direct ExperimentDatabase scan does.
        conn.execute(
            f"INSERT INTO {table} (ExpID, {', '.join(columns)}) "
            f"SELECT ?, {', '.join(select_cols)} FROM {alias}.{table} "
            f"ORDER BY rowid",
            (exp_id,),
        )
