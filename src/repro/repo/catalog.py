"""The warehouse catalogue: partition routing and the experiment index.

One SQLite database (``<root>/catalog.db``) holds everything that is
*about* experiments rather than *from* them:

* ``Partitions`` — the routing table.  A partition is one
  ``(experiment name, factor fingerprint)`` bucket and owns one shard
  database under ``<root>/shards/``; every package with that key lands
  in that shard.
* ``Experiments`` — the global catalogue.  ExpIDs are allocated here
  (warehouse-wide, monotonically), each row carrying the partition it
  routes to, both fingerprints, and an ingest ``Status``
  (``pending`` → ``done``).  A ``pending`` row is an ingest whose shard
  copy or view refresh has not committed yet — recovery completes or
  purges it.
* the materialized read models (:mod:`repro.repo.views`) — real tables,
  refreshed incrementally per ingested ExpID.

The connection belongs to the thread that opened the owning
:class:`~repro.repo.warehouse.Warehouse`; every ingest and query runs
on that thread.
"""

from __future__ import annotations

import sqlite3
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.core.errors import StorageError

__all__ = ["Catalog", "CATALOG_FILE", "SHARD_DIR"]

CATALOG_FILE = "catalog.db"
SHARD_DIR = "shards"

_CATALOG_DDL = """
CREATE TABLE IF NOT EXISTS Partitions (
    PartitionID       INTEGER PRIMARY KEY AUTOINCREMENT,
    Name              TEXT NOT NULL,
    FactorFingerprint TEXT NOT NULL,
    ShardFile         TEXT NOT NULL,
    UNIQUE (Name, FactorFingerprint)
);
CREATE TABLE IF NOT EXISTS Experiments (
    ExpID             INTEGER PRIMARY KEY AUTOINCREMENT,
    PartitionID       INTEGER NOT NULL,
    Name              TEXT NOT NULL,
    Comment           TEXT NOT NULL DEFAULT '',
    EEVersion         TEXT NOT NULL,
    ExpXML            TEXT NOT NULL,
    ContentDigest     TEXT NOT NULL,
    FactorFingerprint TEXT NOT NULL,
    SourcePath        TEXT NOT NULL,
    IngestSeq         INTEGER NOT NULL,
    Status            TEXT NOT NULL DEFAULT 'pending'
);
CREATE INDEX IF NOT EXISTS idx_exp_digest ON Experiments (ContentDigest);
CREATE INDEX IF NOT EXISTS idx_exp_name ON Experiments (Name);
CREATE TABLE IF NOT EXISTS MvExperimentStats (
    ExpID   INTEGER PRIMARY KEY,
    Runs    INTEGER NOT NULL,
    Events  INTEGER NOT NULL,
    Packets INTEGER NOT NULL,
    Nodes   INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS MvEventCounts (
    ExpID     INTEGER NOT NULL,
    EventType TEXT NOT NULL,
    N         INTEGER NOT NULL,
    PRIMARY KEY (ExpID, EventType)
);
CREATE TABLE IF NOT EXISTS MvFaultBreakdown (
    ExpID INTEGER NOT NULL,
    Kind  TEXT NOT NULL,
    Phase TEXT NOT NULL,
    N     INTEGER NOT NULL,
    PRIMARY KEY (ExpID, Kind, Phase)
);
CREATE TABLE IF NOT EXISTS MvResponsiveness (
    ExpID        INTEGER NOT NULL,
    TreatmentKey TEXT NOT NULL,
    Runs         INTEGER NOT NULL,
    Complete     INTEGER NOT NULL,
    TRMin        REAL,
    TRMedian     REAL,
    TRP95        REAL,
    TRMax        REAL,
    TRMean       REAL,
    PRIMARY KEY (ExpID, TreatmentKey)
);
"""


class Catalog:
    """Typed access to one warehouse's catalogue database."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.path = self.root / CATALOG_FILE
        self.conn = sqlite3.connect(str(self.path))
        self.conn.row_factory = sqlite3.Row
        # WAL + NORMAL: catalogue commits are frequent and tiny (pending
        # inserts, done flips, MV rows), and in WAL mode NORMAL makes them
        # fsync-free.  Crash safety is unaffected for process crashes (a
        # committed WAL frame survives the process); after a power loss
        # the catalogue can only lose *recent* commits, which recovery
        # replays from the fsynced ingest journal.
        self.conn.execute("PRAGMA journal_mode=WAL")
        self.conn.execute("PRAGMA synchronous=NORMAL")
        self.conn.executescript(_CATALOG_DDL)
        self.conn.commit()

    def close(self) -> None:
        self.conn.close()

    # ------------------------------------------------------------------
    # Partition routing
    # ------------------------------------------------------------------
    def get_or_create_partition(
        self, name: str, factor_fingerprint: str
    ) -> Tuple[int, Path]:
        """Route a ``(name, factor fingerprint)`` key to its shard."""
        row = self.conn.execute(
            "SELECT PartitionID, ShardFile FROM Partitions "
            "WHERE Name = ? AND FactorFingerprint = ?",
            (name, factor_fingerprint),
        ).fetchone()
        if row is None:
            shard_file = f"{SHARD_DIR}/{_slug(name)}__{factor_fingerprint[:12]}.db"
            cur = self.conn.execute(
                "INSERT INTO Partitions (Name, FactorFingerprint, ShardFile) "
                "VALUES (?, ?, ?)",
                (name, factor_fingerprint, shard_file),
            )
            self.conn.commit()
            return cur.lastrowid, self.root / shard_file
        return row["PartitionID"], self.root / row["ShardFile"]

    def partitions(self) -> List[Dict[str, Any]]:
        return [
            dict(row)
            for row in self.conn.execute(
                "SELECT PartitionID, Name, FactorFingerprint, ShardFile "
                "FROM Partitions ORDER BY PartitionID"
            )
        ]

    def shard_path(self, partition_id: int) -> Path:
        row = self.conn.execute(
            "SELECT ShardFile FROM Partitions WHERE PartitionID = ?",
            (partition_id,),
        ).fetchone()
        if row is None:
            raise StorageError(f"no partition #{partition_id} in catalogue")
        return self.root / row["ShardFile"]

    # ------------------------------------------------------------------
    # Experiment rows
    # ------------------------------------------------------------------
    def find_by_digest(self, digest: str) -> Optional[Dict[str, Any]]:
        """The oldest *completed* experiment with this content digest."""
        row = self.conn.execute(
            "SELECT * FROM Experiments "
            "WHERE ContentDigest = ? AND Status = 'done' ORDER BY ExpID",
            (digest,),
        ).fetchone()
        return dict(row) if row is not None else None

    def next_ingest_seq(self) -> int:
        row = self.conn.execute(
            "SELECT COALESCE(MAX(IngestSeq), 0) FROM Experiments"
        ).fetchone()
        return row[0] + 1

    def insert_pending(
        self, partition_id: int, key, source, ingest_seq: int
    ) -> int:
        """Allocate an ExpID for an ingest in flight (caller commits)."""
        cur = self.conn.execute(
            "INSERT INTO Experiments (PartitionID, Name, Comment, EEVersion, "
            "ExpXML, ContentDigest, FactorFingerprint, SourcePath, IngestSeq, "
            "Status) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, 'pending')",
            (
                partition_id,
                key.name,
                key.comment,
                key.ee_version,
                key.exp_xml,
                key.content_digest,
                key.factor_fingerprint,
                str(source),
                ingest_seq,
            ),
        )
        return cur.lastrowid

    def mark_done(self, exp_id: int) -> None:
        self.conn.execute(
            "UPDATE Experiments SET Status = 'done' WHERE ExpID = ?", (exp_id,)
        )

    def purge_experiment(self, exp_id: int) -> None:
        """Drop one experiment's catalogue row and view rows (shard rows
        are the caller's job — they live in another database)."""
        for table in (
            "Experiments",
            "MvExperimentStats",
            "MvEventCounts",
            "MvFaultBreakdown",
            "MvResponsiveness",
        ):
            self.conn.execute(f"DELETE FROM {table} WHERE ExpID = ?", (exp_id,))

    def pending(self) -> List[Dict[str, Any]]:
        return [
            dict(row)
            for row in self.conn.execute(
                "SELECT * FROM Experiments WHERE Status = 'pending' ORDER BY ExpID"
            )
        ]

    def experiments(self) -> List[Dict[str, Any]]:
        return [
            dict(row)
            for row in self.conn.execute(
                "SELECT ExpID, PartitionID, Name, Comment, EEVersion, "
                "ContentDigest, FactorFingerprint, SourcePath, IngestSeq "
                "FROM Experiments WHERE Status = 'done' ORDER BY ExpID"
            )
        ]

    def experiment(self, exp_id: int) -> Dict[str, Any]:
        row = self.conn.execute(
            "SELECT * FROM Experiments WHERE ExpID = ?", (exp_id,)
        ).fetchone()
        if row is None:
            raise StorageError(f"no experiment #{exp_id} in warehouse")
        return dict(row)

    def experiment_id_by_name(self, name: str) -> int:
        row = self.conn.execute(
            "SELECT ExpID FROM Experiments "
            "WHERE Name = ? AND Status = 'done' ORDER BY ExpID DESC",
            (name,),
        ).fetchone()
        if row is None:
            raise StorageError(f"no experiment named {name!r} in warehouse")
        return row[0]


def _slug(name: str) -> str:
    """Filesystem-safe partition file stem."""
    return "".join(c if (c.isalnum() or c in "-_.") else "_" for c in name)[:64]
