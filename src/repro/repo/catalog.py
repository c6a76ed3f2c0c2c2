"""The warehouse file: catalogue, Table-I rows and read models.

One SQLite database, ``<root>/catalog.db``, is the whole warehouse:

* ``Partitions`` — one row per ``(experiment name, factor fingerprint)``
  key; re-runs of one design share it, and ``repro repo list`` names
  each experiment's.
* ``Experiments`` — the global catalogue.  ExpIDs are allocated here
  (warehouse-wide, monotonically), each row carrying its partition,
  both fingerprints and its ingest sequence number.
* the Table-I tables minus ``ExperimentInfo`` (which ``Experiments``
  holds), each widened with an ``ExpID`` column and indexed by it;
* the materialized read models (:mod:`repro.repo.views`), refreshed
  per ingested ExpID.

An experiment's catalogue row, Table-I rows and read-model rows commit
in one transaction (:func:`repro.repo.shard.copy_batch_into_shard`), so
every ``Experiments`` row is an experiment whose data is all there.

The connection belongs to the thread that opened the owning
:class:`~repro.repo.warehouse.Warehouse`; every ingest and query runs
on that thread.
"""

from __future__ import annotations

import sqlite3
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.core.errors import StorageError

__all__ = ["Catalog", "CATALOG_FILE"]

CATALOG_FILE = "catalog.db"

_PARTITION_COLUMNS = ["PartitionID", "Name", "FactorFingerprint"]

_CATALOG_DDL = """
CREATE TABLE IF NOT EXISTS Partitions (
    PartitionID       INTEGER PRIMARY KEY AUTOINCREMENT,
    Name              TEXT NOT NULL,
    FactorFingerprint TEXT NOT NULL,
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
    IngestSeq         INTEGER NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_exp_digest ON Experiments (ContentDigest);
CREATE INDEX IF NOT EXISTS idx_exp_name ON Experiments (Name);
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
CREATE INDEX IF NOT EXISTS idx_events ON Events (ExpID, EventType, RunID);
CREATE INDEX IF NOT EXISTS idx_runinfos ON RunInfos (ExpID, RunID);
CREATE INDEX IF NOT EXISTS idx_packets ON Packets (ExpID, RunID);
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
    """Typed access to one warehouse's database."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        if (self.root / "shards").is_dir():
            raise _older_layout(self.root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.path = self.root / CATALOG_FILE
        self.conn = sqlite3.connect(str(self.path))
        self.conn.row_factory = sqlite3.Row
        columns = [row[1] for row in self.conn.execute("PRAGMA table_info(Partitions)")]
        if columns and columns != _PARTITION_COLUMNS:
            self.conn.close()
            raise _older_layout(self.root)
        # WAL + NORMAL: an ingest commits once per attach group, and in WAL
        # mode NORMAL makes that commit fsync-free.  A committed WAL frame
        # survives a process crash; after a power loss the file can only
        # lose *recent* commits, which recovery replays from the fsynced
        # ingest journal.
        self.conn.execute("PRAGMA journal_mode=WAL")
        self.conn.execute("PRAGMA synchronous=NORMAL")
        self.conn.executescript(_CATALOG_DDL)
        self.conn.commit()

    def close(self) -> None:
        self.conn.close()

    # ------------------------------------------------------------------
    # Partitions
    # ------------------------------------------------------------------
    def get_or_create_partition(self, name: str, factor_fingerprint: str) -> int:
        """The PartitionID of a ``(name, factor fingerprint)`` key
        (caller commits a new one)."""
        row = self.conn.execute(
            "SELECT PartitionID FROM Partitions "
            "WHERE Name = ? AND FactorFingerprint = ?",
            (name, factor_fingerprint),
        ).fetchone()
        if row is not None:
            return row[0]
        return self.conn.execute(
            "INSERT INTO Partitions (Name, FactorFingerprint) VALUES (?, ?)",
            (name, factor_fingerprint),
        ).lastrowid

    def partitions(self) -> List[Dict[str, Any]]:
        return [
            dict(row)
            for row in self.conn.execute(
                "SELECT PartitionID, Name, FactorFingerprint "
                "FROM Partitions ORDER BY PartitionID"
            )
        ]

    # ------------------------------------------------------------------
    # Experiment rows
    # ------------------------------------------------------------------
    def find_by_digest(self, digest: str) -> Optional[Dict[str, Any]]:
        """The oldest experiment with this content digest."""
        row = self.conn.execute(
            "SELECT * FROM Experiments WHERE ContentDigest = ? ORDER BY ExpID",
            (digest,),
        ).fetchone()
        return dict(row) if row is not None else None

    def next_ingest_seq(self) -> int:
        row = self.conn.execute(
            "SELECT COALESCE(MAX(IngestSeq), 0) FROM Experiments"
        ).fetchone()
        return row[0] + 1

    def insert_experiment(self, key, source, ingest_seq: int) -> Tuple[int, int]:
        """Allocate an ExpID in the key's partition (caller commits);
        returns ``(exp_id, partition_id)``."""
        partition_id = self.get_or_create_partition(key.name, key.factor_fingerprint)
        cur = self.conn.execute(
            "INSERT INTO Experiments (PartitionID, Name, Comment, EEVersion, "
            "ExpXML, ContentDigest, FactorFingerprint, SourcePath, IngestSeq) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
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
        return cur.lastrowid, partition_id

    def experiments(self) -> List[Dict[str, Any]]:
        return [
            dict(row)
            for row in self.conn.execute(
                "SELECT ExpID, PartitionID, Name, Comment, EEVersion, "
                "ContentDigest, FactorFingerprint, SourcePath, IngestSeq "
                "FROM Experiments ORDER BY ExpID"
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
            "SELECT ExpID FROM Experiments WHERE Name = ? ORDER BY ExpID DESC",
            (name,),
        ).fetchone()
        if row is None:
            raise StorageError(f"no experiment named {name!r} in warehouse")
        return row[0]


def _older_layout(root: Path) -> StorageError:
    return StorageError(
        f"{root} is a warehouse in the older one-file-per-partition layout; "
        f"re-ingest its packages into a fresh root"
    )
