"""Storage level 3: the single-experiment SQLite database (Table I).

Sec. IV-F: *"Data from the second level plus the experiment description
are then stored into a single package on the third level.  This package
represents one complete experiment and is preferably stored as a database
... ExCovery currently stores the third level in a file based relational
SQLite database."*

The schema reproduces Table I verbatim:

======================  ==================================================
Table                   Attributes
======================  ==================================================
ExperimentInfo          ExpXML, EEVersion, Name, Comment
Logs                    NodeID, Log
EEFiles                 ID, File
ExperimentMeasurements  ID, NodeID, Name, Content
RunInfos                RunID, NodeID, StartTime, TimeDiff, AbortReason
ExtraRunMeasurements    RunID, NodeID, Name, Content
Events                  RunID, NodeID, CommonTime, EventType, Parameter
Packets                 RunID, NodeID, CommonTime, SrcNodeID, Data
======================  ==================================================

``Parameter`` and ``Content`` hold JSON; ``Data`` holds the serialized
packet record (the raw-data blob of the paper).  ``AbortReason`` is the
reproduction's one extension beyond Table I: NULL for a run that
completed on its first attempt, else the recorded failure of the last
aborted attempt (DESIGN.md §10) — the surviving data itself is identical
to a fault-free execution's.
"""

from __future__ import annotations

import json
import sqlite3
import xml.etree.ElementTree as ET
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.core.description import EE_VERSION
from repro.core.errors import StorageError
from repro.durable import sync_file as fsync_database  # the fast write path's one sync point
from repro.storage.conditioning import (
    ConditionedExperiment,
    condition_scope,
    iter_conditioned_runs,
)
from repro.storage.level2 import Level2Store

__all__ = [
    "TABLE_SCHEMAS",
    "EXTENSION_TABLES",
    "RUN_TABLES",
    "EXTENSION_RUN_TABLES",
    "CHECKSUM_TABLE",
    "TABLE1_DIGEST_KEY",
    "read_stamped_digest",
    "stamp_table1_digest",
    "create_schema",
    "open_fast_connection",
    "fsync_database",
    "insert_experiment_scope",
    "insert_run",
    "insert_fault_leases",
    "insert_run_traces",
    "insert_salvage_info",
    "store_level3",
    "ExperimentDatabase",
]

#: Table name -> ordered attribute list, exactly as printed in Table I.
TABLE_SCHEMAS: Dict[str, List[str]] = {
    "ExperimentInfo": ["ExpXML", "EEVersion", "Name", "Comment"],
    "Logs": ["NodeID", "Log"],
    "EEFiles": ["ID", "File"],
    "ExperimentMeasurements": ["ID", "NodeID", "Name", "Content"],
    "RunInfos": ["RunID", "NodeID", "StartTime", "TimeDiff", "AbortReason"],
    "ExtraRunMeasurements": ["RunID", "NodeID", "Name", "Content"],
    "Events": ["RunID", "NodeID", "CommonTime", "EventType", "Parameter"],
    "Packets": ["RunID", "NodeID", "CommonTime", "SrcNodeID", "Data"],
}

_DDL = """
CREATE TABLE ExperimentInfo (
    ExpXML    TEXT NOT NULL,
    EEVersion TEXT NOT NULL,
    Name      TEXT NOT NULL,
    Comment   TEXT NOT NULL DEFAULT ''
);
CREATE TABLE Logs (
    NodeID TEXT NOT NULL,
    Log    TEXT NOT NULL
);
CREATE TABLE EEFiles (
    ID   TEXT PRIMARY KEY,
    File TEXT NOT NULL
);
CREATE TABLE ExperimentMeasurements (
    ID      INTEGER PRIMARY KEY AUTOINCREMENT,
    NodeID  TEXT NOT NULL,
    Name    TEXT NOT NULL,
    Content TEXT NOT NULL
);
CREATE TABLE RunInfos (
    RunID       INTEGER NOT NULL,
    NodeID      TEXT NOT NULL,
    StartTime   REAL NOT NULL,
    TimeDiff    REAL NOT NULL,
    AbortReason TEXT,
    PRIMARY KEY (RunID, NodeID)
);
CREATE TABLE ExtraRunMeasurements (
    RunID   INTEGER NOT NULL,
    NodeID  TEXT NOT NULL,
    Name    TEXT NOT NULL,
    Content TEXT NOT NULL
);
CREATE TABLE Events (
    RunID      INTEGER,
    NodeID     TEXT NOT NULL,
    CommonTime REAL NOT NULL,
    EventType  TEXT NOT NULL,
    Parameter  TEXT NOT NULL
);
CREATE TABLE Packets (
    RunID      INTEGER,
    NodeID     TEXT NOT NULL,
    CommonTime REAL NOT NULL,
    SrcNodeID  TEXT NOT NULL,
    Data       TEXT NOT NULL
);
CREATE INDEX idx_events_run ON Events (RunID, EventType);
CREATE INDEX idx_packets_run ON Packets (RunID);
"""

#: Integrity side tables beyond Table I (DESIGN.md §11).  Deliberately
#: kept out of :data:`TABLE_SCHEMAS` so the default ``database_digest``
#: stays Table-I-only: a run whose leaked fault was reconciled, or whose
#: corrupt records were salvaged away on a clean retry, must still digest
#: byte-identical to a fault-free execution.
EXTENSION_TABLES: Dict[str, List[str]] = {
    "FaultLeases": [
        "RunID", "NodeID", "Kind", "LeaseID", "Event",
        "AcquiredAt", "ExpiresAt", "ReconciledAt",
    ],
    "SalvageInfo": [
        "RunID", "NodeID", "Stream", "RecordsKept", "RecordsDropped", "Reason",
    ],
    "RunTraces": [
        "RunID", "NodeID", "SpanID", "ParentID", "Name",
        "StartTime", "EndTime", "Status", "Attrs",
    ],
}

#: Extension tables keyed by run id (campaign merge reorders these too).
EXTENSION_RUN_TABLES = ("FaultLeases", "SalvageInfo", "RunTraces")

#: Side table carrying checksums *of* the package.  Deliberately outside
#: both :data:`TABLE_SCHEMAS` and :data:`EXTENSION_TABLES`: it stores the
#: Table-I digest and therefore must never feed it, and the campaign
#: merge never copies it (each finalized database stamps its own).
CHECKSUM_TABLE = "PackageChecksums"

#: ``PackageChecksums.Name`` of the Table-I content digest
#: (:func:`repro.campaign.merge.database_digest` with default arguments).
TABLE1_DIGEST_KEY = "table1_sha256"

_CHECKSUM_DDL = (
    f"CREATE TABLE IF NOT EXISTS {CHECKSUM_TABLE} "
    "(Name TEXT PRIMARY KEY, Value TEXT NOT NULL)"
)

_EXTENSION_DDL = """
CREATE TABLE FaultLeases (
    RunID        INTEGER,
    NodeID       TEXT NOT NULL,
    Kind         TEXT NOT NULL,
    LeaseID      TEXT NOT NULL,
    Event        TEXT NOT NULL,
    AcquiredAt   REAL,
    ExpiresAt    REAL,
    ReconciledAt REAL
);
CREATE TABLE SalvageInfo (
    RunID          INTEGER,
    NodeID         TEXT NOT NULL,
    Stream         TEXT NOT NULL,
    RecordsKept    INTEGER NOT NULL,
    RecordsDropped INTEGER NOT NULL,
    Reason         TEXT NOT NULL
);
CREATE TABLE RunTraces (
    RunID     INTEGER,
    NodeID    TEXT NOT NULL,
    SpanID    INTEGER NOT NULL,
    ParentID  INTEGER,
    Name      TEXT NOT NULL,
    StartTime REAL NOT NULL,
    EndTime   REAL NOT NULL,
    Status    TEXT NOT NULL,
    Attrs     TEXT NOT NULL
);
CREATE INDEX idx_runtraces_run ON RunTraces (RunID, Name);
"""


def _addr_to_node_map(description_xml: str) -> Dict[str, str]:
    """Address -> platform node id, from the stored description's platform
    spec (used to fill the SrcNodeID attribute)."""
    mapping: Dict[str, str] = {}
    try:
        root = ET.fromstring(description_xml)
    except ET.ParseError:
        return mapping
    platform = root.find("platform")
    if platform is None:
        return mapping
    for node in platform:
        addr = node.get("address")
        nid = node.get("id")
        if addr and nid:
            mapping[addr] = nid
    return mapping


#: Tables keyed by run id — the campaign merge shards and reorders exactly
#: these; everything else is experiment scope and stored once.
RUN_TABLES = ("RunInfos", "ExtraRunMeasurements", "Events", "Packets")


def create_schema(conn: sqlite3.Connection) -> None:
    """Create the Table I schema (plus the integrity side tables) on an
    empty database connection."""
    conn.executescript(_DDL)
    conn.executescript(_EXTENSION_DDL)
    conn.execute(_CHECKSUM_DDL)


def open_fast_connection(path, fresh: bool = True) -> sqlite3.Connection:
    """Open a write connection tuned for bulk-loading a level-3 package.

    With ``fresh=True`` (a database nobody reads until we finish, whose
    partial state is worthless on a crash — it is simply rebuilt from
    level 2) the rollback journal and per-statement syncs are disabled
    entirely; durability comes from one :func:`fsync_database` after the
    connection is closed.  With ``fresh=False`` (a campaign shard that a
    crashed campaign must be able to resume from) the rollback journal
    stays on so transactions remain atomic across process crashes; only
    the per-write fsyncs are skipped.

    The connection is in autocommit mode (``isolation_level=None``); the
    caller brackets its inserts with explicit BEGIN/COMMIT.
    """
    conn = sqlite3.connect(str(path), isolation_level=None)
    if fresh:
        conn.execute("PRAGMA journal_mode=OFF")
        conn.execute("PRAGMA synchronous=OFF")
    else:
        conn.execute("PRAGMA synchronous=OFF")
    conn.execute("PRAGMA cache_size=-16384")  # 16 MiB page cache
    return conn


def read_stamped_digest(db_path) -> Optional[str]:
    """The Table-I digest stamped at package finalization, or ``None``.

    ``None`` means the package predates stamping (or was written by an
    external tool); callers fall back to computing the digest.  The stamp
    is only as fresh as the last framework write — anything that edits a
    package behind the framework's back leaves it stale, which is why
    verification paths recompute instead of trusting it
    (:func:`repro.repo.fingerprint.content_fingerprint` with
    ``trusted=False``).
    """
    conn = sqlite3.connect(str(db_path))
    try:
        try:
            row = conn.execute(
                f"SELECT Value FROM {CHECKSUM_TABLE} WHERE Name = ?",
                (TABLE1_DIGEST_KEY,),
            ).fetchone()
        except sqlite3.OperationalError:  # pre-stamp package: no table
            return None
    finally:
        conn.close()
    return row[0] if row else None


def stamp_table1_digest(db_path) -> str:
    """Compute the package's Table-I digest and stamp it into
    :data:`CHECKSUM_TABLE`, returning the digest.

    Every framework writer calls this as its last content mutation
    before the final fsync, so ingest and import paths can read the
    digest back in O(1) instead of re-hashing megabytes per package.
    The digest covers :data:`TABLE_SCHEMAS` only, never the checksum
    table itself — stamping cannot perturb the value it records.
    """
    # Deferred import: merge imports this module at load time.
    from repro.campaign.merge import database_digest

    value = database_digest(db_path)
    conn = sqlite3.connect(str(db_path))
    try:
        conn.execute(_CHECKSUM_DDL)
        conn.execute(
            f"INSERT OR REPLACE INTO {CHECKSUM_TABLE} (Name, Value) "
            "VALUES (?, ?)",
            (TABLE1_DIGEST_KEY, value),
        )
        conn.commit()
    finally:
        conn.close()
    return value


def insert_experiment_scope(conn: sqlite3.Connection, data: ConditionedExperiment) -> None:
    """Insert the experiment-scope tables (everything but the run data)."""
    name, comment = _name_comment(data.description_xml)
    conn.execute(
        "INSERT INTO ExperimentInfo (ExpXML, EEVersion, Name, Comment) "
        "VALUES (?, ?, ?, ?)",
        (data.description_xml, EE_VERSION, name, comment),
    )
    conn.executemany(
        "INSERT INTO Logs (NodeID, Log) VALUES (?, ?)",
        sorted(data.node_logs.items()),
    )
    conn.executemany(
        "INSERT INTO EEFiles (ID, File) VALUES (?, ?)",
        sorted(data.eefiles.items()),
    )
    conn.execute(
        "INSERT INTO EEFiles (ID, File) VALUES (?, ?)",
        ("plan.json", json.dumps(data.plan, sort_keys=True)),
    )
    conn.executemany(
        "INSERT INTO ExperimentMeasurements (NodeID, Name, Content) "
        "VALUES (?, ?, ?)",
        (
            ("master", mname, json.dumps(content, sort_keys=True))
            for mname, content in sorted(data.experiment_measurements.items())
        ),
    )


def insert_run(conn: sqlite3.Connection, run, src_map: Dict[str, str]) -> None:
    """Insert one :class:`ConditionedRun`'s rows into the run tables."""
    conn.executemany(
        "INSERT INTO RunInfos (RunID, NodeID, StartTime, TimeDiff) "
        "VALUES (?, ?, ?, ?)",
        (
            (run.run_id, node_id, run.start_time, offset)
            for node_id, offset in sorted(run.offsets.items())
        ),
    )
    conn.executemany(
        "INSERT INTO ExtraRunMeasurements "
        "(RunID, NodeID, Name, Content) VALUES (?, ?, ?, ?)",
        (
            (run.run_id, node_id, pname, json.dumps(content, sort_keys=True))
            for node_id, plugins in sorted(run.extra_measurements.items())
            for pname, content in sorted(plugins.items())
        ),
    )
    conn.executemany(
        "INSERT INTO Events (RunID, NodeID, CommonTime, EventType, Parameter) "
        "VALUES (?, ?, ?, ?, ?)",
        (
            (
                rec.get("run_id"),
                rec["node"],
                rec["common_time"],
                rec["name"],
                json.dumps(rec.get("params", []), sort_keys=True),
            )
            for rec in run.events
        ),
    )
    conn.executemany(
        "INSERT INTO Packets (RunID, NodeID, CommonTime, SrcNodeID, Data) "
        "VALUES (?, ?, ?, ?, ?)",
        (
            (
                rec.get("run_id"),
                rec["node"],
                rec["common_time"],
                src_map.get(rec.get("src", ""), rec.get("src", "")),
                json.dumps(rec, sort_keys=True),
            )
            for rec in run.packets
        ),
    )


def insert_fault_leases(conn: sqlite3.Connection, records: List[Dict[str, Any]]) -> None:
    """Insert reconciled-lease records (level-2 ``master/fault_leases.jsonl``)
    into the FaultLeases side table."""
    conn.executemany(
        "INSERT INTO FaultLeases "
        "(RunID, NodeID, Kind, LeaseID, Event, AcquiredAt, ExpiresAt, ReconciledAt) "
        "VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
        (
            (
                rec.get("run_id"),
                rec.get("node", ""),
                rec.get("kind", ""),
                rec.get("lease_id", ""),
                rec.get("event", "fault_leak_reconciled"),
                rec.get("acquired_at"),
                rec.get("expires_at"),
                rec.get("reconciled_at"),
            )
            for rec in records
        ),
    )


def insert_salvage_info(conn: sqlite3.Connection, records: List[Dict[str, Any]]) -> None:
    """Insert per-(run, node, stream) salvage records into SalvageInfo."""
    conn.executemany(
        "INSERT INTO SalvageInfo "
        "(RunID, NodeID, Stream, RecordsKept, RecordsDropped, Reason) "
        "VALUES (?, ?, ?, ?, ?, ?)",
        (
            (
                rec.get("run_id"),
                rec.get("node", ""),
                rec.get("stream", ""),
                rec.get("kept", 0),
                rec.get("dropped", 0),
                rec.get("reason", ""),
            )
            for rec in records
        ),
    )


def insert_run_traces(conn: sqlite3.Connection, records: List[Dict[str, Any]]) -> None:
    """Insert harness span records (level-2 ``traces.jsonl`` streams) into
    the RunTraces side table.  Like the other extension tables this never
    feeds the Table-I digest — the span payload carries wall-clock
    timings, which are execution-specific by nature."""
    conn.executemany(
        "INSERT INTO RunTraces "
        "(RunID, NodeID, SpanID, ParentID, Name, StartTime, EndTime, Status, Attrs) "
        "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
        (
            (
                rec.get("run_id"),
                rec.get("node", "master"),
                rec.get("span_id", 0),
                rec.get("parent_id"),
                rec.get("name", ""),
                rec.get("start", 0.0),
                rec.get("end", rec.get("start", 0.0)),
                rec.get("status", "ok"),
                json.dumps(rec.get("attrs", {}), sort_keys=True),
            )
            for rec in records
        ),
    )


def store_level3(source, db_path) -> Path:
    """Condition *source* and write the level-3 SQLite package.

    *source* is a :class:`Level2Store` or an already-conditioned
    :class:`ConditionedExperiment`.  Returns the database path.

    This is the storage fast path: the database is written with the
    rollback journal and per-statement syncs off (it is freshly created
    and fsync'd once at the end), all inserts run inside one explicit
    transaction, and — when *source* is a :class:`Level2Store` — runs
    are conditioned and inserted one at a time, so peak memory is one
    run's records regardless of experiment size.  The produced table
    contents are identical to the pre-optimization writer's.
    """
    if isinstance(source, Level2Store):
        scope: ConditionedExperiment = condition_scope(source)
        runs: Iterator = iter_conditioned_runs(source)
    elif isinstance(source, ConditionedExperiment):
        scope = source
        runs = iter(source.runs)
    else:
        raise StorageError(f"cannot store {type(source).__name__} as level 3")

    db_path = Path(db_path)
    if db_path.exists():
        raise StorageError(f"refusing to overwrite existing database {db_path}")
    db_path.parent.mkdir(parents=True, exist_ok=True)

    conn = open_fast_connection(db_path, fresh=True)
    try:
        create_schema(conn)
        conn.execute("BEGIN")
        insert_experiment_scope(conn, scope)
        src_map = _addr_to_node_map(scope.description_xml)
        for run in runs:
            insert_run(conn, run, src_map)
        if isinstance(source, Level2Store):
            # Integrity side tables: the reconciled-leak log written by the
            # master's sweeps, and whatever the just-finished conditioning
            # pass salvaged (non-empty only with source.salvage=True).
            insert_fault_leases(conn, source.read_reconciled_leases())
            insert_salvage_info(conn, source.salvage_records())
            # Harness spans: per-run streams first (run id ascending, node
            # ascending, file order within), then experiment-scope spans.
            for run_id in source.run_ids():
                traces = source.read_run_stream(run_id, "traces.jsonl")
                for node_id in sorted(traces):
                    insert_run_traces(conn, traces[node_id])
            insert_run_traces(conn, source.read_experiment_traces())
        else:
            insert_salvage_info(conn, scope.salvage_records)
        conn.execute("COMMIT")
    finally:
        conn.close()
    if isinstance(source, Level2Store):
        source.write_salvage_report()
    stamp_table1_digest(db_path)
    fsync_database(db_path)
    return db_path


def _name_comment(description_xml: str) -> Tuple[str, str]:
    try:
        root = ET.fromstring(description_xml)
        return root.get("name", "unnamed"), root.get("comment", "")
    except ET.ParseError:
        return "unnamed", ""


class ExperimentDatabase:
    """Read access to a level-3 package."""

    def __init__(self, db_path) -> None:
        self.db_path = Path(db_path)
        if not self.db_path.exists():
            raise StorageError(f"no database at {self.db_path}")
        self.conn = sqlite3.connect(str(self.db_path))
        self.conn.row_factory = sqlite3.Row

    def close(self) -> None:
        self.conn.close()

    def __enter__(self) -> "ExperimentDatabase":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Schema introspection (the Table I reproduction)
    # ------------------------------------------------------------------
    def schema(self) -> Dict[str, List[str]]:
        """``{table: [attribute, ...]}`` as stored, Table I order."""
        out: Dict[str, List[str]] = {}
        for (table,) in self.conn.execute(
            "SELECT name FROM sqlite_master WHERE type='table' "
            "AND name NOT LIKE 'sqlite_%' ORDER BY name"
        ):
            cols = [row[1] for row in self.conn.execute(f"PRAGMA table_info({table})")]
            out[table] = cols
        return out

    def row_counts(self) -> Dict[str, int]:
        return {
            table: self.conn.execute(f"SELECT COUNT(*) FROM {table}").fetchone()[0]
            for table in self.schema()
        }

    # ------------------------------------------------------------------
    # Typed readers
    # ------------------------------------------------------------------
    def experiment_info(self) -> Dict[str, str]:
        row = self.conn.execute(
            "SELECT ExpXML, EEVersion, Name, Comment FROM ExperimentInfo"
        ).fetchone()
        if row is None:
            raise StorageError("empty ExperimentInfo table")
        return dict(row)

    def run_ids(self) -> List[int]:
        return [
            r[0]
            for r in self.conn.execute(
                "SELECT DISTINCT RunID FROM RunInfos ORDER BY RunID"
            )
        ]

    def node_ids(self) -> List[str]:
        return [
            r[0]
            for r in self.conn.execute(
                "SELECT DISTINCT NodeID FROM RunInfos ORDER BY NodeID"
            )
        ]

    def events(
        self,
        run_id: Optional[int] = None,
        event_type: Optional[str] = None,
        node_id: Optional[str] = None,
    ) -> List[Dict[str, Any]]:
        """Event records (with parsed params), ordered by common time."""
        query = (
            "SELECT RunID, NodeID, CommonTime, EventType, Parameter FROM Events"
        )
        clauses, args = [], []
        if run_id is not None:
            clauses.append("RunID = ?")
            args.append(run_id)
        if event_type is not None:
            clauses.append("EventType = ?")
            args.append(event_type)
        if node_id is not None:
            clauses.append("NodeID = ?")
            args.append(node_id)
        if clauses:
            query += " WHERE " + " AND ".join(clauses)
        query += " ORDER BY CommonTime, NodeID, rowid"
        return [
            {
                "run_id": row["RunID"],
                "node": row["NodeID"],
                "common_time": row["CommonTime"],
                "name": row["EventType"],
                "params": json.loads(row["Parameter"]),
            }
            for row in self.conn.execute(query, args)
        ]

    def iter_events(
        self,
        run_id: Optional[int] = None,
        event_type: Optional[str] = None,
        node_id: Optional[str] = None,
        chunk_size: int = 4096,
    ) -> Iterator[Dict[str, Any]]:
        """Stream event records without materializing the result set.

        Same filters and record shape as :meth:`events`, but rows arrive
        through a dedicated cursor in ``chunk_size`` batches — analysis
        over multi-gigabyte packages runs in constant memory.
        """
        query = (
            "SELECT RunID, NodeID, CommonTime, EventType, Parameter FROM Events"
        )
        clauses, args = [], []
        if run_id is not None:
            clauses.append("RunID = ?")
            args.append(run_id)
        if event_type is not None:
            clauses.append("EventType = ?")
            args.append(event_type)
        if node_id is not None:
            clauses.append("NodeID = ?")
            args.append(node_id)
        if clauses:
            query += " WHERE " + " AND ".join(clauses)
        query += " ORDER BY CommonTime, NodeID, rowid"
        cursor = self.conn.cursor()
        try:
            cursor.execute(query, args)
            while True:
                rows = cursor.fetchmany(chunk_size)
                if not rows:
                    return
                for row in rows:
                    yield {
                        "run_id": row["RunID"],
                        "node": row["NodeID"],
                        "common_time": row["CommonTime"],
                        "name": row["EventType"],
                        "params": json.loads(row["Parameter"]),
                    }
        finally:
            cursor.close()

    def packets(self, run_id: Optional[int] = None) -> List[Dict[str, Any]]:
        return list(self.iter_packets(run_id=run_id))

    def iter_packets(
        self, run_id: Optional[int] = None, chunk_size: int = 4096
    ) -> Iterator[Dict[str, Any]]:
        """Stream packet records (see :meth:`iter_events`)."""
        query = "SELECT RunID, NodeID, CommonTime, SrcNodeID, Data FROM Packets"
        args: List[Any] = []
        if run_id is not None:
            query += " WHERE RunID = ?"
            args.append(run_id)
        query += " ORDER BY CommonTime, NodeID, rowid"
        cursor = self.conn.cursor()
        try:
            cursor.execute(query, args)
            while True:
                rows = cursor.fetchmany(chunk_size)
                if not rows:
                    return
                for row in rows:
                    rec = json.loads(row["Data"])
                    rec["src_node"] = row["SrcNodeID"]
                    yield rec
        finally:
            cursor.close()

    def run_infos(self, run_id: Optional[int] = None) -> List[Dict[str, Any]]:
        query = "SELECT RunID, NodeID, StartTime, TimeDiff FROM RunInfos"
        args: List[Any] = []
        if run_id is not None:
            query += " WHERE RunID = ?"
            args.append(run_id)
        query += " ORDER BY RunID, NodeID, rowid"
        return [dict(row) for row in self.conn.execute(query, args)]

    def abort_reasons(self) -> Dict[int, str]:
        """``{run_id: reason}`` for runs whose earlier attempt aborted.

        Empty for fault-free executions; also empty (not an error) when
        reading a pre-AbortReason database.
        """
        try:
            rows = self.conn.execute(
                "SELECT DISTINCT RunID, AbortReason FROM RunInfos "
                "WHERE AbortReason IS NOT NULL ORDER BY RunID"
            ).fetchall()
        except sqlite3.OperationalError:  # old schema without the column
            return {}
        return {row["RunID"]: row["AbortReason"] for row in rows}

    def plan(self) -> List[Dict[str, Any]]:
        row = self.conn.execute(
            "SELECT File FROM EEFiles WHERE ID = 'plan.json'"
        ).fetchone()
        if row is None:
            raise StorageError("no plan.json in EEFiles")
        return json.loads(row[0])

    def event_pair_latencies(
        self,
        start_type: str,
        end_type: str,
        node_id: Optional[str] = None,
        per_run: bool = True,
    ) -> List[Dict[str, Any]]:
        """Latencies between the first *start_type* and the first
        subsequent *end_type* event, per run (optionally per node).

        The generic form of the t_R extraction — works for any
        action/completion event pair a process domain defines
        (``sd_start_search``/``sd_service_add``,
        ``echo_start``/``echo_reply``, fault start/stop, ...).  Runs where
        the end event never follows the start are reported with
        ``latency = None``.

        One SQL pass over the two event types serves every run — the
        former per-run query loop was N+1 and dominated analysis time on
        large campaign databases.
        """
        query = (
            "SELECT RunID, CommonTime, EventType FROM Events "
            "WHERE EventType IN (?, ?)"
        )
        args: List[Any] = [start_type, end_type]
        if node_id is not None:
            query += " AND NodeID = ?"
            args.append(node_id)
        if per_run:
            # Restrict to runs the RunInfos table knows, as the per-run
            # loop over run_ids() did.
            query += " AND RunID IN (SELECT DISTINCT RunID FROM RunInfos)"
            query += " ORDER BY RunID, CommonTime, NodeID"
        else:
            query += " ORDER BY CommonTime, NodeID, rowid"

        out: List[Dict[str, Any]] = []
        current: Any = object()  # sentinel != any run id
        start_t: Optional[float] = None
        end_t: Optional[float] = None

        def close_group(run_key) -> None:
            if start_t is not None:
                out.append({
                    "run_id": run_key,
                    "start": start_t,
                    "end": end_t,
                    "latency": (end_t - start_t) if end_t is not None else None,
                })

        for row in self.conn.execute(query, args):
            run_key = row["RunID"] if per_run else None
            if per_run and run_key != current:
                close_group(current)
                current = run_key
                start_t = end_t = None
            name, t = row["EventType"], row["CommonTime"]
            if name == start_type and start_t is None:
                start_t = t
            elif (
                name == end_type and start_t is not None
                and end_t is None and t >= start_t
            ):
                end_t = t
        close_group(current if per_run else None)
        return out

    def fault_leases(self, run_id: Optional[int] = None) -> List[Dict[str, Any]]:
        """Reconciled fault-lease rows (empty for fault-free executions and,
        not an error, for pre-extension databases)."""
        query = (
            "SELECT RunID, NodeID, Kind, LeaseID, Event, "
            "AcquiredAt, ExpiresAt, ReconciledAt FROM FaultLeases"
        )
        args: List[Any] = []
        if run_id is not None:
            query += " WHERE RunID = ?"
            args.append(run_id)
        query += " ORDER BY RunID, NodeID, LeaseID"
        try:
            rows = self.conn.execute(query, args).fetchall()
        except sqlite3.OperationalError:  # old schema without the table
            return []
        return [dict(row) for row in rows]

    def salvage_info(self, run_id: Optional[int] = None) -> List[Dict[str, Any]]:
        """Salvage-conditioning rows (empty unless the package was built
        with ``--salvage`` over a corrupt store)."""
        query = (
            "SELECT RunID, NodeID, Stream, RecordsKept, RecordsDropped, Reason "
            "FROM SalvageInfo"
        )
        args: List[Any] = []
        if run_id is not None:
            query += " WHERE RunID = ?"
            args.append(run_id)
        query += " ORDER BY RunID, NodeID, Stream"
        try:
            rows = self.conn.execute(query, args).fetchall()
        except sqlite3.OperationalError:  # old schema without the table
            return []
        return [dict(row) for row in rows]

    def run_traces(self, run_id: Optional[int] = None) -> List[Dict[str, Any]]:
        """Harness span records, as the tracer drained them.

        ``run_id=None`` returns every row including experiment-scope
        spans (``RunID IS NULL``).  Empty — not an error — for databases
        built before the table existed or with tracing disabled.
        """
        query = (
            "SELECT RunID, NodeID, SpanID, ParentID, Name, "
            "StartTime, EndTime, Status, Attrs FROM RunTraces"
        )
        args: List[Any] = []
        if run_id is not None:
            query += " WHERE RunID = ?"
            args.append(run_id)
        query += " ORDER BY RunID, StartTime, SpanID"
        try:
            rows = self.conn.execute(query, args).fetchall()
        except sqlite3.OperationalError:  # old schema without the table
            return []
        return [
            {
                "run_id": row["RunID"],
                "node": row["NodeID"],
                "span_id": row["SpanID"],
                "parent_id": row["ParentID"],
                "name": row["Name"],
                "start": row["StartTime"],
                "end": row["EndTime"],
                "status": row["Status"],
                "attrs": json.loads(row["Attrs"]) if row["Attrs"] else {},
            }
            for row in rows
        ]

    def extra_measurements(self, run_id: int) -> Dict[str, Dict[str, Any]]:
        out: Dict[str, Dict[str, Any]] = {}
        for row in self.conn.execute(
            "SELECT NodeID, Name, Content FROM ExtraRunMeasurements WHERE RunID = ?",
            (run_id,),
        ):
            out.setdefault(row["NodeID"], {})[row["Name"]] = json.loads(row["Content"])
        return out
