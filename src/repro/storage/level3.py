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

import hashlib
import sqlite3
import xml.etree.ElementTree as ET
from contextlib import closing, contextmanager
from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.description import EE_VERSION
from repro.core.errors import StorageError
from repro.durable import decode_record, encode_record
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
    "ALL_RUN_TABLES",
    "CHECKSUM_TABLE",
    "TABLE1_DIGEST_KEY",
    "database_digest",
    "read_stamped_digest",
    "stamp_table1_digest",
    "create_schema",
    "open_fast_connection",
    "fresh_database",
    "fsync_database",
    "insert_experiment_scope",
    "insert_run",
    "insert_run_traces",
    "store_level3",
    "copy_run_rows",
    "serialize_run",
    "RunShard",
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

#: Side tables beyond Table I.  Deliberately kept out of
#: :data:`TABLE_SCHEMAS` so the default ``database_digest`` stays
#: Table-I-only: harness spans carry wall-clock timings, so two executions
#: of one run differ here while their Table-I rows are byte-identical.
EXTENSION_TABLES: Dict[str, List[str]] = {
    "RunTraces": [
        "RunID", "NodeID", "SpanID", "ParentID", "Name",
        "StartTime", "EndTime", "Status", "Attrs",
    ],
}

#: Extension tables keyed by run id (campaign merge reorders these too).
EXTENSION_RUN_TABLES = ("RunTraces",)

#: Column lookup across Table I and the side tables.
_ALL_SCHEMAS: Dict[str, List[str]] = {**TABLE_SCHEMAS, **EXTENSION_TABLES}

#: Side table carrying checksums *of* the package.  Deliberately outside
#: both :data:`TABLE_SCHEMAS` and :data:`EXTENSION_TABLES`: it stores the
#: Table-I digest and therefore must never feed it, and the campaign
#: merge never copies it (each finalized database stamps its own).
CHECKSUM_TABLE = "PackageChecksums"

#: Rows of one table the digest reads per query (a keyset page by rowid).
_DIGEST_PAGE_ROWS = 256

#: ``PackageChecksums.Name`` of the Table-I content digest
#: (:func:`database_digest` with default arguments).
TABLE1_DIGEST_KEY = "table1_sha256"

_CHECKSUM_DDL = (
    f"CREATE TABLE IF NOT EXISTS {CHECKSUM_TABLE} "
    "(Name TEXT PRIMARY KEY, Value TEXT NOT NULL)"
)

_EXTENSION_DDL = """
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
    """Create the Table I schema (plus the side tables) on an
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
    return conn


@contextmanager
def fresh_database(db_path) -> Iterator[Path]:
    """Bracket the write of a new level-3 package at *db_path*.

    Refuses an existing file; when the body raises, unlinks whatever it
    left, so a failed write never blocks its retry with "refusing to
    overwrite".
    """
    db_path = Path(db_path)
    if db_path.exists():
        raise StorageError(f"refusing to overwrite existing database {db_path}")
    db_path.parent.mkdir(parents=True, exist_ok=True)
    try:
        yield db_path
    except BaseException:
        db_path.unlink(missing_ok=True)
        raise


def _open_read_only(db_path) -> sqlite3.Connection:
    """A read-only connection to an existing package; never creates a file."""
    try:
        return sqlite3.connect(f"{Path(db_path).absolute().as_uri()}?mode=ro", uri=True)
    except sqlite3.OperationalError:
        raise StorageError(f"no database at {db_path}") from None


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
    with closing(_open_read_only(db_path)) as conn:
        try:
            row = conn.execute(
                f"SELECT Value FROM {CHECKSUM_TABLE} WHERE Name = ?",
                (TABLE1_DIGEST_KEY,),
            ).fetchone()
        except sqlite3.OperationalError:  # pre-stamp package: no table
            return None
    return row[0] if row else None


def database_digest(db_path, ignore_columns: Iterable[str] = ()) -> str:
    """Content hash of a level-3 database for equivalence checks.

    Hashes every table's rows *in stored order* (row order is part of the
    merge's determinism contract).  ``ignore_columns`` masks columns that
    are legitimately execution-specific — e.g. wall-clock timestamps an
    analysis pipeline may add — before hashing.

    The table set is Table I only (:data:`TABLE_SCHEMAS`): the side
    tables record harness timings, which are execution-specific by
    nature, so they must not perturb equivalence checks between a
    retried execution and a clean one.  The package is opened read-only;
    a missing one raises :class:`StorageError`.  Only digest *equality*
    is contractual; the literal hex value may change between framework
    versions.
    """
    with closing(_open_read_only(db_path)) as conn:
        return _table1_digest(conn, ignore_columns)


def _table1_digest(conn: sqlite3.Connection, ignore_columns: Iterable[str] = ()) -> str:
    """:func:`database_digest` of *conn*'s ``main`` tables, its open
    transaction's rows included.  Rows are serialized inside SQLite
    (``quote()`` per column) and read in keyset pages by rowid — an
    integer-primary-key search, no sorter — each page one ``bytes`` of
    "row, newline" per row: the hashed stream does not depend on the page
    size, and memory is bounded by one page, not by the package."""
    ignored = set(ignore_columns)
    digest = hashlib.sha256()
    for table, columns in TABLE_SCHEMAS.items():
        keep = [c for c in columns if c not in ignored]
        digest.update(f"--{table}({','.join(keep)})--".encode())
        if not keep:
            continue
        row_expr = " || '|' || ".join(f"quote({c})" for c in keep)
        page_query = (
            f"SELECT CAST(group_concat(s, char(10)) || char(10) AS BLOB), max(rid) "
            f"FROM (SELECT {row_expr} AS s, rowid AS rid FROM main.{table} "
            f"WHERE rowid > ? ORDER BY rowid LIMIT {_DIGEST_PAGE_ROWS})"
        )
        page, last = b"", float("-inf")  # -inf: below every rowid
        while last is not None:
            digest.update(page)
            page, last = conn.execute(page_query, (last,)).fetchone()
    return digest.hexdigest()


def stamp_table1_digest(conn: sqlite3.Connection) -> str:
    """Stamp the Table-I digest of *conn*'s ``main`` database into
    :data:`CHECKSUM_TABLE` and return it.

    Every framework writer calls this inside its one write transaction,
    after its last content mutation, so the stamp commits with the rows
    it covers; ingest and import paths then read the digest back in O(1)
    instead of re-hashing megabytes per package.  The digest covers
    :data:`TABLE_SCHEMAS` only, never the checksum table itself —
    stamping cannot perturb the value it records.
    """
    value = _table1_digest(conn)
    conn.execute(_CHECKSUM_DDL)
    conn.execute(
        f"INSERT OR REPLACE INTO {CHECKSUM_TABLE} (Name, Value) VALUES (?, ?)",
        (TABLE1_DIGEST_KEY, value),
    )
    return value


def _insert(conn: sqlite3.Connection, table: str, rows: Iterable[Sequence[Any]]) -> int:
    """The one ``INSERT``: full-width *rows* (the table's schema order) in
    the order given; returns the number written."""
    columns = _ALL_SCHEMAS[table]
    return conn.executemany(
        f"INSERT INTO {table} ({', '.join(columns)}) VALUES ({', '.join('?' * len(columns))})",
        rows,
    ).rowcount


def insert_experiment_scope(conn: sqlite3.Connection, data: ConditionedExperiment) -> None:
    """Insert the experiment-scope tables (everything but the run data)."""
    name, comment = _name_comment(data.description_xml)
    _insert(conn, "ExperimentInfo", [(data.description_xml, EE_VERSION, name, comment)])
    _insert(conn, "Logs", sorted(data.node_logs.items()))
    _insert(conn, "EEFiles", sorted(data.eefiles.items()))
    _insert(conn, "EEFiles", [("plan.json", encode_record(data.plan))])
    _insert(
        conn,
        "ExperimentMeasurements",
        (
            (None, "master", mname, encode_record(content))  # ID: autoincrement
            for mname, content in sorted(data.experiment_measurements.items())
        ),
    )


def insert_run(conn: sqlite3.Connection, run, src_map: Dict[str, str]) -> None:
    """Insert one :class:`ConditionedRun`'s rows into the run tables."""
    _insert(
        conn,
        "RunInfos",
        (
            (run.run_id, node_id, run.start_time, offset, None)  # no AbortReason yet
            for node_id, offset in sorted(run.offsets.items())
        ),
    )
    _insert(
        conn,
        "ExtraRunMeasurements",
        (
            (run.run_id, node_id, pname, encode_record(content))
            for node_id, plugins in sorted(run.extra_measurements.items())
            for pname, content in sorted(plugins.items())
        ),
    )
    _insert(
        conn,
        "Events",
        (
            (
                rec.get("run_id"),
                rec["node"],
                rec["common_time"],
                rec["name"],
                encode_record(rec.get("params", [])),
            )
            for rec in run.events
        ),
    )
    _insert(
        conn,
        "Packets",
        (
            (
                rec.get("run_id"),
                rec["node"],
                rec["common_time"],
                src_map.get(rec.get("src", ""), rec.get("src", "")),
                encode_record(rec),
            )
            for rec in run.packets
        ),
    )


def insert_run_traces(conn: sqlite3.Connection, records: List[Dict[str, Any]]) -> None:
    """Insert harness span records (level-2 ``traces.jsonl`` streams) into
    the RunTraces side table.  Like every extension table this never
    feeds the Table-I digest — the span payload carries wall-clock
    timings, which are execution-specific by nature."""
    _insert(
        conn,
        "RunTraces",
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
                encode_record(rec.get("attrs", {})),
            )
            for rec in records
        ),
    )


def store_level3(source, db_path) -> Path:
    """Condition the :class:`Level2Store` *source* and write the level-3
    SQLite package.  Returns the database path.

    This is the storage fast path: the database is written with the
    rollback journal and per-statement syncs off (it is freshly created
    and fsync'd once at the end), all inserts run inside one explicit
    transaction, and runs are conditioned and inserted one at a time, so
    peak memory is one run's records regardless of experiment size.  Each
    run stream is read once: the experiment scope comes last, so its node
    list (:meth:`Level2Store.node_ids`) reuses those reads.  The produced
    table contents are identical to the pre-optimization writer's.
    """
    if not isinstance(source, Level2Store):
        raise StorageError(f"cannot store {type(source).__name__} as level 3")
    src_map = _addr_to_node_map(source.read_description())

    with fresh_database(db_path) as db_path:
        conn = open_fast_connection(db_path, fresh=True)
        try:
            create_schema(conn)
            conn.execute("BEGIN")
            for run in iter_conditioned_runs(source):
                insert_run(conn, run, src_map)
                # Harness spans: node ascending, file order within.
                traces = source.read_run_stream(run.run_id, "traces.jsonl")
                for node_id in sorted(traces):
                    insert_run_traces(conn, traces[node_id])
            insert_experiment_scope(conn, condition_scope(source))
            insert_run_traces(conn, source.read_experiment_traces())
            stamp_table1_digest(conn)
            conn.execute("COMMIT")
        finally:
            conn.close()
        fsync_database(db_path)
    return db_path


def _name_comment(description_xml: str) -> Tuple[str, str]:
    try:
        root = ET.fromstring(description_xml)
        return root.get("name", "unnamed"), root.get("comment", "")
    except ET.ParseError:
        return "unnamed", ""


# ----------------------------------------------------------------------
# Per-run row copy: campaign shards, fleet shipping, the merge
# ----------------------------------------------------------------------
#: Every table keyed by run id — one run's complete level-3 footprint.
ALL_RUN_TABLES = RUN_TABLES + EXTENSION_RUN_TABLES


def copy_run_rows(conn: sqlite3.Connection, schema: str, run_id: int) -> Dict[str, int]:
    """Copy *run_id*'s rows of every run table from the attached database
    *schema* into ``main``, in rowid order — the conditioned (common time,
    node, seq) order every writer inserts in, which is data: the merge
    and the digest read it.  Returns the rows copied per table.  The one
    way a run's rows move between two SQLite files; they never enter
    Python."""
    copied: Dict[str, int] = {}
    for table in ALL_RUN_TABLES:
        columns = ", ".join(_ALL_SCHEMAS[table])
        copied[table] = conn.execute(
            f"INSERT INTO main.{table} ({columns}) SELECT {columns} "
            f"FROM {schema}.{table} WHERE RunID = ? ORDER BY rowid",
            (run_id,),
        ).rowcount
    return copied


def serialize_run(shard_path, run_id: int) -> bytes:
    """*run_id* of a shard as a :meth:`~sqlite3.Connection.serialize` image:
    the run tables — untyped, unindexed — holding that run's rows only."""
    conn = sqlite3.connect(":memory:", isolation_level=None)
    try:
        # At 512-byte pages an empty image (six pages) is 3 KiB, not 24,
        # and a run's rows pack no looser than at the default 4 KiB.
        conn.execute("PRAGMA page_size = 512")
        for table in ALL_RUN_TABLES:
            conn.execute(f"CREATE TABLE {table} ({', '.join(_ALL_SCHEMAS[table])})")
        conn.execute("ATTACH DATABASE ? AS shard", (str(shard_path),))
        copy_run_rows(conn, "shard", run_id)
        return conn.serialize()
    finally:
        conn.close()


def _distinct_run_ids(conn: sqlite3.Connection, where: str = "", args=()) -> List[int]:
    return [
        r[0]
        for r in conn.execute(
            f"SELECT DISTINCT RunID FROM RunInfos{where} ORDER BY RunID", args
        )
    ]


class RunShard:
    """A level-3 database written one run per transaction — a campaign
    worker's shard (:class:`repro.campaign.merge.ShardWriter`) or the fleet
    coordinator's (:class:`repro.fabric.shipping.CoordinatorShard`).  Same
    Table I schema, run tables only; a run either fully exists in the
    shard or not at all."""

    def __init__(self, path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fresh = not self.path.exists()
        # fresh=False tuning: per-write syncs off, but the rollback
        # journal stays on — replacing_run's transaction is this shard's
        # crash-recovery commit point and must remain atomic.
        self.conn = open_fast_connection(self.path, fresh=False)
        self.conn.isolation_level = ""  # back to implicit transactions
        if fresh:
            create_schema(self.conn)
            self.conn.commit()

    @contextmanager
    def replacing_run(self, run_id: int) -> Iterator[sqlite3.Connection]:
        """One transaction in which whatever the body inserts *replaces*
        *run_id*: rows a previous (crashed, retried or re-shipped) attempt
        left are deleted first, so a shard never holds duplicate or
        partial run data, no matter how the attempt ended."""
        with self.conn:
            for table in ALL_RUN_TABLES:
                self.conn.execute(f"DELETE FROM {table} WHERE RunID = ?", (run_id,))
            yield self.conn

    def run_ids(self) -> List[int]:
        return _distinct_run_ids(self.conn)

    def close(self) -> None:
        self.conn.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ----------------------------------------------------------------------
# The reader
# ----------------------------------------------------------------------
#: Events and packets on the common time base; ties broken by node,
#: then by insertion (= conditioned) order.
_TIME_ORDER = " ORDER BY CommonTime, NodeID, rowid"
#: Rows a streaming reader fetches per batch.
_CHUNK_ROWS = 4096


class ExperimentDatabase:
    """Read access to a level-3 package — or, built with
    :meth:`over_shard`, to one experiment's slice of the warehouse file.

    This class alone maps Table-I rows to records and fixes the ``ORDER
    BY`` tie-breaks; a slice differs only in the row scope (``ExpID = ?``)
    that :meth:`_where` puts in front of every filter.  The warehouse has
    no ``ExperimentInfo`` (its catalogue keeps that) and no side tables:
    those readers return nothing there.
    """

    def __init__(self, db_path) -> None:
        self.db_path = Path(db_path)
        self.conn = _open_read_only(self.db_path)
        self.conn.row_factory = sqlite3.Row
        self._exp_id: Optional[int] = None

    @classmethod
    def over_shard(cls, conn: sqlite3.Connection, exp_id: int) -> "ExperimentDatabase":
        """Reader over experiment *exp_id*'s rows of the warehouse file.
        *conn* (yielding :class:`sqlite3.Row`, as the warehouse's
        connection does) is borrowed: :meth:`close` leaves it open for
        its owner."""
        db = cls.__new__(cls)
        db.db_path = None
        db.conn = conn
        db._exp_id = exp_id
        return db

    def close(self) -> None:
        if self._exp_id is None:
            self.conn.close()

    def __enter__(self) -> "ExperimentDatabase":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _where(self, **filters: Any) -> Tuple[str, List[Any]]:
        """The ``WHERE`` text (empty when nothing restricts) and arguments
        of a query: the row scope first, then one ``Column = ?`` per
        filter that is not ``None`` — ``Column IN (...)`` for a tuple."""
        clauses: List[str] = []
        args: List[Any] = []
        if self._exp_id is not None:
            filters = {"ExpID": self._exp_id, **filters}
        for column, value in filters.items():
            if value is None:
                continue
            if isinstance(value, tuple):
                clauses.append(f"{column} IN ({', '.join('?' * len(value))})")
                args.extend(value)
            else:
                clauses.append(f"{column} = ?")
                args.append(value)
        return (" WHERE " + " AND ".join(clauses) if clauses else ""), args

    def _chunks(self, query: str, args: List[Any]) -> Iterator[List[sqlite3.Row]]:
        """The rows of *query*, :data:`_CHUNK_ROWS` at a time through a
        dedicated cursor, so the result set is never materialized."""
        cursor = self.conn.cursor()
        try:
            cursor.execute(query, args)
            while True:
                rows = cursor.fetchmany(_CHUNK_ROWS)
                if not rows:
                    return
                yield rows
        finally:
            cursor.close()

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
        """Rows per table; over a warehouse slice, per Table-I table (the
        catalogue's own tables share the file)."""
        where, args = self._where()
        tables = (
            self.schema() if self._exp_id is None
            else [t for t in TABLE_SCHEMAS if t != "ExperimentInfo"]
        )
        return {
            table: self.conn.execute(
                f"SELECT COUNT(*) FROM {table}{where}", args
            ).fetchone()[0]
            for table in tables
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
        return _distinct_run_ids(self.conn, *self._where())

    def node_ids(self) -> List[str]:
        where, args = self._where()
        return [
            r[0]
            for r in self.conn.execute(
                f"SELECT DISTINCT NodeID FROM RunInfos{where} ORDER BY NodeID", args
            )
        ]

    def events(
        self,
        run_id: Optional[int] = None,
        event_type: Union[None, str, Tuple[str, ...]] = None,
        node_id: Optional[str] = None,
    ) -> List[Dict[str, Any]]:
        """Event records (with parsed params), ordered by common time.

        *event_type* is one type or a tuple of types — the filter runs
        inside SQLite, so reading three discovery types out of a large
        event log never surfaces the rest into Python.
        """
        return list(self.iter_events(run_id, event_type, node_id))

    def iter_events(
        self,
        run_id: Optional[int] = None,
        event_type: Union[None, str, Tuple[str, ...]] = None,
        node_id: Optional[str] = None,
    ) -> Iterator[Dict[str, Any]]:
        """Stream event records without materializing the result set.

        Same filters and record shape as :meth:`events`, but rows arrive
        through a dedicated cursor in :data:`_CHUNK_ROWS` batches —
        analysis over multi-gigabyte packages runs in constant memory.
        """
        where, args = self._where(RunID=run_id, EventType=event_type, NodeID=node_id)
        query = (
            "SELECT RunID, NodeID, CommonTime, EventType, Parameter "
            f"FROM Events{where}{_TIME_ORDER}"
        )
        for rows in self._chunks(query, args):
            for row in rows:
                yield {
                    "run_id": row["RunID"],
                    "node": row["NodeID"],
                    "common_time": row["CommonTime"],
                    "name": row["EventType"],
                    "params": decode_record(row["Parameter"]),
                }

    def packets(self, run_id: Optional[int] = None) -> List[Dict[str, Any]]:
        return list(self.iter_packets(run_id=run_id))

    def iter_packets(self, run_id: Optional[int] = None) -> Iterator[Dict[str, Any]]:
        """Stream packet records (see :meth:`iter_events`)."""
        where, args = self._where(RunID=run_id)
        query = (
            "SELECT RunID, NodeID, CommonTime, SrcNodeID, Data "
            f"FROM Packets{where}{_TIME_ORDER}"
        )
        for rows in self._chunks(query, args):
            for row in rows:
                rec = decode_record(row["Data"])
                rec["src_node"] = row["SrcNodeID"]
                yield rec

    def run_infos(self, run_id: Optional[int] = None) -> List[Dict[str, Any]]:
        where, args = self._where(RunID=run_id)
        return [
            dict(row)
            for row in self.conn.execute(
                "SELECT RunID, NodeID, StartTime, TimeDiff "
                f"FROM RunInfos{where} ORDER BY RunID, NodeID, rowid",
                args,
            )
        ]

    def abort_reasons(self) -> Dict[int, str]:
        """``{run_id: reason}`` for runs whose earlier attempt aborted.

        Empty for fault-free executions; also empty (not an error) when
        reading a pre-AbortReason database.
        """
        where, args = self._where()
        try:
            rows = self.conn.execute(
                f"SELECT DISTINCT RunID, AbortReason FROM RunInfos{where} ORDER BY RunID",
                args,
            ).fetchall()
        except sqlite3.OperationalError:  # old schema without the column
            return {}
        return {
            row["RunID"]: row["AbortReason"]
            for row in rows
            if row["AbortReason"] is not None
        }

    def plan(self) -> List[Dict[str, Any]]:
        where, args = self._where(ID="plan.json")
        row = self.conn.execute(f"SELECT File FROM EEFiles{where}", args).fetchone()
        if row is None:
            raise StorageError("no plan.json in EEFiles")
        return decode_record(row[0])

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
        where, args = self._where(EventType=(start_type, end_type), NodeID=node_id)
        query = f"SELECT RunID, CommonTime, EventType FROM Events{where}"
        if per_run:
            # Restrict to runs the RunInfos table knows, as the per-run
            # loop over run_ids() did.
            known, known_args = self._where()
            query += f" AND RunID IN (SELECT DISTINCT RunID FROM RunInfos{known})"
            query += " ORDER BY RunID, CommonTime, NodeID"
            args += known_args
        else:
            query += _TIME_ORDER

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

    def run_traces(self, run_id: Optional[int] = None) -> List[Dict[str, Any]]:
        """Harness span records, as the tracer drained them.

        ``run_id=None`` returns every row including experiment-scope
        spans (``RunID IS NULL``).  Empty with tracing disabled.
        """
        where, args = self._where(RunID=run_id)
        try:
            rows = self.conn.execute(
                f"SELECT {', '.join(EXTENSION_TABLES['RunTraces'])} FROM RunTraces"
                f"{where} ORDER BY RunID, StartTime, SpanID",
                args,
            ).fetchall()
        except sqlite3.OperationalError:
            # A database written before the table existed, or a shard
            # slice (Table I only): no spans, not an error.
            rows = []
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
                "attrs": decode_record(row["Attrs"]) if row["Attrs"] else {},
            }
            for row in rows
        ]

    def extra_measurements(self, run_id: int) -> Dict[str, Dict[str, Any]]:
        where, args = self._where(RunID=run_id)
        out: Dict[str, Dict[str, Any]] = {}
        for row in self.conn.execute(
            f"SELECT NodeID, Name, Content FROM ExtraRunMeasurements{where}", args
        ):
            out.setdefault(row["NodeID"], {})[row["Name"]] = decode_record(row["Content"])
        return out
