"""Materialized read models (CQRS-style) over the warehouse.

The expensive cross-experiment questions — responsiveness-vs-factor
surfaces, fault-type breakdowns, event/packet counts, trends over ingest
time — are answered from *real tables*, not views over the Table-I rows.
Each model is refreshed incrementally when an ExpID is ingested, inside
the attach group's transaction
(:func:`repro.repo.shard.copy_batch_into_shard`): a catalogued
experiment always has its read models.

The aggregation itself leans on SQLite's C-level ``GROUP BY`` for the
counting models; only the responsiveness model runs Python, and it *is*
the per-experiment analysis
(:func:`repro.analysis.responsiveness.outcomes_by_treatment`) pointed at
the experiment's slice — one filtered pass over ``Events`` per ExpID —
so the surface matches a direct L3 analysis by construction.
"""

from __future__ import annotations

import re
from typing import Any, Dict, List, Optional

from repro.analysis.responsiveness import outcomes_by_treatment
from repro.core.errors import StorageError
from repro.sd.metrics import summarize_runs
from repro.storage.level3 import ExperimentDatabase

__all__ = [
    "refresh_experiment_views",
    "responsiveness_surface_rows",
    "query_event_counts",
    "query_fault_breakdown",
    "query_responsiveness",
    "query_trend",
]

_FAULT_EVENT = re.compile(r"^fault_(?P<kind>.+)_(?P<phase>[a-z]+)$")


# ----------------------------------------------------------------------
# Refresh (called from inside an attach group's transaction)
# ----------------------------------------------------------------------
def refresh_experiment_views(conn, exp_id: int) -> None:
    """Compute every read model of one freshly copied ExpID."""
    type_counts = _refresh_event_counts(conn, exp_id)
    _refresh_stats(conn, exp_id, type_counts)
    _refresh_fault_breakdown(conn, exp_id, type_counts)
    _refresh_responsiveness(conn, ExperimentDatabase.over_shard(conn, exp_id), exp_id)


def _refresh_stats(conn, exp_id: int, type_counts: Dict[str, int]) -> None:
    # One RunInfos pass for both distinct counts; the event total falls
    # out of the per-type counts already computed, so Events — by far the
    # widest table — is never scanned a second time.
    runs, nodes = conn.execute(
        "SELECT COUNT(DISTINCT RunID), COUNT(DISTINCT NodeID) "
        "FROM RunInfos WHERE ExpID = ?",
        (exp_id,),
    ).fetchone()
    packets = conn.execute(
        "SELECT COUNT(*) FROM Packets WHERE ExpID = ?", (exp_id,)
    ).fetchone()[0]
    conn.execute(
        "INSERT INTO MvExperimentStats (ExpID, Runs, Events, Packets, Nodes) "
        "VALUES (?, ?, ?, ?, ?)",
        (exp_id, runs, sum(type_counts.values()), packets, nodes),
    )


def _refresh_event_counts(conn, exp_id: int) -> Dict[str, int]:
    counts = {
        row[0]: row[1]
        for row in conn.execute(
            "SELECT EventType, COUNT(*) FROM Events WHERE ExpID = ? "
            "GROUP BY EventType",
            (exp_id,),
        )
    }
    conn.executemany(
        "INSERT INTO MvEventCounts (ExpID, EventType, N) VALUES (?, ?, ?)",
        ((exp_id, etype, n) for etype, n in sorted(counts.items())),
    )
    return counts


def _refresh_fault_breakdown(conn, exp_id: int, type_counts: Dict[str, int]) -> None:
    rows = []
    for etype, n in sorted(type_counts.items()):
        match = _FAULT_EVENT.match(etype)
        if match is not None:
            rows.append((exp_id, match.group("kind"), match.group("phase"), n))
    conn.executemany(
        "INSERT INTO MvFaultBreakdown (ExpID, Kind, Phase, N) "
        "VALUES (?, ?, ?, ?)",
        rows,
    )


_SURFACE_FIELDS = ("runs", "complete", "t_r_min", "t_r_median", "t_r_p95", "t_r_max", "t_r_mean")


def responsiveness_surface_rows(db: ExperimentDatabase) -> List[Dict[str, Any]]:
    """One experiment's responsiveness surface: the per-treatment
    discovery summaries of the standard analysis, as read-model columns.
    A package without a plan files every run under the ``"{}"``
    treatment.  Shared by the read-model refresh (over a warehouse slice) and
    by ``regression-check`` (over the fresh package)."""
    try:
        plan = db.plan()
    except StorageError:
        plan = [{"run_id": run_id, "treatment": {}} for run_id in db.run_ids()]
    rows = []
    for key, _treatment, _run_ids, outcomes in outcomes_by_treatment(db, plan):
        summary = summarize_runs(outcomes)
        rows.append({"treatment": key, **{f: summary[f] for f in _SURFACE_FIELDS}})
    return rows


def _refresh_responsiveness(conn, db: ExperimentDatabase, exp_id: int) -> None:
    conn.executemany(
        "INSERT INTO MvResponsiveness (ExpID, TreatmentKey, Runs, Complete, "
        "TRMin, TRMedian, TRP95, TRMax, TRMean) "
        "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
        (
            (exp_id, r["treatment"], *(r[f] for f in _SURFACE_FIELDS))
            for r in responsiveness_surface_rows(db)
        ),
    )


# ----------------------------------------------------------------------
# Queries (over the materialized tables only — no Table-I scan)
# ----------------------------------------------------------------------
def _query_model(
    conn, select: str, filters: Dict[str, Any], order: str
) -> List[Dict[str, Any]]:
    """Rows of one read model ``m`` joined to its experiment ``e``,
    narrowed by every filter that is not ``None``."""
    args = [value for value in filters.values() if value is not None]
    where = " AND ".join(f"{col} = ?" for col, value in filters.items() if value is not None)
    query = f"{select} JOIN Experiments e ON e.ExpID = m.ExpID"
    if where:
        query += f" WHERE {where}"
    return [dict(row) for row in conn.execute(f"{query} ORDER BY {order}", args)]


def query_event_counts(
    conn, exp_id: Optional[int] = None, event_type: Optional[str] = None
) -> List[Dict[str, Any]]:
    return _query_model(
        conn,
        "SELECT m.ExpID AS exp_id, e.Name AS name, m.EventType AS event_type, "
        "m.N AS n FROM MvEventCounts m",
        {"m.ExpID": exp_id, "m.EventType": event_type},
        "m.ExpID, m.EventType",
    )


def query_fault_breakdown(conn, exp_id: Optional[int] = None) -> List[Dict[str, Any]]:
    return _query_model(
        conn,
        "SELECT m.ExpID AS exp_id, e.Name AS name, m.Kind AS kind, "
        "m.Phase AS phase, m.N AS n FROM MvFaultBreakdown m",
        {"m.ExpID": exp_id},
        "m.ExpID, m.Kind, m.Phase",
    )


def query_responsiveness(conn, exp_id: Optional[int] = None) -> List[Dict[str, Any]]:
    return _query_model(
        conn,
        "SELECT m.ExpID AS exp_id, e.Name AS name, "
        "m.TreatmentKey AS treatment, m.Runs AS runs, m.Complete AS complete, "
        "m.TRMin AS t_r_min, m.TRMedian AS t_r_median, m.TRP95 AS t_r_p95, "
        "m.TRMax AS t_r_max, m.TRMean AS t_r_mean FROM MvResponsiveness m",
        {"m.ExpID": exp_id},
        "m.ExpID, m.TreatmentKey",
    )


def query_trend(conn, event_type: str) -> List[Dict[str, Any]]:
    """Event count of one type per experiment, in ingest order — the
    trend-over-time series of the warehouse."""
    return [
        dict(row)
        for row in conn.execute(
            "SELECT e.IngestSeq AS ingest_seq, e.ExpID AS exp_id, "
            "e.Name AS name, COALESCE(m.N, 0) AS n "
            "FROM Experiments e LEFT JOIN MvEventCounts m "
            "ON m.ExpID = e.ExpID AND m.EventType = ? "
            "ORDER BY e.IngestSeq, e.ExpID",
            (event_type,),
        )
    ]
