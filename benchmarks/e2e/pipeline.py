"""The part every campaign workload shares: merged L3 → analysis → L4 → queries.

Both campaign workloads end the same way, whatever dispatched their runs:
digest the merged level-3 package, compute the case-study responsiveness on
it, ingest it into a fresh warehouse and ask the read models the final query
set twice (first pass misses the cache-aside layer, second hits it).  Every
answer is checked against the same question asked of the source package.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Dict, List

from repro.analysis import responsiveness as analysis
from repro.campaign import merge as campaign_merge
from repro.repo import journal as repo_journal
from repro.repo import warehouse as repo_warehouse
from repro.sd import metrics as sd_metrics
from repro.storage import level3

from common import ExactCounts, Ops, file_bytes, journal_lines, tree_bytes

DEADLINES = (1.0, 5.0)


def l3_event_counts(db: "level3.ExperimentDatabase") -> Dict[str, int]:
    return {
        row[0]: row[1]
        for row in db.conn.execute(
            "SELECT EventType, COUNT(*) FROM Events GROUP BY EventType"
        )
    }


def check_warehouse_against_l3(warehouse, exp_id: int, db_path, ops: Ops) -> None:
    """Warehouse ``stats``/``event_counts`` must equal the source package's."""
    with level3.ExperimentDatabase(db_path) as db:
        counts = db.row_counts()
        direct_events = l3_event_counts(db)
        runs = len(db.run_ids())
    stats = warehouse.stats(exp_id)
    ops.check(
        (stats["Runs"], stats["Events"], stats["Packets"])
        == (runs, counts["Events"], counts["Packets"]),
        f"warehouse stats {stats} differ from source L3 "
        f"({runs} runs, {counts['Events']} events, {counts['Packets']} packets)",
    )
    mv = {r["event_type"]: r["n"] for r in warehouse.event_counts(exp_id=exp_id)}
    ops.check(mv == direct_events, "warehouse event_counts differ from source L3")


def query_set(warehouse, exp_id: int) -> List[Any]:
    """The fixed final read-model query set."""
    return [
        warehouse.stats(exp_id),
        warehouse.fault_breakdown(exp_id),
        warehouse.responsiveness_surface(exp_id),
    ]


def timed_query_passes(warehouse, exp_id: int) -> Dict[str, float]:
    """Issue the query set twice; the first pass misses the cache."""
    out = {}
    for label in ("miss", "hit"):
        started = time.perf_counter()
        query_set(warehouse, exp_id)
        out[label] = time.perf_counter() - started
    return out


def campaign_tail(db_path: Path, workdir: Path) -> Dict[str, Any]:
    """The timed tail on one merged package: digest, case-study analysis,
    warehouse ingest, final query set.  Returns stage seconds and answers."""
    out: Dict[str, Any] = {}

    started = time.perf_counter()
    out["digest"] = campaign_merge.database_digest(db_path)
    out["digest_s"] = time.perf_counter() - started

    started = time.perf_counter()
    with level3.ExperimentDatabase(db_path) as db:
        out["summary"] = sd_metrics.summarize_runs(analysis.run_outcomes(db))
        analysis.responsiveness_by_treatment(db, deadlines=DEADLINES)
    out["analysis_s"] = time.perf_counter() - started

    started = time.perf_counter()
    with repo_warehouse.Warehouse(workdir / "wh") as warehouse:
        result = warehouse.ingest(db_path)
        out["wh_ingest_s"] = time.perf_counter() - started
        passes = timed_query_passes(warehouse, result.exp_id)
        out["cache_hits"] = warehouse.cache.hits
        out["cache_misses"] = warehouse.cache.misses
    out["ingest_result"] = result
    out["wh_query_miss_s"] = passes["miss"]
    out["wh_query_hit_s"] = passes["hit"]
    return out


def verify_tail(
    out: Dict[str, Any],
    db_path: Path,
    staging_roots: List[Path],
    planned_runs: int,
    workdir: Path,
    ops: Ops,
    exact: ExactCounts,
) -> None:
    """Untimed: check the tail's outputs, measure sizes, pin exact counts."""
    with level3.ExperimentDatabase(db_path) as db:
        counts = db.row_counts()
        present = set(db.run_ids())
    summary = out["summary"]
    ops.add(planned_runs, planned_runs - len(present), "planned runs missing from L3")
    ops.check(summary["complete"] == summary["runs"] > 0,
              f"discoveries incomplete: {summary['complete']} of {summary['runs']}")
    result = out["ingest_result"]
    ops.add(1, int(result.duplicate), "warehouse refused the package")
    wh_root = workdir / "wh"
    with repo_warehouse.Warehouse(wh_root) as warehouse:
        check_warehouse_against_l3(warehouse, result.exp_id, db_path, ops)

    out["l3_bytes"] = file_bytes(db_path)
    out["l2_bytes"] = sum(tree_bytes(root / "staging") for root in staging_roots)
    out["wh_bytes"] = tree_bytes(wh_root)
    out["l3_rows"] = counts["Events"] + counts["Packets"] + counts["RunInfos"]
    out["packets"] = counts["Packets"]
    out["repo_journal_appends"] = journal_lines(wh_root / repo_journal.JOURNAL_FILE)
    exact.observe_all({
        "sd.discoveries": summary["complete"],
        "sd.t_r_median_s": summary["t_r_median"],
        "storage.level3.rows": out["l3_rows"],
        "net.capture_records": counts["Packets"],
        "repo.journal_appends": out["repo_journal_appends"],
        "l3.digest": out["digest"],
    })
