"""The L4 warehouse façade: ingest, recovery, queries, comparison.

Sec. IV-F leaves the fourth storage level — *"the integration of
multiple experiments into a single repository to facilitate comparison
and analysis covering multiple experiments"* — as future work.  This is
that level at warehouse scale: one SQLite file holding the catalogue,
the Table-I rows of thousands of level-3 packages and materialized
cross-experiment read models, with crash-safe batched ingestion
(DESIGN.md §13).  Everything runs on the caller's thread: a warehouse,
its connection and its cache belong to the thread that opened it.

Ingest protocol (per batch, once every package is fingerprinted):

1. journal ``ingest_begin`` entries — one fsync for the batch;
2. dedup by content digest against the catalogue and the batch;
3. per attach group of ≤ 6 fresh packages, one transaction: the
   ``Experiments`` rows, the Table-I copies and the read models;
4. journal ``ingest_done``/``ingest_skip`` for what committed and
   ``ingest_abandoned`` (with the error) for what did not;
5. invalidate the aggregate cache.

A crash leaves whole groups or nothing, plus ``ingest_begin`` tickets
with no closing entry; :meth:`Warehouse.recover` (run on every open)
confirms or re-ingests exactly those, so a killed ingest resumes with
no duplicate and no missing ExpIDs.
"""

from __future__ import annotations

import sqlite3
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.core.errors import StorageError
from repro.obs.metrics import get_registry
from repro.storage.level3 import ExperimentDatabase

from repro.repo.cache import AggregateCache
from repro.repo.catalog import Catalog
from repro.repo.fingerprint import ExperimentKey, fingerprint_package
from repro.repo.journal import IngestJournal
from repro.repo.shard import ATTACH_GROUP, copy_batch_into_shard
from repro.repo.views import (
    query_event_counts,
    query_fault_breakdown,
    query_responsiveness,
    query_trend,
    responsiveness_surface_rows,
)

__all__ = ["IngestError", "IngestResult", "Warehouse"]

#: What a failed package raises.  Anything else — an interrupt, a crash
#: stand-in — propagates past the journal and leaves its tickets to
#: :meth:`Warehouse.recover`.
INGEST_ERRORS = (StorageError, sqlite3.Error, OSError)


@dataclass(frozen=True)
class IngestResult:
    """Outcome of one package's ingest."""

    source: str
    exp_id: int
    duplicate: bool
    partition_id: int
    content_digest: str


class IngestError(StorageError):
    """An ingest that failed part-way.  ``results`` holds one entry per
    package, in order: its :class:`IngestResult` if it committed,
    ``None`` if it did not."""

    def __init__(self, message: str, results: List[Optional[IngestResult]]) -> None:
        super().__init__(message)
        self.results = results


class Warehouse:
    """One warehouse directory: ``catalog.db`` and ``journal/``."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.catalog = Catalog(self.root)
        self.journal = IngestJournal(self.root)
        self.cache = AggregateCache()
        self.last_recovery: Dict[str, List[Any]] = self.recover()

    def close(self) -> None:
        self.catalog.close()

    def __enter__(self) -> "Warehouse":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def ingest(self, path, force: bool = False) -> IngestResult:
        """Synchronously ingest one level-3 package."""
        return self.ingest_many([path], force=force)[0]

    def ingest_many(
        self, paths: Sequence[Any], force: bool = False
    ) -> List[IngestResult]:
        """Ingest a batch of packages with batched journaling and one
        transaction per attach group.  Raises :class:`IngestError` when a
        group fails after fingerprinting; the groups before it stay."""
        started = time.perf_counter()
        keys = [fingerprint_package(p) for p in paths]
        results = self._ingest_batch(list(paths), keys, force)
        registry = get_registry()
        for result in results:
            registry.counter(
                "repro_repo_ingests_total",
                "Warehouse package ingests by outcome",
                labels=("outcome",),
            ).inc(outcome="duplicate" if result.duplicate else "ingested")
        registry.histogram(
            "repro_repo_ingest_batch_seconds",
            "Wall-clock seconds per warehouse ingest batch",
        ).observe(time.perf_counter() - started)
        return results

    def _ingest_batch(
        self, paths: List[Any], keys: List[ExperimentKey], force: bool
    ) -> List[IngestResult]:
        tickets = [self.journal.next_ticket() for _ in paths]
        self.journal.append_many(
            self.journal.begin_record(t, p, k)
            for t, p, k in zip(tickets, paths, keys)
        )

        # Dedup: a package whose digest the catalogue or an earlier
        # package of this batch holds is a duplicate of that one.
        results: List[Optional[IngestResult]] = [None] * len(paths)
        owner: Dict[int, int] = {}
        first: Dict[str, int] = {}
        fresh: List[int] = []
        for i, key in enumerate(keys):
            existing = None if force else self.catalog.find_by_digest(key.content_digest)
            if existing is not None:
                results[i] = IngestResult(
                    source=str(paths[i]), exp_id=existing["ExpID"], duplicate=True,
                    partition_id=existing["PartitionID"],
                    content_digest=key.content_digest,
                )
            elif not force and key.content_digest in first:
                owner[i] = first[key.content_digest]
            else:
                first.setdefault(key.content_digest, i)
                fresh.append(i)

        seq = self.catalog.next_ingest_seq()
        error: Optional[IngestError] = None
        for start in range(0, len(fresh), ATTACH_GROUP):
            group = fresh[start : start + ATTACH_GROUP]
            try:
                ids = copy_batch_into_shard(
                    self.catalog,
                    [(paths[i], keys[i], seq + start + k) for k, i in enumerate(group)],
                )
            except INGEST_ERRORS as exc:
                names = ", ".join(str(paths[i]) for i in group)
                error = IngestError(f"{names}: {exc}", results)
                error.__cause__ = exc
                break
            self.cache.invalidate()
            for i, (exp_id, partition_id) in zip(group, ids):
                results[i] = IngestResult(
                    source=str(paths[i]), exp_id=exp_id, duplicate=False,
                    partition_id=partition_id, content_digest=keys[i].content_digest,
                )
        for i, j in owner.items():
            if results[j] is not None:
                results[i] = replace(results[j], source=str(paths[i]), duplicate=True)

        self.journal.append_many(
            (
                self.journal.abandon_record(t, str(error)) if r is None
                else self.journal.skip_record(t, r.exp_id) if r.duplicate
                else self.journal.done_record(t, r.exp_id)
                for t, r in zip(tickets, results)
            ),
            fsync=False,
        )
        if error is not None:
            raise error
        return results

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def recover(self) -> Dict[str, List[Any]]:
        """Close every ingest ticket a dead process left open: confirm
        it when the catalogue holds its digest, re-ingest it when its
        source is there, abandon it otherwise.  Idempotent; run
        automatically on open."""
        report: Dict[str, List[Any]] = {
            "confirmed": [],
            "reingested": [],
            "abandoned": [],
        }
        closing = []
        for rec in self.journal.incomplete():
            ticket = rec.get("ticket", -1)
            existing = self.catalog.find_by_digest(rec.get("digest", ""))
            if existing is not None:
                closing.append(self.journal.done_record(ticket, existing["ExpID"]))
                report["confirmed"].append(existing["ExpID"])
                continue
            source = Path(rec.get("source", ""))
            try:
                if not source.exists():
                    raise StorageError("source missing")
                result = self.ingest(source)
            except INGEST_ERRORS as exc:
                closing.append(self.journal.abandon_record(ticket, str(exc)))
                report["abandoned"].append(str(source))
            else:
                closing.append(self.journal.done_record(ticket, result.exp_id))
                report["reingested"].append(result.exp_id)
        self.journal.append_many(closing)
        return report

    # ------------------------------------------------------------------
    # Catalogue access
    # ------------------------------------------------------------------
    def experiments(self) -> List[Dict[str, Any]]:
        return self.catalog.experiments()

    def partitions(self) -> List[Dict[str, Any]]:
        return self.catalog.partitions()

    def resolve(self, ref) -> int:
        """An experiment reference: ExpID (int or digits) or name."""
        if isinstance(ref, int):
            exp_id = ref
        elif isinstance(ref, str) and ref.isdigit():
            exp_id = int(ref)
        else:
            return self.catalog.experiment_id_by_name(str(ref))
        self.catalog.experiment(exp_id)  # existence check
        return exp_id

    def view(self, ref) -> ExperimentDatabase:
        """Row-level read access to one experiment's slice, through the
        level-3 reader."""
        return ExperimentDatabase.over_shard(self.catalog.conn, self.resolve(ref))

    def events(self, ref, **filters) -> List[Dict[str, Any]]:
        return self.view(ref).events(**filters)

    def run_ids(self, ref) -> List[int]:
        return self.view(ref).run_ids()

    # ------------------------------------------------------------------
    # Aggregate queries (read models behind the cache-aside layer)
    # ------------------------------------------------------------------
    def event_counts(
        self,
        exp_id: Optional[int] = None,
        event_type: Optional[str] = None,
    ) -> List[Dict[str, Any]]:
        return self.cache.get_or_compute(
            ("event_counts", exp_id, event_type),
            lambda: query_event_counts(self.catalog.conn, exp_id, event_type),
        )

    def fault_breakdown(self, exp_id: Optional[int] = None) -> List[Dict[str, Any]]:
        return self.cache.get_or_compute(
            ("fault_breakdown", exp_id),
            lambda: query_fault_breakdown(self.catalog.conn, exp_id),
        )

    def responsiveness_surface(
        self, exp_id: Optional[int] = None
    ) -> List[Dict[str, Any]]:
        return self.cache.get_or_compute(
            ("responsiveness", exp_id),
            lambda: query_responsiveness(self.catalog.conn, exp_id),
        )

    def trend(self, event_type: str) -> List[Dict[str, Any]]:
        return self.cache.get_or_compute(
            ("trend", event_type),
            lambda: query_trend(self.catalog.conn, event_type),
        )

    def stats(self, ref) -> Dict[str, Any]:
        exp_id = self.resolve(ref)
        row = self.catalog.conn.execute(
            "SELECT Runs, Events, Packets, Nodes FROM MvExperimentStats "
            "WHERE ExpID = ?",
            (exp_id,),
        ).fetchone()
        if row is None:
            raise StorageError(f"no stats for experiment #{exp_id}")
        return {"exp_id": exp_id, **dict(row)}

    # ------------------------------------------------------------------
    # Comparison
    # ------------------------------------------------------------------
    def diff(self, ref_a, ref_b) -> Dict[str, Any]:
        """Structured comparison of two ingested experiments."""
        a, b = self.resolve(ref_a), self.resolve(ref_b)
        info_a, info_b = self.catalog.experiment(a), self.catalog.experiment(b)
        out: Dict[str, Any] = {
            "a": {"exp_id": a, "name": info_a["Name"],
                  "digest": info_a["ContentDigest"]},
            "b": {"exp_id": b, "name": info_b["Name"],
                  "digest": info_b["ContentDigest"]},
            "identical": info_a["ContentDigest"] == info_b["ContentDigest"],
            "stats": {},
            "event_counts": {},
            "responsiveness": {},
        }
        if out["identical"]:
            return out
        stats_a, stats_b = self.stats(a), self.stats(b)
        for field in ("Runs", "Events", "Packets", "Nodes"):
            if stats_a[field] != stats_b[field]:
                out["stats"][field] = (stats_a[field], stats_b[field])
        counts_a = {r["event_type"]: r["n"] for r in self.event_counts(a)}
        counts_b = {r["event_type"]: r["n"] for r in self.event_counts(b)}
        for etype in sorted(set(counts_a) | set(counts_b)):
            na, nb = counts_a.get(etype, 0), counts_b.get(etype, 0)
            if na != nb:
                out["event_counts"][etype] = (na, nb)
        resp_a = {r["treatment"]: r for r in self.responsiveness_surface(a)}
        resp_b = {r["treatment"]: r for r in self.responsiveness_surface(b)}
        for key in sorted(set(resp_a) | set(resp_b)):
            ra, rb = resp_a.get(key), resp_b.get(key)
            if ra is None or rb is None or any(
                ra[f] != rb[f]
                for f in ("runs", "complete", "t_r_median", "t_r_mean")
            ):
                out["responsiveness"][key] = {
                    "a": ra and {k: ra[k] for k in
                                 ("runs", "complete", "t_r_median")},
                    "b": rb and {k: rb[k] for k in
                                 ("runs", "complete", "t_r_median")},
                }
        return out

    def regression_check(
        self,
        fresh_db_path,
        baseline=None,
        tolerance: float = 0.0,
    ) -> Dict[str, Any]:
        """Check a fresh level-3 package against the warehouse baseline.

        *baseline* is an experiment reference; when omitted, the most
        recently ingested experiment with the fresh package's name is
        used.  Verdict: ``ok`` iff the Table-I content digests match.
        Passing a *tolerance* > 0 opts into aggregate-equivalence:
        differing digests still pass when every responsiveness aggregate
        is within *tolerance* (relative) and run/event counts are equal
        (for re-runs whose float paths legitimately differ, e.g.
        campaign-merged vs single-process packages).
        """
        # trusted=False: the whole point is catching content that changed
        # after finalization, when the stamped digest is stale.
        key = fingerprint_package(fresh_db_path, trusted=False)
        if baseline is None:
            base_id = self.catalog.experiment_id_by_name(key.name)
        else:
            base_id = self.resolve(baseline)
        base = self.catalog.experiment(base_id)
        checks: List[Dict[str, Any]] = []
        digest_match = key.content_digest == base["ContentDigest"]
        checks.append(
            {
                "check": "table1_digest",
                "ok": digest_match,
                "fresh": key.content_digest,
                "baseline": base["ContentDigest"],
            }
        )
        aggregate: List[Dict[str, Any]] = []
        if not digest_match:
            aggregate = self._aggregate_checks(fresh_db_path, base_id, tolerance)
            checks.extend(aggregate)
        ok = digest_match or (tolerance > 0 and all(c["ok"] for c in aggregate))
        return {
            "ok": ok,
            "digest_match": digest_match,
            "baseline": {"exp_id": base_id, "name": base["Name"]},
            "fresh": {"path": str(fresh_db_path), "name": key.name},
            "checks": checks,
        }

    def _aggregate_checks(
        self, fresh_db_path, base_id: int, tolerance: float
    ) -> List[Dict[str, Any]]:
        """Aggregate-level drift: the surface computation the read model
        ran at ingest, run over the fresh package itself."""
        with ExperimentDatabase(fresh_db_path) as fresh:
            fresh_rows = {r["treatment"]: r for r in responsiveness_surface_rows(fresh)}
            fresh_counts = fresh.row_counts()
            fresh_runs = len(fresh.run_ids())

        base_stats = self.stats(base_id)
        checks: List[Dict[str, Any]] = []
        for check, field, value in (
            ("run_count", "Runs", fresh_runs),
            ("event_count", "Events", fresh_counts["Events"]),
            ("packet_count", "Packets", fresh_counts["Packets"]),
        ):
            baseline = base_stats[field]
            checks.append(
                {"check": check, "ok": value == baseline, "fresh": value, "baseline": baseline}
            )

        base_rows = {
            r["treatment"]: r for r in self.responsiveness_surface(base_id)
        }
        for treatment in sorted(set(fresh_rows) | set(base_rows)):
            fr, br = fresh_rows.get(treatment), base_rows.get(treatment)
            if fr is None or br is None:
                checks.append(
                    {
                        "check": f"responsiveness[{treatment}]",
                        "ok": False,
                        "detail": "treatment missing on one side",
                    }
                )
                continue
            ok = fr["runs"] == br["runs"] and fr["complete"] == br["complete"]
            drift = 0.0
            for field in ("t_r_median", "t_r_mean", "t_r_p95"):
                fv, bv = fr[field], br[field]
                if fv is None and bv is None:
                    continue
                if fv is None or bv is None:
                    ok = False
                    continue
                denom = max(abs(bv), 1e-12)
                drift = max(drift, abs(fv - bv) / denom)
            checks.append(
                {
                    "check": f"responsiveness[{treatment}]",
                    "ok": ok and drift <= tolerance,
                    "max_relative_drift": drift,
                    "tolerance": tolerance,
                }
            )
        return checks
