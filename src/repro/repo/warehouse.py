"""The L4 warehouse façade: ingest, recovery, queries, comparison.

Sec. IV-F leaves the fourth storage level — *"the integration of
multiple experiments into a single repository to facilitate comparison
and analysis covering multiple experiments"* — as future work.  This is
that level at warehouse scale: a catalogue database routing thousands of
level-3 packages into per-partition shards, with crash-safe batched
ingestion and materialized cross-experiment read models (DESIGN.md §13).
Everything runs on the caller's thread: a warehouse, its connections and
its cache belong to the thread that opened it.

Ingest protocol (per batch, once every package is fingerprinted; every
step idempotent under replay):

1. journal ``ingest_begin`` entries — one fsync for the batch;
2. catalogue: dedup by content digest, allocate ``pending`` ExpIDs
   (one transaction);
3. shards: attach-copy the batch, grouped per partition (one
   transaction per attach group);
4. catalogue: refresh the read models and flip rows to ``done``
   (one transaction);
5. journal ``ingest_done``/``ingest_skip`` — one fsync;
6. invalidate the aggregate cache.

A crash anywhere leaves either an incomplete journal ticket or a
``pending`` catalogue row; :meth:`Warehouse.recover` (run on every open)
replays both to completion, so a killed ingest resumes with no
duplicate and no missing ExpIDs.
"""

from __future__ import annotations

import sqlite3
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.errors import StorageError
from repro.obs.metrics import get_registry
from repro.storage.level3 import ExperimentDatabase

from repro.repo.cache import AggregateCache
from repro.repo.catalog import Catalog
from repro.repo.fingerprint import ExperimentKey, fingerprint_package
from repro.repo.journal import IngestJournal
from repro.repo.shard import copy_batch_into_shard, delete_experiment_rows, open_shard
from repro.repo.views import (
    query_event_counts,
    query_fault_breakdown,
    query_responsiveness,
    query_trend,
    refresh_experiment_views,
    responsiveness_surface_rows,
)

__all__ = ["IngestResult", "Warehouse"]


@dataclass(frozen=True)
class IngestResult:
    """Outcome of one package's ingest."""

    source: str
    exp_id: int
    duplicate: bool
    partition_id: int
    content_digest: str


class Warehouse:
    """One warehouse directory: ``catalog.db``, ``shards/``, ``journal/``."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.catalog = Catalog(self.root)
        self.journal = IngestJournal(self.root)
        self.cache = AggregateCache()
        self._shards: Dict[int, sqlite3.Connection] = {}
        self.last_recovery: Dict[str, List[Any]] = self.recover()

    def close(self) -> None:
        for conn in self._shards.values():
            conn.close()
        self._shards.clear()
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
        """Ingest a batch of packages with batched journaling, catalogue
        transactions and per-partition attach-copies."""
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

        # Catalogue pass: dedup + allocate pending ExpIDs.
        results: List[Optional[IngestResult]] = [None] * len(paths)
        fresh: List[Tuple[int, Any, ExperimentKey, int]] = []
        seq = self.catalog.next_ingest_seq()
        seen: Dict[str, IngestResult] = {}
        for i, (path, key) in enumerate(zip(paths, keys)):
            if not force:
                existing = self.catalog.find_by_digest(key.content_digest)
                prior = seen.get(key.content_digest)
                if existing is not None or prior is not None:
                    dup_id, dup_part = (
                        (existing["ExpID"], existing["PartitionID"])
                        if existing is not None
                        else (prior.exp_id, prior.partition_id)
                    )
                    results[i] = IngestResult(
                        source=str(path),
                        exp_id=dup_id,
                        duplicate=True,
                        partition_id=dup_part,
                        content_digest=key.content_digest,
                    )
                    continue
            partition_id, _shard_path = self.catalog.get_or_create_partition(
                key.name, key.factor_fingerprint
            )
            exp_id = self.catalog.insert_pending(partition_id, key, path, seq)
            seq += 1
            result = IngestResult(
                source=str(path),
                exp_id=exp_id,
                duplicate=False,
                partition_id=partition_id,
                content_digest=key.content_digest,
            )
            seen[key.content_digest] = result
            fresh.append((i, path, key, exp_id))
            results[i] = result
        self.catalog.conn.commit()

        # Shard pass: attach-copy, grouped per partition.
        by_partition: Dict[int, List[Tuple[int, Any]]] = {}
        for i, path, _key, exp_id in fresh:
            by_partition.setdefault(results[i].partition_id, []).append(
                (exp_id, path)
            )
        for partition_id, batch in by_partition.items():
            copy_batch_into_shard(self._shard(partition_id), batch)

        # Read-model pass + completion, one catalogue transaction.
        for i, _path, _key, exp_id in fresh:
            refresh_experiment_views(
                self.catalog.conn, self._shard(results[i].partition_id), exp_id
            )
            self.catalog.mark_done(exp_id)
        self.catalog.conn.commit()

        self.journal.append_many(
            (
                self.journal.done_record(t, r.exp_id)
                if not r.duplicate
                else self.journal.skip_record(t, r.exp_id)
                for t, r in zip(tickets, results)
            ),
            fsync=False,
        )
        self.cache.invalidate()
        return [r for r in results if r is not None]

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def recover(self) -> Dict[str, List[Any]]:
        """Complete or purge every ingest the last process left in
        flight.  Idempotent; run automatically on open."""
        report: Dict[str, List[Any]] = {
            "completed": [],
            "purged": [],
            "reingested": [],
            "confirmed": [],
        }
        touched = False
        # Catalogue rows stuck in 'pending': redo or purge.
        for row in self.catalog.pending():
            touched = True
            exp_id = row["ExpID"]
            shard = self._shard(row["PartitionID"])
            delete_experiment_rows(shard, exp_id)
            source = Path(row["SourcePath"])
            if source.exists():
                copy_batch_into_shard(shard, [(exp_id, source)])
                refresh_experiment_views(self.catalog.conn, shard, exp_id)
                self.catalog.mark_done(exp_id)
                self.catalog.conn.commit()
                report["completed"].append(exp_id)
            else:
                self.catalog.purge_experiment(exp_id)
                self.catalog.conn.commit()
                report["purged"].append(exp_id)

        # Journal tickets that never completed (may predate the
        # catalogue insert entirely).
        closing = []
        for rec in self.journal.incomplete():
            touched = True
            ticket = rec.get("ticket", -1)
            existing = self.catalog.find_by_digest(rec.get("digest", ""))
            if existing is not None:
                closing.append(
                    self.journal.done_record(ticket, existing["ExpID"])
                )
                report["confirmed"].append(existing["ExpID"])
                continue
            source = Path(rec.get("source", ""))
            if source.exists():
                result = self._ingest_batch(
                    [source], [fingerprint_package(source)], False
                )[0]
                closing.append(
                    self.journal.done_record(ticket, result.exp_id)
                )
                report["reingested"].append(result.exp_id)
            else:
                closing.append(
                    self.journal.abandon_record(ticket, "source missing")
                )
                report["purged"].append(str(source))
        self.journal.append_many(closing)
        if touched:
            self.cache.invalidate()
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
        """Row-level read access to one experiment's shard slice, through
        the level-3 reader."""
        exp_id = self.resolve(ref)
        row = self.catalog.experiment(exp_id)
        return ExperimentDatabase.over_shard(self._shard(row["PartitionID"]), exp_id)

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

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _shard(self, partition_id: int) -> sqlite3.Connection:
        conn = self._shards.get(partition_id)
        if conn is None:
            conn = open_shard(self.catalog.shard_path(partition_id))
            self._shards[partition_id] = conn
        return conn
