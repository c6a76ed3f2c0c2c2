"""Ingest journal: crash-safe warehouse ingestion.

An ingest batch commits in attach groups, one transaction each, so a
crash leaves whole groups or nothing in the warehouse file.  The
journal says which packages a dead process had in flight: a
:class:`repro.durable.DurableLog` at ``<root>/journal/ingest.jsonl``
whose entries bracket every ingest attempt.

``ingest_begin``
    ticket (monotonic per journal), source path, content digest,
    partition key.  Appended — and fsynced — *before* any warehouse
    write for the batch.
``ingest_done``
    ticket + the ExpID the package committed under.
``ingest_skip``
    ticket + the existing ExpID a duplicate deduplicated onto.
``ingest_abandoned``
    ticket + the error that stopped it: a package whose group failed,
    or one recovery could not re-ingest.

A ``begin`` without a closing entry marks an ingest that was in flight
when the process died.  Recovery
(:meth:`repro.repo.warehouse.Warehouse.recover`) replays exactly those
tickets: it confirms a digest the catalogue already holds and
re-ingests the rest.  Because the catalogue dedups by content digest,
replay is idempotent — a killed ingest resumes with no duplicate and no
missing ExpIDs.

One :class:`IngestJournal` reads the file from its first byte once: it
folds the ticket high-water mark and the open ``ingest_begin`` set
through :meth:`repro.durable.DurableLog.follow`, so every later read —
of its own appends too — takes only the file's tail.

Appends are batched: one ``append_many`` call is one write + fsync
regardless of batch size, which is where batched ingestion's
throughput over per-package commits comes from.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Iterable, List

from repro.durable import DurableLog

__all__ = ["IngestJournal", "JOURNAL_FILE"]

JOURNAL_FILE = "journal/ingest.jsonl"


class IngestJournal:
    """Typed access to one warehouse's ingest journal."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.path = self.root / JOURNAL_FILE
        self._log = DurableLog(self.path)
        self._next_ticket = 0
        self._open: Dict[int, Dict[str, Any]] = {}
        self._log.follow(self._apply)

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def next_ticket(self) -> int:
        ticket = self._next_ticket
        self._next_ticket += 1
        return ticket

    def append_many(
        self, records: Iterable[Dict[str, Any]], fsync: bool = True
    ) -> None:
        """Append a batch of entries with a single write (+ fsync).

        ``fsync=False`` is for ticket-*closing* records: losing one to
        a power cut only means recovery re-examines the ticket — it
        confirms a digest the catalogue knows, and retries (and again
        abandons) a package that failed.  ``begin`` records
        must stay fsynced: they are what recovery replays from.
        """
        self._log.append(records, sync=fsync)

    def begin_record(self, ticket: int, source, key) -> Dict[str, Any]:
        return {
            "type": "ingest_begin",
            "ticket": ticket,
            "source": str(source),
            "digest": key.content_digest,
            "name": key.name,
            "factor_fp": key.factor_fingerprint,
        }

    def done_record(self, ticket: int, exp_id: int) -> Dict[str, Any]:
        return {"type": "ingest_done", "ticket": ticket, "exp_id": exp_id}

    def skip_record(self, ticket: int, exp_id: int) -> Dict[str, Any]:
        return {"type": "ingest_skip", "ticket": ticket, "exp_id": exp_id}

    def abandon_record(self, ticket: int, reason: str) -> Dict[str, Any]:
        """The ticket's package did not commit, for *reason*."""
        return {"type": "ingest_abandoned", "ticket": ticket, "reason": reason}

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def entries(self) -> List[Dict[str, Any]]:
        """Every journal entry, in file order."""
        return list(self._log.replay())

    def incomplete(self) -> List[Dict[str, Any]]:
        """``ingest_begin`` entries whose ticket never completed."""
        return self._log.follow(self._apply)

    def _apply(self, records: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
        """Fold *records* into the ticket high-water mark and the open
        set; return the open ``ingest_begin`` entries by ticket."""
        for rec in records:
            ticket = rec.get("ticket", -1)
            self._next_ticket = max(self._next_ticket, ticket + 1)
            kind = rec.get("type")
            if kind == "ingest_begin":
                self._open[ticket] = rec
            elif kind in ("ingest_done", "ingest_skip", "ingest_abandoned"):
                self._open.pop(ticket, None)
        return [self._open[t] for t in sorted(self._open)]
