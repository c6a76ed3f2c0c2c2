"""Batch leases: the coordinator's in-memory lease table.

A lease is the coordinator's promise that one worker owns one batch of
runs for a bounded time.  Workers renew it at ~TTL/3 while executing,
so only dead or wedged workers expire; acks retire its runs one by one;
it closes ``complete`` (all runs resolved), ``expired`` (TTL ran out) or
``revoked`` (operator quarantine).  Close is idempotent and the first
reason wins, which is what makes re-leasing *exactly once* — revoking or
expiring an already-closed lease is a no-op.

The table keeps no log of its own: the campaign journal
(:mod:`repro.campaign.journal`) already holds every fact it needs.  Each
granted run is a ``run_start`` entry carrying its lease id, each settle
a ``run_complete`` / ``run_failed``, each re-queuing expiry a
``lease_expired``, each revoke a ``worker_quarantined``.
:meth:`LeaseStore.restore` folds those entries, which is what makes
coordinator failover safe: a restarted coordinator honors in-flight
leases (their workers may still ack) instead of blindly re-dispatching,
and each restored lease gets one fresh TTL.

Wall-clock timestamps are used deliberately: leases coordinate real
processes, not simulated ones, and never influence run data (a lease
decides only *where* a run executes; the run itself is a pure function
of description and run id).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.core.errors import CampaignError

__all__ = ["Lease", "LeaseStore"]

# No file has this name any more; benchmarks/e2e (frozen, ROADMAP 1(d)) counts its lines.
LEASES_NAME = "leases.jsonl"


@dataclass
class Lease:
    """One granted batch: which worker owns which runs until when."""

    lease_id: str
    worker_id: str
    run_ids: Tuple[int, ...]
    expires_at: float
    acked: Set[int] = field(default_factory=set)
    closed: Optional[str] = None  # close reason, None while active

    @property
    def active(self) -> bool:
        return self.closed is None

    @property
    def pending(self) -> List[int]:
        """Run ids granted but not yet resolved, in grant order."""
        return [r for r in self.run_ids if r not in self.acked]

    def expired(self, now: float) -> bool:
        return self.active and now >= self.expires_at


class LeaseStore:
    """The lease table of one coordinator."""

    def __init__(self, ttl: float = 30.0, clock: Callable[[], float] = time.time) -> None:
        if ttl <= 0:
            raise CampaignError(f"lease ttl must be > 0, got {ttl}")
        self.ttl = float(ttl)
        self.clock = clock
        self._leases: Dict[str, Lease] = {}
        self._seq = 0

    # Nothing to fence any more; benchmarks/e2e (frozen, ROADMAP 1(d)) wraps it.
    def fence(self) -> None:
        pass

    def restore(self, entries: Iterable[Dict[str, Any]]) -> int:
        """Fold campaign-journal *entries*, in file order, into the table
        (coordinator restart); returns the number of open leases.

        Every open lease gets a fresh TTL, so a live worker has time to
        re-establish its renewal cadence before the first sweep.
        """
        self._leases.clear()
        self._seq = 0
        expires_at = self.clock() + self.ttl
        latest: Dict[int, Lease] = {}  # run id -> the last lease granting it
        for entry in entries:
            kind = entry["type"]
            if kind == "run_start" and entry.get("lease_id"):
                lease_id = entry["lease_id"]
                lease = self._leases.get(lease_id)
                if lease is None:
                    lease = Lease(lease_id, entry["worker"], (), expires_at)
                    self._leases[lease_id] = lease
                    self._seq = max(self._seq, int(lease_id[1:]))
                lease.run_ids += (entry["run_id"],)
                latest[entry["run_id"]] = lease
            elif kind in ("run_complete", "run_failed") and entry["run_id"] in latest:
                self.ack(latest[entry["run_id"]].lease_id, entry["run_id"])
            elif kind == "lease_expired":
                self.close(entry["lease_id"], "expired")
            elif kind == "worker_quarantined":
                for lease in self.for_worker(entry["worker_id"]):
                    self.close(lease.lease_id, "revoked")
        return len(self.active())

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def grant(self, worker_id: str, run_ids: List[int]) -> Lease:
        if not run_ids:
            raise CampaignError("refusing to grant an empty lease")
        self._seq += 1
        lease = Lease(f"L{self._seq:06d}", worker_id, tuple(run_ids), self.clock() + self.ttl)
        self._leases[lease.lease_id] = lease
        return lease

    def renew(self, lease_id: str) -> Optional[Lease]:
        """Extend an active lease by one TTL; ``None`` if not renewable.

        Renewal of a closed or unknown lease fails softly — the worker
        learns its batch was re-leased and may abandon it (its eventual
        acks would be deduplicated anyway).
        """
        lease = self._leases.get(lease_id)
        if lease is None or not lease.active:
            return None
        lease.expires_at = self.clock() + self.ttl
        return lease

    def ack(self, lease_id: str, run_id: int) -> Optional[Lease]:
        """Mark one run of a lease resolved; closes the lease when it was
        the last one.  Unknown lease → ``None`` (the caller already
        deduplicated the run itself)."""
        lease = self._leases.get(lease_id)
        if lease is None or run_id in lease.acked:
            return lease
        lease.acked.add(run_id)
        if lease.active and not lease.pending:
            self.close(lease_id, "complete")
        return lease

    def close(self, lease_id: str, reason: str) -> Optional[Lease]:
        """Close a lease; idempotent (a second close keeps the first
        reason — the exactly-once guard for re-leasing)."""
        lease = self._leases.get(lease_id)
        if lease is None or not lease.active:
            return lease
        lease.closed = reason
        return lease

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def get(self, lease_id: str) -> Optional[Lease]:
        return self._leases.get(lease_id)

    def active(self) -> List[Lease]:
        return [lease for lease in self._leases.values() if lease.active]

    def expired(self, now: Optional[float] = None) -> List[Lease]:
        now = self.clock() if now is None else now
        return [lease for lease in self._leases.values() if lease.expired(now)]

    def for_worker(self, worker_id: str) -> List[Lease]:
        return [
            lease
            for lease in self._leases.values()
            if lease.active and lease.worker_id == worker_id
        ]

    def leased_runs(self) -> Set[int]:
        """Every run id currently owned by an active lease."""
        out: Set[int] = set()
        for lease in self._leases.values():
            if lease.active:
                out.update(lease.pending)
        return out

    def summary(self) -> dict:
        active = self.active()
        return {
            "granted": self._seq,
            "active": len(active),
            "leased_runs": sum(len(lease.pending) for lease in active),
        }
