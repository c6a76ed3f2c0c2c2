"""Batch leases: the coordinator's in-memory lease table.

A lease is the coordinator's promise that one worker owns one batch of
runs for a bounded time.  Workers renew it at ~TTL/3 while executing,
so only dead or wedged workers expire; acks retire its runs one by one;
it closes ``complete`` (all runs resolved), ``expired`` (TTL ran out) or
``revoked`` (operator quarantine).  Close is idempotent and the first
reason wins, which is what makes re-leasing *exactly once* — revoking or
expiring an already-closed lease is a no-op.  An ack of run *r* also
acks the active lease holding *r* — the lease that last granted it, the
journal fold's rule.

The table keeps no log of its own: the campaign journal's fold
(:class:`repro.campaign.state.CampaignState`, home of :class:`Lease`)
rebuilds every lease, and a restarted coordinator seeds this table from
it (:meth:`LeaseStore.seed`).  That is what makes failover safe: it
honors in-flight leases (their workers may still ack) instead of blindly
re-dispatching, and each restored lease gets one fresh TTL.

Wall-clock timestamps are used deliberately: leases coordinate real
processes, not simulated ones, and never influence run data (a lease
decides only *where* a run executes; the run itself is a pure function
of description and run id).
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Callable, Dict, List, Optional, Set

from repro.campaign.state import CampaignState, Lease
from repro.core.errors import CampaignError

__all__ = ["Lease", "LeaseStore"]

# No file has this name any more; benchmarks/e2e (frozen, ROADMAP 1(d)) counts its lines.
LEASES_NAME = "leases.jsonl"


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

    def seed(self, state: CampaignState) -> int:
        """Replace the table with copies of the leases folded from the
        campaign journal (coordinator restart); returns the number of
        open leases.  Call it inside the journal's ``follow``, where the
        fold cannot change under the copy.

        Every open lease gets a fresh TTL, so a live worker has time to
        re-establish its renewal cadence before the first sweep.
        """
        expires_at = self.clock() + self.ttl
        self._leases = {
            lease_id: replace(lease, acked=set(lease.acked), expires_at=expires_at)
            for lease_id, lease in state.leases.items()
        }
        self._seq = state.lease_seq
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
        """Mark *run_id* resolved in *lease_id* and in the active lease
        holding it (at most one: a run is granted again only once its last
        lease closed or acked it); a lease closes with its last run.
        Unknown lease → ``None`` (the caller already deduplicated the run
        itself)."""
        lease = self._leases.get(lease_id)
        for held in self._leases.values():
            if held is lease or (held.active and run_id in held.run_ids):
                held.ack(run_id)
        return lease

    def close(self, lease_id: str, reason: str) -> Optional[Lease]:
        """Close a lease; idempotent (a second close keeps the first
        reason — the exactly-once guard for re-leasing)."""
        lease = self._leases.get(lease_id)
        if lease is not None:
            lease.close(reason)
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
        return [lease for lease in self.active() if now >= lease.expires_at]

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
