"""Fsynced batch leases: the fabric's exactly-once re-dispatch ledger.

A lease is the coordinator's durable promise that one worker owns one
batch of runs for a bounded time.  The ledger is a
:class:`repro.durable.DurableLog` at ``<campaign dir>/leases.jsonl``,
synced per append like the campaign journal, holding five record shapes:

``grant``    lease id, worker, run ids, expiry — written *before* the
             batch leaves the coordinator, so a crash can never forget
             who held what.
``renew``    new expiry for an active lease (workers renew at ~TTL/3
             while executing, so only dead or wedged workers expire).
``ack``      one run of the lease resolved (completed or failed).
``close``    the lease ended: ``complete`` (all runs resolved),
             ``expired`` (TTL ran out), ``revoked`` (drain/quarantine).
``epoch``    a fence: a freshly claimed coordinator marking its fencing
             epoch as the ledger's floor before any organic append.

Replaying the ledger reconstructs the exact active-lease set, which is
what makes coordinator failover safe: a restarted coordinator honors
in-flight leases (their workers may still ack) instead of blindly
re-dispatching, and the TTL sweep re-queues only batches whose workers
went silent.  Close records are what makes re-leasing *exactly once* —
revoking or expiring an already-closed lease is a no-op.

Every record is stamped with the writing coordinator's **fencing
epoch** (:mod:`repro.fabric.election`).  Epochs only grow, so a record
carrying an epoch lower than one already seen was appended by a deposed
leader that outlived its lease (partition, SIGSTOP) — :meth:`restore`
skips such records (counted in :attr:`LeaseStore.fenced_records`),
which is the replay-side half of the split-brain defense: a stale
leader's stray appends can waste bytes, never corrupt lease state.

Wall-clock timestamps are used deliberately: leases coordinate real
processes, not simulated ones, and never influence run data (a lease
decides only *where* a run executes; the run itself is a pure function
of description and run id).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.core.errors import CampaignError
from repro.durable import DurableLog

__all__ = ["Lease", "LeaseStore"]

LEASES_NAME = "leases.jsonl"


@dataclass
class Lease:
    """One granted batch: which worker owns which runs until when."""

    lease_id: str
    worker_id: str
    run_ids: Tuple[int, ...]
    granted_at: float
    expires_at: float
    acked: Set[int] = field(default_factory=set)
    renewals: int = 0
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
    """The append-only lease ledger of one campaign directory."""

    def __init__(
        self,
        campaign_dir,
        ttl: float = 30.0,
        clock: Callable[[], float] = time.time,
        epoch: int = 0,
    ) -> None:
        if ttl <= 0:
            raise CampaignError(f"lease ttl must be > 0, got {ttl}")
        self.root = Path(campaign_dir)
        self.path = self.root / LEASES_NAME
        self._log = DurableLog(self.path)
        self.ttl = float(ttl)
        self.clock = clock
        #: The writing coordinator's fencing epoch, stamped on appends.
        self.epoch = int(epoch)
        #: Stale-epoch records skipped by the last :meth:`restore`.
        self.fenced_records = 0
        self._leases: Dict[str, Lease] = {}
        self._seq = 0

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def _append(self, record: dict) -> None:
        record.setdefault("epoch", self.epoch)
        self._log.append([record])

    def fence(self) -> None:
        """Durably mark this store's epoch as the ledger's floor.

        Written by a freshly claimed coordinator *before* any organic
        append so that every record a deposed predecessor writes after
        the takeover replays as stale.  Without it there is a window —
        between the successor's claim and its first grant/renew — where
        a stale leader's appends would carry the highest epoch in the
        file and replay as legitimate.
        """
        self._append({"op": "epoch"})

    def restore(self) -> int:
        """Replay the ledger (coordinator restart); returns active count.

        Records stamped with an epoch *below* the highest seen so far
        were written by a deposed leader after its successor claimed the
        lease — they are skipped (fencing by epoch comparison), and the
        highest epoch seen becomes the floor for this store's own
        :attr:`epoch` stamp.
        """
        self._leases.clear()
        self._seq = 0
        self.fenced_records = 0
        max_epoch = 0
        for rec in self._log.replay():
            op = rec["op"]
            rec_epoch = int(rec.get("epoch", 0))
            if rec_epoch < max_epoch:
                self.fenced_records += 1
                continue
            max_epoch = rec_epoch
            if op == "grant":
                lease = Lease(
                    lease_id=rec["lease_id"],
                    worker_id=rec["worker_id"],
                    run_ids=tuple(rec["run_ids"]),
                    granted_at=rec["granted_at"],
                    expires_at=rec["expires_at"],
                )
                self._leases[lease.lease_id] = lease
                self._seq = max(self._seq, int(rec["lease_id"][1:]))
                continue
            lease = self._leases.get(rec.get("lease_id"))
            if lease is None:
                continue
            if op == "renew":
                lease.expires_at = rec["expires_at"]
                lease.renewals += 1
            elif op == "ack":
                lease.acked.add(rec["run_id"])
            elif op == "close":
                lease.closed = rec["reason"]
        if max_epoch > self.epoch:
            self.epoch = max_epoch
        return len(self.active())

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def grant(self, worker_id: str, run_ids: List[int]) -> Lease:
        if not run_ids:
            raise CampaignError("refusing to grant an empty lease")
        now = self.clock()
        self._seq += 1
        lease = Lease(
            lease_id=f"L{self._seq:06d}",
            worker_id=worker_id,
            run_ids=tuple(run_ids),
            granted_at=now,
            expires_at=now + self.ttl,
        )
        # Durable before dispatch: the grant record is what a restarted
        # coordinator uses to keep honoring this worker's acks.
        self._append(
            {
                "op": "grant",
                "lease_id": lease.lease_id,
                "worker_id": worker_id,
                "run_ids": list(run_ids),
                "granted_at": now,
                "expires_at": lease.expires_at,
            },
        )
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
        lease.renewals += 1
        self._append(
            {"op": "renew", "lease_id": lease_id, "expires_at": lease.expires_at},
        )
        return lease

    def ack(self, lease_id: str, run_id: int) -> Optional[Lease]:
        """Mark one run of a lease resolved; closes the lease when it was
        the last one.  Unknown lease → ``None`` (the caller already
        deduplicated the run itself)."""
        lease = self._leases.get(lease_id)
        if lease is None or run_id in lease.acked:
            return lease
        lease.acked.add(run_id)
        self._append({"op": "ack", "lease_id": lease_id, "run_id": run_id})
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
        self._append({"op": "close", "lease_id": lease_id, "reason": reason})
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
            "epoch": self.epoch,
            "fenced_records": self.fenced_records,
        }
