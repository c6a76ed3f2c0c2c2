"""The lease dispatcher: queue-based load leveling over the run queue.

Sits between the campaign session (whose scheduler is the persistent run
queue) and the fleet: workers *pull* batches, the dispatcher grants each
pull as a lease, and every state change funnels through one object so
the coordinator can serialize it under a single lock.  The lease table
lives in memory; its durable story is the session's journal, which a
restarted coordinator folds back into open leases (:meth:`restore`).
What a settled run means for the campaign — journal, retry ladder,
report — is the session's (:mod:`repro.campaign.session`); the
dispatcher decides only *whether* an ack settles anything.  The fleet's
own lifecycle it reports itself, where it happens: four tallies (workers
registered, leases granted and expired, workers quarantined), the lease
counters of the metrics registry, and one line per event through the
session's :meth:`~repro.campaign.session.CampaignSession.note`.

The guarantees, and where each lives:

* **No duplicate bookkeeping.**  First ack wins: a run already in the
  scheduler's ``done`` set is a duplicate and its commit callback is
  never invoked — a re-leased batch whose original worker resurfaces
  cannot double-commit (:meth:`ack_completed`).
* **Exactly-once re-lease.**  Expiry and quarantine both run through
  :meth:`_reclaim`, which closes the lease first (idempotent in the
  lease store) and releases only the runs that close reclaimed — a
  second expiry/revoke of the same lease is a no-op.
* **No lost runs.**  Reclaimed runs go back through
  ``scheduler.release`` — no attempt charged (the run did nothing
  wrong), retry-wave promotion so the re-leased batch does not starve.
* **The lease is the failure detector.**  A worker proves it is alive
  by renewing its lease every TTL/3; one that dies, wedges or is
  partitioned stops renewing, and :meth:`sweep` reclaims the lease once
  its TTL runs out.  Nothing else counts a worker's silence — a long run
  between two renewals is not a failure.  Quarantine is the operator's
  revoke-now (:meth:`quarantine_worker`), never an automatic verdict.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.campaign.scheduler import RunTicket
from repro.campaign.session import CampaignSession
from repro.fabric.leases import Lease, LeaseStore
from repro.obs.metrics import get_registry

__all__ = ["LeaseDispatcher"]


class LeaseDispatcher:
    """Grants, reclaims and settles batch leases for one campaign.

    Not thread-safe by itself — the coordinator holds its dispatch lock
    across every call (the RPC server is multi-threaded; the dispatcher
    is the serialization point).
    """

    def __init__(
        self,
        session: CampaignSession,
        leases: LeaseStore,
        batch_size: int = 4,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.session = session
        self.leases = leases
        self.batch_size = max(1, int(batch_size))
        self.clock = clock
        #: lease id → {run_id: ticket} for in-flight (unacked) runs.
        self._tickets: Dict[str, Dict[int, RunTicket]] = {}
        #: worker id → capacity, for every worker this session has seen.
        self.workers: Dict[str, int] = {}
        #: Workers the operator quarantined: never granted again.
        self.quarantined_workers: Set[str] = set()
        #: Fleet lifecycle tallies (``CampaignResult.telemetry["fleet"]``).
        self.registered = self.leases_granted = self.leases_expired = 0

    @property
    def quarantined(self) -> int:
        return len(self.quarantined_workers)

    @property
    def scheduler(self):
        """The session's scheduler: the run queue leases are cut from."""
        return self.session.scheduler

    @property
    def journal(self):
        """The session's journal (worker and lease events land there too)."""
        return self.session.journal

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def register(self, worker_id: str, capacity: int = 1) -> bool:
        """Admit a worker; journaled + announced on first sight only.

        Idempotent; a lease pull from a worker this session does not know
        registers it too.
        """
        fresh = worker_id not in self.workers
        if fresh:
            self.workers[worker_id] = max(1, int(capacity))
            self.journal.record_worker_registered(worker_id, capacity)
            self.registered += 1
            self.session.note(f"worker {worker_id} joined (capacity {capacity})")
        return fresh

    # ------------------------------------------------------------------
    # Granting
    # ------------------------------------------------------------------
    def grant(self, worker_id: str, want: int) -> Tuple[Optional[Lease], List[RunTicket]]:
        """Lease up to *want* runs to *worker_id* (pull model).

        Returns ``(None, [])`` when the worker is quarantined, the queue
        is empty, or the description's ``max_parallel`` runs are already
        in flight.
        """
        self.register(worker_id)
        if worker_id in self.quarantined_workers:
            return None, []
        size = max(1, min(int(want) if want else self.batch_size, self.batch_size))
        capacity = self.scheduler.capacity_left
        if capacity is not None:
            size = min(size, capacity)
        batch = self.scheduler.next_batch(size)
        if not batch:
            return None, []
        lease = self.leases.grant(worker_id, [t.run_id for t in batch])
        self._tickets[lease.lease_id] = {t.run_id: t for t in batch}
        self.leases_granted += 1
        get_registry().counter(
            "repro_fabric_leases_granted_total",
            "Run batches leased to fleet workers",
        ).inc()
        return lease, batch

    def renew(self, worker_id: str, lease_id: str) -> bool:
        """Extend a lease the worker is still executing; False tells the
        worker its lease is gone and the batch should be abandoned."""
        lease = self.leases.get(lease_id)
        if lease is None or lease.worker_id != worker_id:
            return False
        return self.leases.renew(lease_id) is not None

    # ------------------------------------------------------------------
    # Settling
    # ------------------------------------------------------------------
    def ack_completed(
        self,
        worker_id: str,
        lease_id: str,
        run_id: int,
        commit: Callable[[], None],
    ) -> str:
        """Settle one successfully executed run.

        *commit* is the coordinator's durable-commit callback (scope
        persist + shard ingest) and **must end in the session's**
        ``settle_ok`` — that is what takes the run out of flight.  It runs
        only when this ack is the run's first — the idempotency point for
        duplicate acks, late acks of re-leased runs, and client retries
        of a response that was lost in flight.

        Returns ``"committed"`` or ``"duplicate"``.
        """
        if self._settled(run_id):
            # Already settled (duplicate ack, retried RPC, a re-leased
            # run's second executor, or a replayed ack of a run a
            # previous session staged): acknowledge without committing.
            self.leases.ack(lease_id, run_id)
            return "duplicate"
        commit()
        assert run_id in self.scheduler.done, "commit must end in session.settle_ok"
        self.leases.ack(lease_id, run_id)
        self._tickets.get(lease_id, {}).pop(run_id, None)
        return "committed"

    def ack_failed(self, worker_id: str, lease_id: str, run_id: int, error: str) -> str:
        """Settle one failed run attempt; charges the run's retry budget.

        Returns ``"requeued"``, ``"failed"`` (budget exhausted) or
        ``"duplicate"``.
        """
        if self._settled(run_id):
            self.leases.ack(lease_id, run_id)
            return "duplicate"
        if run_id not in self.scheduler.in_flight:
            # The lease expired and the run was already released; this
            # late failure report must not charge the fresh attempt.
            self.leases.ack(lease_id, run_id)
            return "duplicate"
        ticket = self._tickets.get(lease_id, {}).pop(run_id, None)
        requeued = self.session.settle_failed(
            run_id,
            worker_id,
            error,
            ticket.attempts if ticket is not None else 1,
        )
        self.leases.ack(lease_id, run_id)
        return "requeued" if requeued else "failed"

    def _settled(self, run_id: int) -> bool:
        """A run is settled if this session committed it (``done``) or a
        previous session's journaled commit staged it (``skipped``) —
        both must dedupe incoming acks, or a worker replaying its
        unacked buffer across a coordinator restart would double-commit
        a run whose first commit landed just before the crash."""
        return run_id in self.scheduler.done or run_id in self.scheduler.skipped

    # ------------------------------------------------------------------
    # Reclaiming
    # ------------------------------------------------------------------
    def _reclaim(self, lease: Lease, reason: str) -> List[int]:
        """Close a lease and return its unsettled runs to the queue.

        The close is the exactly-once gate: :meth:`LeaseStore.close` is
        idempotent, so a lease reclaimed by an expiry sweep cannot be
        reclaimed again by a concurrent quarantine (or vice versa).
        """
        closed = self.leases.close(lease.lease_id, reason)
        if closed is None or closed.closed != reason:
            return []
        requeued = [run_id for run_id in lease.pending if self.scheduler.release(run_id)]
        self._tickets.pop(lease.lease_id, None)
        return requeued

    def sweep(self, now: Optional[float] = None) -> List[str]:
        """Periodic housekeeping: reclaim every lease past its TTL.

        Returns the ids of the leases that expired with runs still
        pending.
        """
        now = self.clock() if now is None else now
        expired: List[str] = []
        for lease in self.leases.expired(now):
            requeued = self._reclaim(lease, "expired")
            if not requeued and not lease.pending:
                continue
            expired.append(lease.lease_id)
            self.journal.record_lease_expired(
                lease.lease_id,
                lease.worker_id,
                requeued,
            )
            self.leases_expired += 1
            get_registry().counter(
                "repro_fabric_leases_expired_total",
                "Leases whose workers went silent past the TTL",
            ).inc()
            self.session.note(
                f"lease {lease.lease_id} of {lease.worker_id} expired; "
                f"{len(requeued)} runs re-queued",
                progress=True,
            )
        return expired

    def quarantine_worker(self, worker_id: str, reason: str) -> List[int]:
        """Operator removal: revokes the worker's active leases now, and
        it is never granted again.

        Returns the run ids returned to the queue.
        """
        if worker_id in self.quarantined_workers:
            return []
        self.quarantined_workers.add(worker_id)
        requeued: List[int] = []
        for lease in self.leases.for_worker(worker_id):
            requeued.extend(self._reclaim(lease, "revoked"))
        self.journal.record_worker_quarantined(worker_id, reason)
        self.session.note(f"worker {worker_id} QUARANTINED: {reason}", progress=True)
        return requeued

    # ------------------------------------------------------------------
    # Restore (coordinator restart)
    # ------------------------------------------------------------------
    def restore(self) -> int:
        """Rebuild lease state after a coordinator restart.

        Folds the campaign journal (:meth:`LeaseStore.restore`): open
        leases re-claim their unsettled runs out of the scheduler queue
        (the original workers may still ack them), and a quarantined
        worker stays quarantined.  Returns the number of restored open
        leases.
        """
        restored = self.leases.restore(self.journal.entries())
        self.quarantined_workers.update(self.journal.quarantined_workers())
        for lease in self.leases.active():
            kept: Dict[int, RunTicket] = {}
            for run_id in lease.pending:
                if self._settled(run_id):
                    continue
                ticket = self.scheduler.claim(run_id)
                if ticket is not None:
                    kept[run_id] = ticket
            self._tickets[lease.lease_id] = kept
            self.workers.setdefault(lease.worker_id, 1)
        return restored

    # ------------------------------------------------------------------
    def status(self) -> Dict[str, object]:
        return {
            "scheduler": self.scheduler.summary(),
            "leases": self.leases.summary(),
            "workers": dict(self.workers),
            "quarantined": sorted(self.quarantined_workers),
        }
