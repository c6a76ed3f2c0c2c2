"""The lease dispatcher: queue-based load leveling over the run queue.

Sits between the campaign session (whose scheduler is the persistent run
queue) and the fleet: workers *pull* batches, the dispatcher grants each
pull as a durable lease, and every state change funnels through one
object so the coordinator can serialize it under a single lock.  What a
settled run means for the campaign — journal, retry ladder, report — is
the session's (:mod:`repro.campaign.session`); the dispatcher decides
only *whether* an ack settles anything.  The fleet's own lifecycle it
reports itself, where it happens: five tallies (workers registered,
liveness transitions, leases granted and expired, workers quarantined),
the lease counters of the metrics registry, and one line per event
through the session's :meth:`~repro.campaign.session.CampaignSession.note`.

The guarantees, and where each lives:

* **No duplicate bookkeeping.**  First ack wins: a run already in the
  scheduler's ``done`` set is a duplicate and its commit callback is
  never invoked — a re-leased batch whose original worker resurfaces
  cannot double-commit (:meth:`ack_completed`).
* **Exactly-once re-lease.**  Expiry, revocation and quarantine all run
  through :meth:`_reclaim`, which closes the lease first (idempotent in
  the lease store) and releases only the runs that close reclaimed —
  a second expiry/revoke of the same lease is a no-op.
* **No lost runs.**  Reclaimed runs go back through
  ``scheduler.release`` — no attempt charged (the run did nothing
  wrong), retry-wave promotion so the re-leased batch does not starve.
* **Liveness drives policy.**  :meth:`sweep` charges worker silence
  through the registry's state machines and reclaims leases of workers
  that crossed into ``dead``/``quarantined``; an expired TTL reclaims
  even while the worker still counts as alive (a wedged worker process
  heartbeats nothing either way).
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.campaign.scheduler import RunTicket
from repro.campaign.session import CampaignSession
from repro.core.heartbeat import QUARANTINED
from repro.fabric.leases import Lease, LeaseStore
from repro.fabric.registry import WorkerRegistry
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
        registry: WorkerRegistry,
        batch_size: int = 4,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.session = session
        self.leases = leases
        self.registry = registry
        self.batch_size = max(1, int(batch_size))
        self.clock = clock
        #: lease id → {run_id: ticket} for in-flight (unacked) runs.
        self._tickets: Dict[str, Dict[int, RunTicket]] = {}
        #: Fleet lifecycle tallies (``CampaignResult.telemetry["fleet"]``).
        self.registered = self.transitions = self.quarantined = 0
        self.leases_granted = self.leases_expired = 0

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
        """Admit a worker; journaled + announced on first sight only."""
        fresh = self.registry.register(worker_id, capacity)
        if fresh:
            self.journal.record_worker_registered(worker_id, capacity)
            self.registered += 1
            self.session.note(f"worker {worker_id} joined (capacity {capacity})")
        return fresh

    def beat(self, worker_id: str) -> str:
        """One worker heartbeat; returns the worker's (new) state."""
        moved = self.registry.beat(worker_id)
        if moved is not None:
            self._moved(worker_id, *moved)
        return self.registry.state(worker_id)

    def _moved(self, worker_id: str, old: str, new: str) -> None:
        self.transitions += 1
        self.session.note(f"worker {worker_id}: {old} -> {new}")

    # ------------------------------------------------------------------
    # Granting
    # ------------------------------------------------------------------
    def grant(self, worker_id: str, want: int) -> Tuple[Optional[Lease], List[RunTicket]]:
        """Lease up to *want* runs to *worker_id* (pull model).

        Returns ``(None, [])`` when the worker may not receive work
        (draining, dead, quarantined), the queue is empty, or the
        description's ``max_parallel`` runs are already in flight.
        """
        if not self.registry.known(worker_id):
            self.register(worker_id)
        self.registry.beat(worker_id)
        if not self.registry.leasable(worker_id):
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
        self.registry.beat(worker_id)
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
        self.registry.beat(worker_id)
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
        self.registry.beat(worker_id)
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

    def sweep(self, now: Optional[float] = None) -> Dict[str, List[str]]:
        """Periodic housekeeping: liveness misses, TTL expiry, quarantine.

        Returns ``{"expired": [lease ids], "quarantined": [worker ids]}``
        for the coordinator's status output.
        """
        now = self.clock() if now is None else now
        out: Dict[str, List[str]] = {"expired": [], "quarantined": []}
        for worker_id, old, new in self.registry.sweep(now):
            self._moved(worker_id, old, new)
            # A worker gone ``dead`` keeps its leases until their TTL — it may
            # be partitioned, not gone — but is granted nothing new.
            if new == QUARANTINED:
                out["quarantined"].append(worker_id)
                self._quarantine_leases(worker_id, "liveness flapping")
        for lease in self.leases.expired(now):
            requeued = self._reclaim(lease, "expired")
            if not requeued and not lease.pending:
                continue
            out["expired"].append(lease.lease_id)
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
        return out

    def _quarantine_leases(self, worker_id: str, reason: str) -> List[int]:
        requeued: List[int] = []
        for lease in self.leases.for_worker(worker_id):
            requeued.extend(self._reclaim(lease, "revoked"))
        self.journal.record_worker_quarantined(worker_id, reason)
        self.quarantined += 1
        self.session.note(f"worker {worker_id} QUARANTINED: {reason}", progress=True)
        return requeued

    def quarantine_worker(self, worker_id: str, reason: str) -> List[int]:
        """Administrative/terminal removal; revokes active leases now.

        Returns the run ids returned to the queue.
        """
        if not self.registry.quarantine(worker_id):
            return []
        return self._quarantine_leases(worker_id, reason)

    def drain_worker(self, worker_id: str) -> None:
        """Graceful removal: current leases finish, nothing new granted."""
        self.registry.drain(worker_id)

    # ------------------------------------------------------------------
    # Restore (coordinator restart)
    # ------------------------------------------------------------------
    def restore(self) -> int:
        """Rebuild lease state after a coordinator restart.

        Active leases from the ledger re-claim their unsettled runs out
        of the scheduler queue (the original workers may still ack them)
        and get one fresh TTL so a live worker has time to re-establish
        its renewal cadence before the first sweep.  Returns the number
        of restored active leases.
        """
        restored = self.leases.restore()
        for lease in self.leases.active():
            kept: Dict[int, RunTicket] = {}
            for run_id in lease.pending:
                if self._settled(run_id):
                    continue
                ticket = self.scheduler.claim(run_id)
                if ticket is not None:
                    kept[run_id] = ticket
            self._tickets[lease.lease_id] = kept
            self.leases.renew(lease.lease_id)
            self.registry.register(lease.worker_id)
        return restored

    # ------------------------------------------------------------------
    def status(self) -> Dict[str, object]:
        return {
            "scheduler": self.scheduler.summary(),
            "leases": self.leases.summary(),
            "fleet": self.registry.counts(),
            "workers": self.registry.summary(),
        }
