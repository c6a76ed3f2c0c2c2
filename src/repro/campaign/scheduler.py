"""Run scheduling for parallel campaigns.

The scheduler partitions a :class:`~repro.core.plan.TreatmentPlan` into
:class:`RunTicket` work items and hands them to the engine's worker pool.
Four policies live here:

* **Ordering** — tickets are dispatched by ``(retry wave, run_id)``, so
  first attempts go in plan order.  Dispatch order is a *scheduling*
  concern only: results are merged by run id, so any order yields the
  same database.
* **Capacity** — the effective worker count is
  ``min(jobs, max_parallel)`` where ``max_parallel`` comes from the
  description's special parameters (Sec. IV-E): a description whose
  platform cannot host many isolated instances declares its own bound,
  and neither a local pool (``effective_jobs``) nor a fleet's lease
  grants (``capacity_left``) exceed it.
* **Retry** — a failed run is requeued (ahead of every first attempt)
  until its attempt budget is exhausted, then reported failed.
* **Quarantine** — failures attributable to one platform node (the
  error carries a ``[node=...]`` token, see
  :func:`repro.core.errors.extract_node_id`) are counted per node; a
  node crossing ``quarantine_after`` is quarantined and subsequent
  failures implicating it become terminal immediately — a dead testbed
  node must not burn the whole campaign's retry budget.

Per-run seeds are *not* derived here: they were fixed at plan-generation
time (``derive_seed(experiment_seed, "run", run_id)``), which is what
makes results bit-identical regardless of worker count or completion
order.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Set

from repro.core.errors import CampaignError
from repro.core.plan import Run, TreatmentPlan

__all__ = ["RunTicket", "CampaignScheduler"]


@dataclass(order=True)
class RunTicket:
    """One schedulable unit of campaign work.

    The sort order ``(retry wave, run_id)`` *is* the dispatch order:
    retries ahead so a flaky run does not starve behind the whole plan,
    ties broken by plan position.
    """

    retry_wave: int
    run_id: int
    run: Run = field(compare=False)
    attempts: int = field(default=0, compare=False)
    max_attempts: int = field(default=1, compare=False)

    @property
    def attempts_left(self) -> int:
        return self.max_attempts - self.attempts


class CampaignScheduler:
    """Dispatches run tickets and tracks their fates.

    Parameters
    ----------
    plan:
        The treatment plan (run ids and per-run seeds already fixed).
    completed:
        Run ids already staged by a previous session (campaign resume);
        these are never scheduled.
    jobs:
        Requested worker count.
    max_parallel:
        Description-imposed concurrency bound (0 = unbounded).
    max_attempts:
        Attempt budget per run (1 = no retries).
    quarantine_after:
        Node-attributed failures a single node may cause before it is
        quarantined (0 disables quarantine).
    """

    def __init__(
        self,
        plan: TreatmentPlan,
        completed: Optional[Iterable[int]] = None,
        jobs: int = 1,
        max_parallel: int = 0,
        max_attempts: int = 2,
        quarantine_after: int = 3,
    ) -> None:
        if jobs < 1:
            raise CampaignError(f"jobs must be >= 1, got {jobs}")
        if max_attempts < 1:
            raise CampaignError(f"max_attempts must be >= 1, got {max_attempts}")
        self.plan = plan
        self.jobs = jobs
        self.max_parallel = max_parallel
        self.max_attempts = max_attempts
        skip: Set[int] = set(completed or ())
        self._queue: List[RunTicket] = [
            RunTicket(
                retry_wave=0,
                run_id=run.run_id,
                run=run,
                max_attempts=max_attempts,
            )
            for run in plan
            if run.run_id not in skip
        ]
        heapq.heapify(self._queue)
        self.skipped: Set[int] = skip
        self.in_flight: Dict[int, RunTicket] = {}
        #: Queue entries for already-completed runs (release raced an
        #: ack); counted so ``pending`` stays O(1) and truthful.
        self._stale = 0
        self.done: Set[int] = set()
        self.failed: Dict[int, str] = {}
        self.quarantine_after = quarantine_after
        self.node_failures: Dict[str, int] = {}
        self.quarantined_nodes: Set[str] = set()

    # ------------------------------------------------------------------
    @property
    def effective_jobs(self) -> int:
        """Worker count after the description's capacity constraint."""
        jobs = self.jobs
        if self.max_parallel > 0:
            jobs = min(jobs, self.max_parallel)
        return max(1, min(jobs, max(1, len(self._queue) + len(self.in_flight))))

    @property
    def capacity_left(self) -> Optional[int]:
        """Runs that may still start under the description's
        ``max_parallel`` bound; ``None`` when it declares none."""
        if self.max_parallel <= 0:
            return None
        return max(0, self.max_parallel - len(self.in_flight))

    @property
    def pending(self) -> int:
        return len(self._queue) - self._stale

    @property
    def finished(self) -> bool:
        return self.pending == 0 and not self.in_flight

    # ------------------------------------------------------------------
    def next_ticket(self) -> Optional[RunTicket]:
        """Pop the next dispatchable ticket (``None`` when queue empty).

        Tickets whose run already completed are discarded: a fabric
        re-lease races the original worker's ack, and when the ack wins
        (first-ack-wins dedup) the released ticket becomes a stale queue
        entry that must never dispatch again.
        """
        while self._queue:
            ticket = heapq.heappop(self._queue)
            if ticket.run_id in self.done:
                self._stale -= 1
                continue
            ticket.attempts += 1
            self.in_flight[ticket.run_id] = ticket
            return ticket
        return None

    def next_batch(self, size: int) -> List[RunTicket]:
        """Pop up to *size* tickets in dispatch order (fabric lease grants).

        Queue-based load leveling in one call: however large the backlog,
        a worker only ever takes what it asked for, and the queue drains
        at whatever rate the fleet's batch requests sustain.
        """
        batch: List[RunTicket] = []
        while len(batch) < size:
            ticket = self.next_ticket()
            if ticket is None:
                break
            batch.append(ticket)
        return batch

    def claim(self, run_id: int) -> Optional[RunTicket]:
        """Move one specific queued run to in-flight (out of dispatch
        order).  The coordinator-restart path: a restored active lease
        still owns its pending runs, so they must not be re-leased while
        the original worker may yet ack them.  O(queue) — called only
        during restore, never in the dispatch loop.  Returns ``None``
        when the run is not queued (already done, in flight or skipped).
        """
        for index, ticket in enumerate(self._queue):
            if ticket.run_id == run_id and run_id not in self.done:
                self._queue.pop(index)
                heapq.heapify(self._queue)
                ticket.attempts += 1
                self.in_flight[run_id] = ticket
                return ticket
        return None

    def release(self, run_id: int) -> bool:
        """Return an in-flight run to the queue *without* charging an
        attempt — the path for leases revoked by worker death, drain or
        quarantine, where the run itself did nothing wrong.  The run goes
        back ahead of the first attempts (retry-wave promotion) so
        a re-leased batch is not starved behind the whole backlog.
        Returns False when the run is not in flight (already acked).
        """
        ticket = self.in_flight.pop(run_id, None)
        if ticket is None:
            return False
        released = RunTicket(
            retry_wave=ticket.retry_wave - 1,
            run_id=ticket.run_id,
            run=ticket.run,
            attempts=ticket.attempts - 1,
            max_attempts=ticket.max_attempts,
        )
        heapq.heappush(self._queue, released)
        return True

    def mark_done(self, run_id: int) -> None:
        if self.in_flight.pop(run_id, None) is None and run_id not in self.done:
            # The run was released back to the queue before its ack
            # arrived: its queue entry is now stale.
            self._stale += 1
        self.done.add(run_id)
        self.failed.pop(run_id, None)

    def record_node_failure(self, node_id: str) -> bool:
        """Count one node-attributed failure; True when *newly* quarantined."""
        self.node_failures[node_id] = self.node_failures.get(node_id, 0) + 1
        if (
            self.quarantine_after > 0
            and self.node_failures[node_id] >= self.quarantine_after
            and node_id not in self.quarantined_nodes
        ):
            self.quarantined_nodes.add(node_id)
            return True
        return False

    def mark_failed(self, run_id: int, error: str, terminal: bool = False) -> bool:
        """Record a failed attempt; returns True when the run was requeued.

        ``terminal=True`` (e.g. the implicated node is quarantined)
        skips the remaining attempt budget and fails the run outright.
        """
        ticket = self.in_flight.pop(run_id, None)
        if ticket is None:  # pragma: no cover - engine always dispatches first
            raise CampaignError(f"run {run_id} failed but was never dispatched")
        if not terminal and ticket.attempts_left > 0:
            requeued = RunTicket(
                retry_wave=ticket.retry_wave - 1,
                run_id=ticket.run_id,
                run=ticket.run,
                attempts=ticket.attempts,
                max_attempts=ticket.max_attempts,
            )
            heapq.heappush(self._queue, requeued)
            return True
        self.failed[run_id] = error
        return False

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        return {
            "total": len(self.plan),
            "skipped": len(self.skipped),
            "done": len(self.done),
            "failed": len(self.failed),
            "pending": self.pending,
            "in_flight": len(self.in_flight),
            "quarantined_nodes": sorted(self.quarantined_nodes),
        }
