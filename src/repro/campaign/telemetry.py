"""Live campaign progress: counts, throughput, ETA, per-worker status.

The campaign session reports lifecycle transitions here (one caller at a
time — no locking subtleties for consumers); the telemetry object
aggregates them and renders one-line progress updates for the CLI.  Pure
observation: nothing in this module influences scheduling, journaling or
merging, and a campaign runs identically with telemetry disabled.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.obs.analyze import phase_statistics
from repro.obs.metrics import get_registry

__all__ = ["CampaignTelemetry", "WorkerStatus"]


@dataclass
class WorkerStatus:
    """What one pool worker is doing right now."""

    worker: str
    run_id: Optional[int] = None  # None = idle
    #: Clock reading of the last state transition (busy<->idle).  Reset on
    #: *every* transition — a stale ``since`` after run completion used to
    #: make any busy/idle-duration readout nonsense.
    since: float = 0.0
    completed: int = 0
    failed: int = 0
    #: Accumulated seconds this worker spent executing runs.
    busy_seconds: float = 0.0


@dataclass
class CampaignTelemetry:
    """Aggregated campaign progress.

    Parameters
    ----------
    total_runs:
        Plan size (including runs already staged by earlier sessions).
    emit:
        Optional sink for rendered progress lines (e.g. ``print``); when
        ``None`` the telemetry only aggregates.
    clock:
        Injectable monotonic clock (tests).
    """

    total_runs: int
    emit: Optional[Callable[[str], None]] = None
    clock: Callable[[], float] = time.monotonic

    #: ``None`` until :meth:`campaign_started` — with a monotonic clock
    #: there is no meaningful zero, so a 0.0 sentinel made ``throughput``
    #: divide by the machine's entire uptime.
    started_at: Optional[float] = field(default=None, init=False)
    completed: int = field(default=0, init=False)
    failed: int = field(default=0, init=False)
    retried: int = field(default=0, init=False)
    skipped: int = field(default=0, init=False)
    workers: Dict[str, WorkerStatus] = field(default_factory=dict, init=False)
    run_durations: List[float] = field(default_factory=list, init=False)
    rpc_retries: int = field(default=0, init=False)
    rpc_timeouts: int = field(default=0, init=False)
    quarantined: List[str] = field(default_factory=list, init=False)
    #: Per-phase durations across this session's runs (seconds), fed by
    #: the workers' trace spans; rendered as p50/p95 in :meth:`summary`.
    phase_durations: Dict[str, List[float]] = field(default_factory=dict, init=False)
    #: Fleet lifecycle counters (fabric campaigns only; all zero locally).
    fleet_events: Dict[str, int] = field(
        default_factory=lambda: {
            "registered": 0,
            "transitions": 0,
            "leases": 0,
            "expired": 0,
            "quarantined": 0,
        },
        init=False,
    )

    # ------------------------------------------------------------------
    # Lifecycle callbacks (called by the campaign session)
    # ------------------------------------------------------------------
    def campaign_started(self, skipped: int = 0) -> None:
        self.started_at = self.clock()
        self.skipped = skipped
        if skipped:
            self._emit(f"resume: {skipped}/{self.total_runs} runs already staged")

    def run_started(self, run_id: int, worker: str) -> None:
        status = self.workers.setdefault(worker, WorkerStatus(worker=worker))
        status.run_id = run_id
        status.since = self.clock()

    def _worker_idle(self, worker: str) -> WorkerStatus:
        """Transition *worker* to idle, folding the busy stint into its
        busy-time tally (and the per-worker gauge)."""
        now = self.clock()
        status = self.workers.setdefault(worker, WorkerStatus(worker=worker))
        if status.run_id is not None:
            status.busy_seconds += max(0.0, now - status.since)
        status.run_id = None
        status.since = now
        get_registry().gauge(
            "repro_campaign_worker_busy_seconds",
            "Wall-clock seconds each campaign worker spent executing runs",
            labels=("worker",),
        ).set(status.busy_seconds, worker=worker)
        return status

    def run_completed(self, run_id: int, worker: str, duration: float) -> None:
        self.completed += 1
        self.run_durations.append(duration)
        status = self._worker_idle(worker)
        status.completed += 1
        get_registry().counter(
            "repro_campaign_runs_completed_total",
            "Campaign runs staged successfully this session",
        ).inc()
        self._emit(self.progress_line(f"run {run_id} ok ({duration:.2f}s, {worker})"))

    def run_failed(
        self,
        run_id: int,
        worker: str,
        error: str,
        requeued: bool,
    ) -> None:
        status = self._worker_idle(worker)
        if requeued:
            self.retried += 1
            get_registry().counter(
                "repro_campaign_runs_retried_total",
                "Campaign run attempts requeued after a failure",
            ).inc()
            self._emit(self.progress_line(f"run {run_id} failed, retrying: {error}"))
        else:
            self.failed += 1
            status.failed += 1
            get_registry().counter(
                "repro_campaign_runs_failed_total",
                "Campaign runs that exhausted their attempts",
            ).inc()
            self._emit(self.progress_line(f"run {run_id} FAILED: {error}"))

    def rpc_stats(self, retries: int, timeouts: int) -> None:
        """Aggregate one finished run's control-channel retry counters."""
        self.rpc_retries += int(retries)
        self.rpc_timeouts += int(timeouts)

    def run_phases(self, phases: Dict[str, float]) -> None:
        """Fold one finished run's per-phase wall-clock durations in."""
        for name, seconds in phases.items():
            self.phase_durations.setdefault(str(name), []).append(float(seconds))

    def node_quarantined(self, node_id: str, failures: int) -> None:
        self.quarantined.append(node_id)
        self._emit(
            self.progress_line(
                f"node {node_id} QUARANTINED after {failures} failures",
            ),
        )

    # ------------------------------------------------------------------
    # Fleet lifecycle (called by the lease dispatcher, DESIGN.md §15)
    # ------------------------------------------------------------------
    def worker_registered(self, worker_id: str, capacity: int) -> None:
        self.fleet_events["registered"] += 1
        self._emit(f"worker {worker_id} joined (capacity {capacity})")

    def worker_state(self, worker_id: str, old: str, new: str) -> None:
        self.fleet_events["transitions"] += 1
        self._emit(f"worker {worker_id}: {old} -> {new}")

    def lease_granted(self, worker_id: str, lease_id: str, runs: int) -> None:
        self.fleet_events["leases"] += 1
        get_registry().counter(
            "repro_fabric_leases_granted_total",
            "Run batches leased to fleet workers",
        ).inc()

    def lease_expired(self, lease_id: str, worker_id: str, requeued: int) -> None:
        self.fleet_events["expired"] += 1
        get_registry().counter(
            "repro_fabric_leases_expired_total",
            "Leases whose workers went silent past the TTL",
        ).inc()
        self._emit(
            self.progress_line(
                f"lease {lease_id} of {worker_id} expired; {requeued} runs re-queued",
            ),
        )

    def worker_quarantined(self, worker_id: str, reason: str) -> None:
        self.fleet_events["quarantined"] += 1
        self._emit(self.progress_line(f"worker {worker_id} QUARANTINED: {reason}"))

    def merge_started(self, run_count: int) -> None:
        self._emit(f"merging {run_count} runs into the experiment database")

    # ------------------------------------------------------------------
    # Derived metrics
    # ------------------------------------------------------------------
    @property
    def in_flight(self) -> int:
        return sum(1 for w in self.workers.values() if w.run_id is not None)

    @property
    def staged(self) -> int:
        """Runs safely in shards (this session's completions + resumed)."""
        return self.completed + self.skipped

    def throughput(self) -> float:
        """Completed runs per wall-clock second, this session.

        Returns 0.0 until :meth:`campaign_started` has stamped the start
        time: with a monotonic clock the 0.0 default is not "the epoch"
        but an arbitrary point years in the past, so the old unguarded
        ``clock() - started_at`` yielded a near-zero rate (and through it
        an absurd ETA) for any callback arriving early.
        """
        if self.started_at is None:
            return 0.0
        elapsed = self.clock() - self.started_at
        return self.completed / elapsed if elapsed > 0 else 0.0

    def eta_seconds(self) -> Optional[float]:
        """Remaining runs over the staged-this-session rate (None when no
        rate is measurable yet — before start or before any completion)."""
        rate = self.throughput()
        if rate <= 0:
            return None
        remaining = self.total_runs - self.staged - self.failed
        return remaining / rate if remaining > 0 else 0.0

    def progress_line(self, suffix: str = "") -> str:
        parts = [f"[{self.staged:>{len(str(self.total_runs))}}/{self.total_runs}]"]
        rate = self.throughput()
        if rate > 0:
            parts.append(f"{rate:.2f} runs/s")
        eta = self.eta_seconds()
        if eta is not None and eta > 0:
            parts.append(f"eta {eta:.0f}s")
        if self.in_flight:
            parts.append(f"{self.in_flight} in flight")
        if suffix:
            parts.append(suffix)
        return "  ".join(parts)

    def summary(self) -> Dict[str, Any]:
        return {
            "total": self.total_runs,
            "completed": self.completed,
            "skipped": self.skipped,
            "failed": self.failed,
            "retried": self.retried,
            "rpc_retries": self.rpc_retries,
            "rpc_timeouts": self.rpc_timeouts,
            "quarantined_nodes": sorted(self.quarantined),
            "fleet": dict(self.fleet_events),
            "throughput": round(self.throughput(), 4),
            "workers": {
                w.worker: {
                    "completed": w.completed,
                    "failed": w.failed,
                    "busy_seconds": round(w.busy_seconds, 4),
                }
                for w in sorted(self.workers.values(), key=lambda s: s.worker)
            },
            "phases": phase_statistics(self.phase_durations),
        }

    # ------------------------------------------------------------------
    def _emit(self, line: str) -> None:
        if self.emit is not None:
            self.emit(line)
