"""One campaign session: open, settle and seal, written once.

A campaign is driven by one of two transports — the local worker pool
(:mod:`repro.campaign.engine`) or the leased fleet
(:mod:`repro.fabric.coordinator`).  They differ in how a ticket reaches a
worker and how its result comes back.  What the campaign *does about it*
is one policy (DESIGN.md §8), and it lives here, behind the five
transitions both transports perform: :meth:`~CampaignSession.open`,
:meth:`~CampaignSession.dispatch`, :meth:`~CampaignSession.settle_ok`,
:meth:`~CampaignSession.settle_failed` and :meth:`~CampaignSession.seal`.

The session is the only journal writer for run state, and the one
reporter of it: each transition counts itself in the metrics registry and
writes its progress line in the method that performs it.  Counts the
scheduler owns (completed, failed, staged, in flight, quarantined nodes)
are read from the scheduler, never re-counted; per-run facts only a settle
sees (run and phase walls, retries, control-channel retry tallies, each
worker's busy time) are plain fields here.  :meth:`~CampaignSession.summary`
is the campaign report, ``CampaignResult.telemetry``.

One commit contract serves both transports: a run is committed when its
shard holds it (the journal entry points there, and a resume trusts an
entry only as far as :func:`~repro.campaign.merge.shard_has_run`), the
experiment scope is ``scope.json`` (written by the scope run's settle),
and a staging store is scratch that neither resume nor merge reads.

Dispatch and the two settles are not thread-safe: the local engine calls
them from its one dispatch thread, the coordinator under its dispatch
lock.  Seal runs once the scheduler is finished — nothing dispatches or
settles any more — and needs no lock.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.campaign.journal import CampaignJournal
from repro.campaign.merge import (
    SCOPE_NAME,
    apply_abort_reasons,
    load_scope_payload,
    merge_shards,
)
from repro.campaign.scheduler import CampaignScheduler, RunTicket
from repro.core.description import ExperimentDescription
from repro.core.errors import CampaignError, RecoveryError, extract_node_id
from repro.core.params import SpecialParams
from repro.core.plan import TreatmentPlan, generate_plan
from repro.durable import replace_file
from repro.faults.control import select_control_faults
from repro.obs.analyze import phase_statistics
from repro.obs.metrics import count_suppressed_error, get_registry

__all__ = ["CampaignResult", "CampaignSession", "merge_campaign"]


@dataclass
class CampaignResult:
    """What :meth:`CampaignSession.seal` returns."""

    description: ExperimentDescription
    plan: TreatmentPlan
    campaign_dir: Path
    executed_runs: List[int] = field(default_factory=list)
    skipped_runs: List[int] = field(default_factory=list)
    failed_runs: Dict[int, str] = field(default_factory=dict)
    timed_out_runs: List[int] = field(default_factory=list)
    #: Wall-clock duration of this session, seconds.
    duration: float = 0.0
    jobs: int = 1
    pool: str = "thread"
    db_path: Optional[Path] = None
    telemetry: Optional[Dict[str, Any]] = None

    def summary(self) -> Dict[str, Any]:
        return {
            "experiment": self.description.name,
            "total_runs": len(self.plan),
            "executed": len(self.executed_runs),
            "skipped": len(self.skipped_runs),
            "failed": len(self.failed_runs),
            "timed_out": len(self.timed_out_runs),
            "duration": self.duration,
            "jobs": self.jobs,
            "pool": self.pool,
        }


class CampaignSession:
    """One execution session of one campaign directory.

    Parameters
    ----------
    description:
        The abstract experiment description.
    campaign_dir:
        Root directory holding the journal, ``scope.json``, the shards
        and the (scratch) staging stores.
    jobs:
        Requested local worker count; the scheduler caps it by the
        description's ``max_parallel`` special parameter when declared.
    max_attempts:
        Attempt budget per run (1 = no retries).
    resume:
        Resume an aborted campaign found in *campaign_dir*.
    custom_treatments:
        Optional explicit treatment sequence (Sec. IV-C1).
    control_faults:
        Chaos plan for the control plane (see
        :mod:`repro.faults.control`); entries are filtered per attempt
        and session before reaching a worker's platform config.
    quarantine_after:
        Node-attributed failures before a node is quarantined
        (0 disables).
    progress:
        Optional sink for progress lines (e.g. ``print``).
    """

    def __init__(
        self,
        description: ExperimentDescription,
        campaign_dir,
        jobs: int = 1,
        max_attempts: int = 2,
        resume: bool = False,
        custom_treatments: Optional[List[Dict[str, Any]]] = None,
        control_faults: Optional[List[Dict[str, Any]]] = None,
        quarantine_after: int = 3,
        progress=None,
    ) -> None:
        self.description = description
        self.campaign_dir = Path(campaign_dir)
        self.jobs = jobs
        self.max_attempts = max_attempts
        self.resume = resume
        self.custom_treatments = custom_treatments
        self.control_faults = list(control_faults or [])
        self.quarantine_after = quarantine_after
        self.progress = progress
        self.journal = CampaignJournal(self.campaign_dir)
        self.plan: Optional[TreatmentPlan] = None
        self.scheduler: Optional[CampaignScheduler] = None
        #: This session's index in the journal (0 = the fresh start).
        self.index = 0
        #: Runs earlier sessions staged: ``{run_id: run_complete entry}``.
        self.staged: Dict[int, Dict[str, Any]] = {}
        self.timed_out: List[int] = []
        #: ``campaign_complete`` is journaled (by this session's seal).
        self.sealed = False
        self._opened_at = 0.0
        #: This session's per-run facts, folded in by the settles.
        self.run_durations: List[float] = []
        self.phase_durations: Dict[str, List[float]] = {}
        self.retried = 0
        self.rpc_retries = 0
        self.rpc_timeouts = 0
        #: Per-worker busy clock: ``worker -> (busy seconds, runs dispatched
        #: and not yet settled, clock reading of the last change)``.
        self._busy: Dict[str, Tuple[float, int, float]] = {}

    # ------------------------------------------------------------------
    def open(self) -> "CampaignSession":
        """Plan → journal fresh/resume check → ``campaign_start`` entry →
        scheduler, capped by the description's ``max_parallel``
        (Sec. IV-E).

        A resume keeps the runs whose shards hold them; without
        ``scope.json`` it also re-queues the plan's first run, whose
        settle writes the file again.
        """
        self._opened_at = time.monotonic()
        desc = self.description
        self.plan = generate_plan(
            desc.factors,
            desc.seed,
            custom_treatments=self.custom_treatments,
        )
        plan_fp = self.plan.fingerprint()
        if self.resume:
            self.staged = self.journal.prepare_resume(desc, len(self.plan), plan_fp)
            if not (self.campaign_dir / SCOPE_NAME).exists():
                self.staged.pop(self.plan[0].run_id, None)
        elif self.journal.started():
            raise RecoveryError(
                "campaign directory already holds a journal; pass "
                "resume=True or use a fresh directory",
            )
        self.index = self.journal.record_start(
            desc.fingerprint(),
            desc.seed,
            len(self.plan),
            plan_fp,
        )
        self.scheduler = CampaignScheduler(
            self.plan,
            completed=self.staged,
            jobs=self.jobs,
            max_parallel=SpecialParams(desc.special_params).get("max_parallel"),
            max_attempts=self.max_attempts,
            quarantine_after=self.quarantine_after,
        )
        if self.staged:
            self.note(f"resume: {len(self.staged)}/{len(self.plan)} runs already staged")
        return self

    # ------------------------------------------------------------------
    def dispatch(
        self, ticket: RunTicket, worker: str, lease_id: Optional[str]
    ) -> List[Dict[str, Any]]:
        """Journal one ticket's hand-over to *worker* (under the fleet
        lease *lease_id*, ``None`` for a local worker).

        Returns the chaos entries surviving the attempt/session filter: a
        retry past an entry's ``max_attempt`` (or a resume past its
        ``sessions``) runs clean.
        """
        self.journal.record_run_start(ticket.run_id, worker, lease_id)
        self._clock_worker(worker, +1)
        return select_control_faults(
            self.control_faults,
            attempt=ticket.attempts,
            session=self.index,
        )

    def settle_ok(
        self,
        run_id: int,
        worker: str,
        shard: str,
        duration: float = 0.0,
        timed_out: bool = False,
        rpc_retries: int = 0,
        rpc_timeouts: int = 0,
        phases: Optional[Dict[str, float]] = None,
        epoch: Optional[int] = None,
        scope: Optional[str] = None,
    ) -> None:
        """Settle one run: scope → ``run_complete`` entry → scheduler →
        report.

        The caller's shard transaction is the commit point and has
        landed; the entry (*shard* / *epoch*, see
        :meth:`CampaignJournal.record_run_complete`) is the durable
        pointer to it.  *scope* is the encoded experiment scope the
        plan's first run returns: the first one settled becomes
        ``scope.json``, fsynced before the entry, so a journaled scope
        run implies the file the merge reads.
        """
        scope_path = self.campaign_dir / SCOPE_NAME
        if scope is not None and not scope_path.exists():
            replace_file(scope_path, scope)
        self.journal.record_run_complete(run_id, worker, shard, epoch=epoch)
        self.scheduler.mark_done(run_id)
        self.run_durations.append(duration)
        self._worker_settled(worker)
        get_registry().counter(
            "repro_campaign_runs_completed_total",
            "Campaign runs staged successfully this session",
        ).inc()
        self.note(f"run {run_id} ok ({duration:.2f}s, {worker})", progress=True)
        self.rpc_retries += int(rpc_retries)
        self.rpc_timeouts += int(rpc_timeouts)
        for name, seconds in (phases or {}).items():
            self.phase_durations.setdefault(str(name), []).append(float(seconds))
        if timed_out:
            self.timed_out.append(run_id)

    def settle_failed(self, run_id: int, worker: str, error: str, attempt: int) -> bool:
        """Settle one failed attempt; True when the run was re-queued.

        A failure implicating a quarantined node is terminal, any other
        is re-queued until the attempt budget runs out; a node crossing
        ``quarantine_after`` failures is quarantined from then on.
        """
        node_id = extract_node_id(error)
        terminal = node_id is not None and node_id in self.scheduler.quarantined_nodes
        requeued = self.scheduler.mark_failed(run_id, error, terminal=terminal)
        get_registry().counter(
            "repro_campaign_worker_errors_total",
            "Exceptions crossing the campaign worker boundary",
        ).inc()
        self.journal.record_run_failed(run_id, error, attempt)
        self._worker_settled(worker)
        if requeued:
            self.retried += 1
            get_registry().counter(
                "repro_campaign_runs_retried_total",
                "Campaign run attempts requeued after a failure",
            ).inc()
            self.note(f"run {run_id} failed, retrying: {error}", progress=True)
        else:
            get_registry().counter(
                "repro_campaign_runs_failed_total",
                "Campaign runs that exhausted their attempts",
            ).inc()
            self.note(f"run {run_id} FAILED: {error}", progress=True)
        if node_id is not None and self.scheduler.record_node_failure(node_id):
            failures = self.scheduler.node_failures[node_id]
            self.journal.record_node_quarantined(node_id, failures)
            self.note(f"node {node_id} QUARANTINED after {failures} failures", progress=True)
        return requeued

    # ------------------------------------------------------------------
    def _clock_worker(self, worker: str, runs: int) -> float:
        """Move *worker*'s count of dispatched, unsettled runs by *runs*.

        The worker is busy from its first outstanding dispatch to its
        last settle: the time since its previous move counts only when it
        held a run.  Returns its busy seconds so far.
        """
        now = time.monotonic()
        busy, held, mark = self._busy.get(worker, (0.0, 0, now))
        if held:
            busy += now - mark
        self._busy[worker] = (busy, max(0, held + runs), now)
        return busy

    def _worker_settled(self, worker: str) -> None:
        get_registry().gauge(
            "repro_campaign_worker_busy_seconds",
            "Wall-clock seconds each campaign worker spent executing runs",
            labels=("worker",),
        ).set(self._clock_worker(worker, -1), worker=worker)

    def note(self, line: str, progress: bool = False) -> None:
        """Send *line* to the ``progress`` sink; with *progress*, behind
        the ``[staged/total]  rate  eta  in flight`` head."""
        if self.progress is None:
            return
        if progress:
            line = "  ".join(self._progress_head() + [line])
        self.progress(line)

    def _progress_head(self) -> List[str]:
        scheduler = self.scheduler
        total = len(self.plan)
        completed = len(scheduler.done)
        staged = completed + len(self.staged)
        head = [f"[{staged:>{len(str(total))}}/{total}]"]
        # This session's rate: resumed runs took no time here.
        elapsed = time.monotonic() - self._opened_at
        rate = completed / elapsed if elapsed > 0 else 0.0
        if rate > 0:
            head.append(f"{rate:.2f} runs/s")
            remaining = total - staged - len(scheduler.failed)
            if remaining > 0:
                head.append(f"eta {remaining / rate:.0f}s")
        if scheduler.in_flight:
            head.append(f"{len(scheduler.in_flight)} in flight")
        return head

    def summary(self) -> Dict[str, Any]:
        """This session's report (``CampaignResult.telemetry``)."""
        scheduler = self.scheduler
        return {
            "total": len(self.plan),
            "completed": len(scheduler.done),
            "skipped": len(self.staged),
            "failed": len(scheduler.failed),
            "retried": self.retried,
            "rpc_retries": self.rpc_retries,
            "rpc_timeouts": self.rpc_timeouts,
            "quarantined_nodes": sorted(scheduler.quarantined_nodes),
            "phases": phase_statistics(self.phase_durations),
        }

    # ------------------------------------------------------------------
    def seal(self, db_path=None, jobs: int = 1, pool: str = "thread") -> CampaignResult:
        """Close a settled campaign: metrics snapshot, the failed-runs
        error, ``campaign_complete`` exactly once, the merge into
        *db_path* when given.

        *jobs* and *pool* only label the result (how many workers of
        which kind the transport used).  Raises :class:`CampaignError` —
        leaving a resumable journal — when runs exhausted their attempt
        budgets.
        """
        result = CampaignResult(
            description=self.description,
            plan=self.plan,
            campaign_dir=self.campaign_dir,
            executed_runs=sorted(self.scheduler.done),
            skipped_runs=sorted(self.staged),
            failed_runs=dict(self.scheduler.failed),
            timed_out_runs=sorted(self.timed_out),
            duration=time.monotonic() - self._opened_at,
            jobs=jobs,
            pool=pool,
            telemetry=self.summary(),
        )
        self.write_metrics()
        if result.failed_runs:
            failed = ", ".join(str(r) for r in sorted(result.failed_runs))
            raise CampaignError(
                f"{len(result.failed_runs)} run(s) failed after "
                f"{self.max_attempts} attempt(s): {failed}; fix the cause and "
                "resume the campaign",
            )
        if not self.sealed:
            self.journal.record_complete()
            self.sealed = True
        if db_path is not None:
            runs = len(self.staged) + len(self.scheduler.done)
            self.note(f"merging {runs} runs into the experiment database")
            result.db_path = merge_campaign(self.campaign_dir, db_path)
            result.duration = time.monotonic() - self._opened_at
        return result

    def write_metrics(self) -> None:
        """Replace ``metrics.json`` with this process's registry state
        (what ``repro metrics <campaign dir>`` renders).  Seal calls it; a
        transport whose loop can abort short of seal calls it on that
        path.  Best-effort on purpose: observability must never fail a
        campaign whose runs are already safely journaled."""
        snapshot = get_registry().snapshot()
        if not snapshot:
            return
        try:
            with open(self.campaign_dir / "metrics.json", "w", encoding="utf-8") as fh:
                json.dump(snapshot, fh, indent=2, sort_keys=True)
                fh.write("\n")
        except OSError:
            count_suppressed_error("campaign_metrics_write")


# ----------------------------------------------------------------------
# Merging a sealed campaign
# ----------------------------------------------------------------------
def merge_campaign(campaign_dir, db_path) -> Path:
    """Merge an already fully staged campaign into *db_path*.

    Useful when the campaign itself completed (journal says
    ``campaign_complete``) but the merge never ran or its output was
    deleted — merging is repeatable at any time from the shards and
    ``scope.json`` alone; no staging store is read.
    """
    campaign_dir = Path(campaign_dir)
    journal = CampaignJournal(campaign_dir)
    if not journal.finished():
        raise CampaignError(
            "campaign is not complete; execute (or resume) it before merging",
        )
    sources = journal.completed()
    if not sources:
        raise CampaignError("journal holds no completed runs")
    run_sources = {run_id: campaign_dir / entry["shard"] for run_id, entry in sources.items()}
    merged = merge_shards(db_path, load_scope_payload(campaign_dir / SCOPE_NAME), run_sources)
    # Earlier attempts' failures go into the merged RunInfos rows.  Only
    # runs that *did* complete are annotated — a run present in the
    # database with a non-NULL ``AbortReason`` is a retry survivor, not a
    # missing run.
    reasons = {
        run_id: entry["error"]
        for run_id, entry in journal.failure_reasons().items()
        if run_id in sources
    }
    apply_abort_reasons(merged, reasons)
    return merged
