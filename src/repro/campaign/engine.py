"""The campaign engine: concurrent run execution with worker pools.

Execution model
---------------
Every run executes inside its **own fresh platform and simulation
kernel**, driven by a one-run :class:`~repro.core.master.ExperiMaster` —
the full ``experiment_init → run → experiment_exit`` lifecycle of Fig. 3,
over exactly one run; only the
immutable testbed frame (:mod:`repro.platforms.frame`: mesh, routes, its
measurement) is built once per worker process and shared.  That isolation
is what makes parallelism *free* of determinism cost: a run's data is a pure
function of (description, run id), so worker count, dispatch order and
completion order cannot influence a single byte of the merged database.

Pools
-----
``pool="thread"`` runs workers as threads in this process (cheap, shares
the page cache; ideal for the wall-clock-paced platform whose runs mostly
sleep).  Pure-DES runs on those threads take turns: one process computes
one at a time, with the cyclic collector paused
(:func:`~repro.core.master.execute_spec_run`); tickets still go out
``jobs`` at a time and queue there.  ``pool="process"`` forks worker
processes (true CPU parallelism for the compute-bound pure-DES platform).
``pool="auto"`` picks processes for pure DES on multi-core hosts, threads
otherwise.

Shard-slot affinity
-------------------
Workers never share an output file: the dispatch loop assigns each
in-flight ticket one of ``jobs`` shard slots, and a slot is reused only
after its previous ticket finished.  Each slot owns one staging directory
tree and one level-3 shard database — no SQLite contention, no locks.

Crash recovery
--------------
The parent process is the only journal writer.  A run is journaled
``run_complete`` only after its shard transaction committed; a crash
anywhere (worker or parent) therefore loses at most in-flight work, which
``--resume`` re-executes to byte-identical results.  Resume and merge read
only the shards and ``scope.json``: the staging stores are scratch.
"""

from __future__ import annotations

import concurrent.futures
import json
import os
from typing import Any, Dict, List, Optional

from repro.campaign.session import CampaignResult, CampaignSession
from repro.core.description import ExperimentDescription
from repro.core.errors import CampaignError
from repro.core.master import build_run_spec, execute_spec_run

# Unused here (the session generates the plan); the benchmark's self-test
# resolves ``engine.generate_plan`` and benchmarks/e2e is frozen (ROADMAP 5).
from repro.core.plan import generate_plan  # noqa: F401
from repro.core.xmlio import description_to_xml
from repro.obs.metrics import count_suppressed_error, get_registry
from repro.obs.trace import Tracer

__all__ = ["CampaignEngine", "run_campaign"]


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class CampaignEngine:
    """Executes one experiment description as a parallel campaign.

    The engine is the local transport of a
    :class:`~repro.campaign.session.CampaignSession`: it owns the worker
    pool, the shard-slot assignment and the engine-scope dispatch spans;
    what happens when the campaign opens, a run settles or the campaign
    seals is the session's.

    Parameters
    ----------
    description, campaign_dir, max_attempts, resume, custom_treatments,
    progress, control_faults, quarantine_after:
        As for :class:`~repro.campaign.session.CampaignSession`.
    jobs:
        Requested worker count; capped by the description's
        ``max_parallel`` special parameter (Sec. IV-E) when declared.
    pool:
        ``"thread"``, ``"process"`` or ``"auto"`` (see module docstring).
    config:
        Optional :class:`~repro.platforms.simulated.PlatformConfig`.
        With a process pool it must be picklable (the CLI's string-valued
        configs always are).
    realtime_factor:
        When set, runs execute on the wall-clock-paced
        :class:`~repro.platforms.localhost.LocalhostPlatform`.
    abort_after_runs:
        Test/demo hook: simulate a crash after this many completions in
        this session.
    """

    def __init__(
        self,
        description: ExperimentDescription,
        campaign_dir,
        jobs: int = 1,
        pool: str = "auto",
        config=None,
        realtime_factor: Optional[float] = None,
        max_attempts: int = 2,
        resume: bool = False,
        custom_treatments: Optional[List[Dict[str, Any]]] = None,
        progress=None,
        abort_after_runs: Optional[int] = None,
        control_faults: Optional[List[Dict[str, Any]]] = None,
        quarantine_after: int = 3,
    ) -> None:
        if pool not in ("thread", "process", "auto"):
            raise CampaignError(f"unknown pool kind {pool!r}")
        self.pool = self._resolve_pool(pool, realtime_factor)
        self.config = config
        self.realtime_factor = realtime_factor
        self.abort_after_runs = abort_after_runs
        self.session = CampaignSession(
            description,
            campaign_dir,
            jobs=jobs,
            max_attempts=max_attempts,
            resume=resume,
            custom_treatments=custom_treatments,
            control_faults=control_faults,
            quarantine_after=quarantine_after,
            progress=progress,
        )

    @staticmethod
    def _resolve_pool(pool: str, realtime_factor: Optional[float]) -> str:
        if pool != "auto":
            return pool
        if realtime_factor is not None:
            # Wall-clock-paced runs sleep most of the time: threads
            # overlap them with no fork cost.
            return "thread"
        return "process" if (os.cpu_count() or 1) > 1 else "thread"

    # ------------------------------------------------------------------
    def execute(self, db_path=None) -> CampaignResult:
        """Run the campaign; optionally merge into *db_path* at the end."""
        session = self.session.open()
        scheduler = session.scheduler

        # Engine-scope tracer: dispatch spans and worker-boundary error
        # spans (with full tracebacks) land in <campaign_dir>/traces.jsonl.
        # Per-run spans travel separately, through the workers' staging
        # stores into the shards' RunTraces table.
        tracer = Tracer(node="engine")
        campaign_wall_start = tracer.clock() if tracer.enabled else 0.0
        dispatch_started: Dict[int, float] = {}
        description_xml = description_to_xml(session.description)

        executor_cls = (
            concurrent.futures.ProcessPoolExecutor
            if self.pool == "process"
            else concurrent.futures.ThreadPoolExecutor
        )
        jobs = scheduler.effective_jobs
        completions = 0
        try:
            with executor_cls(max_workers=jobs) as executor:
                futures: Dict[concurrent.futures.Future, Any] = {}
                free_slots = list(range(jobs - 1, -1, -1))  # pop() -> slot 0 first

                def dispatch() -> None:
                    while free_slots:
                        ticket = scheduler.next_ticket()
                        if ticket is None:
                            return
                        slot = free_slots.pop()
                        label = f"s{session.index}w{slot:02d}"
                        spec = build_run_spec(
                            session.campaign_dir,
                            description_xml,
                            ticket.run_id,
                            label,
                            custom_treatments=session.custom_treatments,
                            config=self.config,
                            realtime_factor=self.realtime_factor,
                            control_faults=session.dispatch(ticket, label, None),
                        )
                        if tracer.enabled:
                            dispatch_started[ticket.run_id] = tracer.clock()
                        future = executor.submit(execute_spec_run, spec)
                        futures[future] = (ticket, slot, label)

                dispatch()
                while futures:
                    done, _pending = concurrent.futures.wait(
                        futures,
                        return_when=concurrent.futures.FIRST_COMPLETED,
                    )
                    for future in done:
                        ticket, slot, label = futures.pop(future)
                        free_slots.append(slot)
                        try:
                            res = future.result()
                        except Exception as exc:  # noqa: BLE001 - worker boundary
                            requeued = session.settle_failed(
                                ticket.run_id,
                                label,
                                f"{type(exc).__name__}: {exc}",
                                ticket.attempts,
                            )
                            # The one-line error string is all the journal
                            # keeps; the error span preserves the traceback.
                            dispatch_started.pop(ticket.run_id, None)
                            tracer.record_error(
                                "campaign_worker",
                                exc,
                                run_id=ticket.run_id,
                                worker=label,
                                attempt=ticket.attempts,
                                requeued=requeued,
                                site="campaign_worker",
                            )
                        else:
                            session.settle_ok(
                                ticket.run_id,
                                label,
                                res["shard"],
                                duration=res["duration"],
                                timed_out=res["timed_out"],
                                rpc_retries=res.get("rpc_retries", 0),
                                rpc_timeouts=res.get("rpc_timeouts", 0),
                                phases=res.get("phases"),
                                scope=res["scope"],
                            )
                            # Fold a forked worker's metric delta into this
                            # process; a thread worker already wrote here.
                            if res.get("metrics") and res["pid"] != os.getpid():
                                get_registry().merge(res["metrics"])
                            if tracer.enabled:
                                t0 = dispatch_started.pop(ticket.run_id, None)
                                if t0 is not None:
                                    tracer.record(
                                        "campaign_run",
                                        t0,
                                        tracer.clock(),
                                        run_id=ticket.run_id,
                                        worker=label,
                                        slot=slot,
                                        attempt=ticket.attempts,
                                        timed_out=res["timed_out"],
                                    )
                            completions += 1
                            if (
                                self.abort_after_runs is not None
                                and completions >= self.abort_after_runs
                                and not scheduler.finished
                            ):
                                raise CampaignError(
                                    f"aborting after {completions} runs "
                                    "(abort_after_runs)",
                                )
                    free_slots.sort(reverse=True)
                    dispatch()
        except BaseException:
            # Seal is not reached on this path (abort_after_runs, Ctrl-C,
            # a journal I/O error): keep the aborted session's snapshot.
            session.write_metrics()
            raise
        finally:
            if tracer.enabled:
                tracer.record(
                    "campaign",
                    campaign_wall_start,
                    tracer.clock(),
                    jobs=jobs,
                    pool=self.pool,
                    completed=len(scheduler.done),
                    failed=len(scheduler.failed),
                )
            self._write_traces(tracer)
        return session.seal(db_path, jobs=jobs, pool=self.pool)

    # ------------------------------------------------------------------
    def _write_traces(self, tracer: Tracer) -> None:
        """Append engine-scope spans to ``traces.jsonl`` (resumed sessions
        accumulate).  Best-effort on purpose: observability must never
        fail a campaign whose runs are already safely journaled."""
        records = tracer.drain_all()
        if not records:
            return
        try:
            with open(self.session.campaign_dir / "traces.jsonl", "a", encoding="utf-8") as fh:
                for rec in records:
                    fh.write(json.dumps(rec, sort_keys=True) + "\n")
        except OSError:
            count_suppressed_error("campaign_traces_write")


def run_campaign(description, campaign_dir, db_path=None, **kwargs) -> CampaignResult:
    """One-call convenience: build the engine, execute, merge."""
    return CampaignEngine(description, campaign_dir, **kwargs).execute(db_path=db_path)
