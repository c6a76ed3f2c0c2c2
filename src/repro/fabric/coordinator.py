"""The campaign coordinator: ``repro fabric serve``.

One process owns the campaign directory — journal (leadership lease
included), ``scope.json`` and the coordinator-side shards — and serves
the fabric RPC surface to a fleet of pull-based workers:

``register``   worker announces itself; gets the campaign bundle
               (description XML, treatments, platform config, batch
               cadence) so workers need zero local configuration.
``lease``      pull a batch of runs as a TTL lease (the batch journaled
               in one append, a ``run_start`` per run carrying the
               lease id).
``renew``      extend a lease mid-batch.
``ack``        deliver one run's result (shipped level-3 rows) or its
               failure; the durable commit happens here, under the
               dispatch lock, before the worker gets its answer.
``status``     JSON snapshot for ``repro fabric status`` and the CI
               chaos drill.
``quarantine`` operator revoke-now: a worker's leases are re-leased at
               once and it is never granted again.
``handoff``    graceful leadership transfer to a standby.

A worker's liveness is its lease: it renews every TTL/3 while it
executes, and a lease whose TTL runs out is reclaimed and re-leased.

Crash safety is inherited, not invented: the coordinator is the fleet
transport of a :class:`~repro.campaign.session.CampaignSession` — the
same open / settle / seal policy and the same commit contract the local
pool drives — so every run commit is shard transaction → the session's
``settle_ok`` (shipped scope, if any, as ``scope.json`` → journal entry
→ scheduler), and every journal entry it writes passes its election
fence (:meth:`ElectionLedger.fence`).  After a coordinator restart the
same journal's fold restores in-flight lease ownership, and its resume
protocol re-queues exactly the runs whose shards lack them.
Because runs are pure functions of (description, run id), the merged
database of a restarted, re-leased, partially re-executed fleet campaign
is byte-identical to a single ``--jobs`` local campaign — the invariant
pinned by ``tests/integration/test_fleet_fabric.py``.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.campaign.session import CampaignResult, CampaignSession
from repro.core.description import ExperimentDescription
from repro.core.errors import CampaignError
from repro.core.rpc import RpcServer
from repro.core.xmlio import description_to_xml
from repro.fabric.dispatch import LeaseDispatcher
from repro.fabric.election import ElectionLedger, LeadershipLost
from repro.fabric.leases import LeaseStore
from repro.fabric.shipping import CoordinatorShard, decode_payload
from repro.fabric.wire import FleetServer

__all__ = ["FabricCoordinator"]

#: Longest :meth:`FabricCoordinator.run_until_complete` sleeps between two
#: ``finished()`` checks when nothing wakes it: the cadence of the TTL
#: ``sweep()`` and of the settle-timeout check.
SWEEP_PERIOD = 0.2


def _worker_slug(worker_id: str) -> str:
    """Filesystem-safe shard name for a worker id."""
    return "".join(c if c.isalnum() or c in "-_" else "_" for c in worker_id) or "worker"


def config_to_wire(config) -> Optional[Dict[str, Any]]:
    """Serialize a :class:`PlatformConfig` for shipment to workers.

    Only JSON-able configs can cross the fleet (the CLI never builds
    anything else); prebuilt topology or congestion objects are
    coordinator-local and refused up front.
    """
    if config is None:
        return None
    data = asdict(config)
    if data.get("congestion") is not None:
        raise CampaignError(
            "fleet campaigns cannot ship a congestion model object; "
            "configure congestion via description parameters instead",
        )
    if not isinstance(data.get("topology"), str):
        raise CampaignError("fleet campaigns require a string topology name")
    # control_faults travel per-spec (filtered per attempt), never in the
    # base config — a worker must not double-arm them.
    data.pop("congestion", None)
    data.pop("control_faults", None)
    json.dumps(data)  # fail fast on anything exotic
    return data


def _no_lease(**why) -> str:
    """The ``lease`` reply that grants nothing, and why."""
    return json.dumps({"lease_id": None, "runs": [], "done": False, **why})


class FabricCoordinator:
    """Owns one campaign's distributed execution.

    Campaign parameters are those of
    :class:`repro.campaign.session.CampaignSession`; fabric-specific knobs:

    host, port:
        Bind address for the fleet server (``port=0`` = ephemeral).
    batch_size:
        Maximum runs per lease (queue-based load leveling: workers pull
        at most this much at a time, whatever the backlog).
    lease_ttl:
        Seconds a granted batch stays owned without renewal.
    leader_id:
        This coordinator's identity on the election ledger (defaults to
        ``coord-<pid>``).
    election_ttl:
        Seconds the leadership lease stays held without a renewal; the
        failover detection horizon for standbys.
    takeover:
        ``True`` force-claims leadership even over a live lease (the
        operator ``--resume`` path: whoever restarts asserts the old
        leader is gone); ``False`` claims only a lapsed/released lease
        (the standby path) and raises :class:`LeadershipLost` otherwise.
        ``None`` (default) means ``takeover=resume``.
    """

    def __init__(
        self,
        description: ExperimentDescription,
        campaign_dir,
        host: str = "127.0.0.1",
        port: int = 0,
        batch_size: int = 4,
        lease_ttl: float = 30.0,
        max_attempts: int = 2,
        resume: bool = False,
        custom_treatments: Optional[List[Dict[str, Any]]] = None,
        config=None,
        realtime_factor: Optional[float] = None,
        control_faults: Optional[List[Dict[str, Any]]] = None,
        quarantine_after: int = 3,
        leader_id: Optional[str] = None,
        election_ttl: float = 10.0,
        takeover: Optional[bool] = None,
        progress=None,
        clock=time.time,
    ) -> None:
        self.description = description
        self.campaign_dir = Path(campaign_dir)
        self.host = host
        self.port = port
        self.batch_size = batch_size
        self.lease_ttl = float(lease_ttl)
        self.config_wire = config_to_wire(config)
        self.realtime_factor = realtime_factor
        self.clock = clock

        self.leader_id = leader_id or f"coord-{os.getpid()}"
        self.election_ttl = float(election_ttl)
        self.takeover = resume if takeover is None else bool(takeover)

        self.session = CampaignSession(
            description,
            campaign_dir,
            max_attempts=max_attempts,
            resume=resume,
            custom_treatments=custom_treatments,
            control_faults=control_faults,
            quarantine_after=quarantine_after,
            progress=progress,
        )
        self.election = ElectionLedger(
            self.session.journal,
            ttl=self.election_ttl,
            clock=self.clock,
        )
        self.epoch = 0
        self._lock = threading.RLock()
        #: Over the dispatch lock: notified when an ack settles a run and
        #: when leadership is lost, the two things completion waits for.
        self._progress = threading.Condition(self._lock)
        self._server: Optional[FleetServer] = None
        self.dispatcher: Optional[LeaseDispatcher] = None
        self._handoff_draining = False
        self._deposed_reason: Optional[str] = None
        self._renew_stop = threading.Event()
        self._renew_thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> str:
        if self._server is None:
            raise CampaignError("coordinator is not serving")
        host, port = self._server.address
        return f"{host}:{port}"

    def start(self) -> "FabricCoordinator":
        """Claim leadership, open the journal session, begin serving.

        The fleet server socket is bound (but not yet serving) *before*
        the leadership claim so the election record can carry the real
        endpoint even for ephemeral ports; losing the claim closes the
        socket and raises :class:`LeadershipLost` without having touched
        the journal.
        """
        rpc = RpcServer("fabric-coordinator")
        rpc.register_function(self._rpc_register, "register")
        rpc.register_function(self._rpc_lease, "lease")
        rpc.register_function(self._rpc_renew, "renew")
        rpc.register_function(self._rpc_ack, "ack")
        rpc.register_function(self._rpc_status, "status")
        rpc.register_function(self._rpc_quarantine, "quarantine")
        rpc.register_function(self._rpc_handoff, "handoff")
        self._server = FleetServer(self.host, self.port, rpc)  # bound, idle

        epoch = self.election.campaign(
            self.leader_id,
            self.address,
            force=self.takeover,
        )
        if epoch is None:
            holder = self.election.current()
            self._server.stop()
            self._server = None
            raise LeadershipLost(
                f"{self.leader_id} lost the leadership claim: "
                f"{holder.leader_id if holder else '?'} holds epoch "
                f"{holder.epoch if holder else 0}",
                reason="lost-claim",
            )
        self.epoch = epoch
        self.session.journal.fence = self.election.fence(epoch)

        session = self.session.open()
        # Old name of the session; benchmarks/e2e (frozen, ROADMAP 2) reads it.
        self.telemetry = session
        self.dispatcher = LeaseDispatcher(
            session,
            LeaseStore(ttl=self.lease_ttl, clock=self.clock),
            batch_size=self.batch_size,
            clock=self.clock,
        )
        if session.resume:
            self.dispatcher.restore()
        self.description_xml = description_to_xml(self.description)

        self._renew_stop.clear()
        self._renew_thread = threading.Thread(
            target=self._renew_leadership_loop,
            name=f"election-renew-{self.leader_id}",
            daemon=True,
        )
        self._renew_thread.start()
        self._server.start()
        return self

    def stop(self) -> None:
        # Handler threads outlive the listener on connections workers
        # already hold: stopped mid-campaign they must refuse further work,
        # as a dead process would, so the fleet re-resolves to a successor.
        if self.session.scheduler is not None and not self.session.scheduler.finished:
            self._mark_deposed("stopped")
        self._renew_stop.set()
        if self._renew_thread is not None:
            self._renew_thread.join(timeout=5.0)
            self._renew_thread = None
        if self._server is not None:
            self._server.stop()
            self._server = None

    # ------------------------------------------------------------------
    # Leadership
    # ------------------------------------------------------------------
    @property
    def deposed(self) -> Optional[str]:
        """Why this coordinator stopped leading, or ``None`` while it
        still holds the lease (``"deposed"``, ``"handoff"``)."""
        return self._deposed_reason

    def _mark_deposed(self, reason: str) -> None:
        # Takes the dispatch lock: a refused journal append calls this once
        # it unwound, never from inside the fence (which holds the flock).
        self._deposed_reason = self._deposed_reason or reason
        self._renew_stop.set()
        with self._progress:
            self._progress.notify_all()

    def _renew_leadership_loop(self) -> None:
        """Heartbeat the leadership lease at ~TTL/3; a refused renewal
        means a rival claimed a higher epoch — stop writing immediately."""
        period = max(0.2, self.election_ttl / 3.0)
        while not self._renew_stop.wait(period):
            if not self.election.renew(self.epoch):
                self._mark_deposed("deposed")
                return

    def _check_leadership(self) -> None:
        if self._deposed_reason is not None:
            raise LeadershipLost(
                f"{self.leader_id} no longer leads (epoch {self.epoch}): "
                f"{self._deposed_reason}",
                reason=self._deposed_reason,
            )

    def __enter__(self) -> "FabricCoordinator":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # RPC surface (every handler serializes under the dispatch lock)
    # ------------------------------------------------------------------
    def _epoch_gate(self, epoch: int) -> bool:
        """True when the caller's epoch is not ours (the call is
        rejected).  A caller *behind* us is stale (it must re-register
        and learn the current epoch); a caller *ahead* of us means a
        rival claimed a higher epoch — we are the stale one and stop
        leading on the spot."""
        if epoch == self.epoch:
            return False
        if epoch > self.epoch:
            self._mark_deposed("deposed")
        return True

    def _rpc_register(self, worker_id: str, capacity: int) -> str:
        with self._lock:
            try:
                self._check_leadership()
                self.dispatcher.register(worker_id, capacity)
            except LeadershipLost:
                self._mark_deposed("deposed")
                raise CampaignError(
                    f"{self.leader_id} is not the leader ({self._deposed_reason}); "
                    "re-resolve the coordinator",
                ) from None
            return json.dumps(
                {
                    "session": self.session.index,
                    "fingerprint": self.description.fingerprint(),
                    "total_runs": len(self.session.plan),
                    "description_xml": self.description_xml,
                    "custom_treatments": self.session.custom_treatments,
                    "config": self.config_wire,
                    "realtime_factor": self.realtime_factor,
                    "lease_ttl": self.lease_ttl,
                    "batch_size": self.batch_size,
                    "epoch": self.epoch,
                    "leader_id": self.leader_id,
                    "endpoint": self.address,
                },
            )

    def _rpc_lease(self, worker_id: str, want: int, epoch: int) -> str:
        with self._lock:
            try:
                self._check_leadership()
                if self._epoch_gate(epoch):
                    return _no_lease(stale_epoch=True, epoch=self.epoch)
                self.dispatcher.sweep()
                if self._handoff_draining:
                    # Leadership is being handed off: in-flight batches
                    # drain, nothing new is granted; workers keep polling
                    # and will re-resolve to the successor.
                    lease, batch = None, []
                else:
                    lease, batch = self.dispatcher.grant(worker_id, want)
                if lease is None:
                    return _no_lease(done=self.session.scheduler.finished)
                # The reply exists only after the batch's one journal append.
                faults = self.session.dispatch(batch, worker_id, lease.lease_id)
                runs = [
                    {"run_id": ticket.run_id, "attempt": ticket.attempts, "control_faults": chaos}
                    for ticket, chaos in zip(batch, faults)
                ]
            except LeadershipLost:
                self._mark_deposed("deposed")
                return _no_lease(not_leader=True)
            return json.dumps(
                {
                    "lease_id": lease.lease_id,
                    "ttl": self.lease_ttl,
                    "runs": runs,
                    "done": False,
                },
            )

    def _rpc_renew(self, worker_id: str, lease_id: str, epoch: int) -> bool:
        with self._lock:
            if self._deposed_reason is not None or self._epoch_gate(epoch):
                return False
            return self.dispatcher.renew(worker_id, lease_id)

    def _rpc_ack(
        self,
        worker_id: str,
        lease_id: str,
        run_id: int,
        ok: bool,
        payload_json: str,
        error: str,
        epoch: int,
    ) -> str:
        with self._lock:
            try:
                self._check_leadership()
                if self._epoch_gate(epoch):
                    self._check_leadership()  # a caller ahead of us deposed us
                    return json.dumps({"status": "stale_epoch", "epoch": self.epoch})
                if ok:
                    status = self._commit(worker_id, lease_id, run_id, payload_json)
                else:
                    status = self.dispatcher.ack_failed(
                        worker_id,
                        lease_id,
                        run_id,
                        error or "worker reported failure",
                    )
            except LeadershipLost:
                self._mark_deposed("deposed")
                return json.dumps({"status": "not_leader"})
            self._progress.notify_all()
            return json.dumps({"status": status})

    def _commit(self, worker_id: str, lease_id: str, run_id: int, payload_json: str) -> str:
        """Shard transaction, then the fenced journal entry: a deposed leader
        may still write the (same, idempotent) shard rows, not the entry."""
        payload = decode_payload(payload_json)
        stats = payload.get("stats") or {}

        def commit() -> None:
            shard_rel = f"shards/fleet_{_worker_slug(worker_id)}.db"
            with CoordinatorShard(self.campaign_dir / shard_rel) as shard:
                shard.ingest(run_id, payload["image"])
            self.session.settle_ok(
                run_id,
                worker_id,
                shard_rel,
                duration=float(payload.get("duration", 0.0)),
                timed_out=bool(payload.get("timed_out")),
                rpc_retries=stats.get("rpc_retries", 0),
                rpc_timeouts=stats.get("rpc_timeouts", 0),
                phases=payload.get("phases"),
                epoch=self.epoch,
                scope=payload.get("scope"),
            )

        return self.dispatcher.ack_completed(worker_id, lease_id, run_id, commit)

    def _rpc_status(self) -> str:
        with self._lock:
            status = self.dispatcher.status()
            status["session"] = self.session.index
            status["total_runs"] = len(self.session.plan)
            status["staged"] = len(self.session.scheduler.done) + len(self.session.staged)
            status["finished"] = self.session.scheduler.finished
            status["failed_runs"] = sorted(self.session.scheduler.failed)
            status["election"] = self.election.summary()
            status["epoch"] = self.epoch
            status["leader_id"] = self.leader_id
            status["handoff_draining"] = self._handoff_draining
            status["deposed"] = self._deposed_reason
            return json.dumps(status, sort_keys=True)

    def _rpc_handoff(self, timeout: float = 30.0) -> str:
        """Graceful leadership transfer: drain in-flight batches, then
        release the lease so a standby claims the next epoch.

        No lease is expired or revoked on this path — every in-flight
        run settles through its original worker's acks before the
        release — so a handoff re-leases exactly zero runs.
        """
        with self._lock:
            if self._deposed_reason is not None:
                return json.dumps(
                    {"released": False, "reason": self._deposed_reason},
                )
            self._handoff_draining = True
        deadline = time.monotonic() + float(timeout)
        pending: List[str] = []
        while time.monotonic() < deadline:
            with self._lock:
                if self._deposed_reason is not None:
                    return json.dumps(
                        {"released": False, "reason": self._deposed_reason},
                    )
                pending = [
                    lease.lease_id
                    for lease in self.dispatcher.leases.active()
                    if lease.pending
                ]
            if not pending:
                break
            time.sleep(0.05)
        else:
            with self._lock:
                self._handoff_draining = False
            return json.dumps(
                {"released": False, "reason": "drain timeout", "pending": pending},
            )
        with self._lock:
            released = self.election.release(self.epoch, "handoff")
            self._mark_deposed("handoff")
            return json.dumps({"released": released, "epoch": self.epoch})

    def _rpc_quarantine(self, worker_id: str, reason: str) -> str:
        with self._lock:
            try:
                self._check_leadership()
                requeued = self.dispatcher.quarantine_worker(
                    worker_id,
                    reason or "operator request",
                )
            except LeadershipLost:
                self._mark_deposed("deposed")
                return json.dumps({"requeued": [], "not_leader": True})
            return json.dumps({"requeued": sorted(requeued)})

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def finished(self) -> bool:
        with self._lock:
            # A deposed leader must not keep sweeping: TTL expiries and
            # lease closes are the successor's to write now.
            self._check_leadership()
            try:
                self.dispatcher.sweep()
            except LeadershipLost:
                self._mark_deposed("deposed")
                raise
            return self.session.scheduler.finished

    def run_until_complete(
        self,
        db_path=None,
        timeout: Optional[float] = None,
    ) -> CampaignResult:
        """Block until every run settled; journal completion and merge.

        Completion is a wake-up, not a poll: the wait ends with the ack
        that settles the last run (or the loss of leadership), and only
        the TTL sweep keeps the :data:`SWEEP_PERIOD` cadence.

        Raises :class:`CampaignError` (resumable state, like the local
        engine) when runs exhausted their attempt budgets or *timeout*
        elapsed with the queue still busy, and :class:`LeadershipLost`
        when this coordinator was deposed or handed leadership off (the
        successor finishes the campaign).
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._progress:
            while not self.finished():
                if deadline is not None and time.monotonic() > deadline:
                    raise CampaignError(
                        f"fleet campaign did not settle within {timeout}s; "
                        "resume after fixing the fleet",
                    )
                self._progress.wait(SWEEP_PERIOD)
        return self.finalize(db_path=db_path)

    def finalize(self, db_path=None) -> CampaignResult:
        """Seal a settled campaign: journal ``campaign_complete``, merge."""
        with self._lock:
            if not self.session.scheduler.finished:
                raise CampaignError("campaign still has unsettled runs")
            d = self.dispatcher
            workers = len(d.workers)
            fleet = {
                "registered": d.registered,
                "leases": d.leases_granted,
                "expired": d.leases_expired,
                "quarantined": d.quarantined,
            }
        # Outside the dispatch lock: polling workers must get their
        # ``done`` while the merge runs, not after it.
        try:
            result = self.session.seal(db_path, jobs=workers or 1, pool="fleet")
            result.telemetry["fleet"] = fleet
            return result
        finally:
            # ``campaign_complete`` ends the need for a leader, whatever
            # becomes of the merge: release so watching standbys exit
            # instead of waiting out the TTL.
            if self.session.journal.state().complete:
                self._renew_stop.set()
                self.election.release(self.epoch, "complete")
