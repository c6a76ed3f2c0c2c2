"""The fleet worker: ``repro fabric worker``.

A worker is deliberately stateless: it connects, registers, and from
then on everything it needs arrives from the coordinator — description
XML, treatment plan parameters, platform config, batch cadence.  Its
loop is pure pull:

1. ``lease`` a batch (blocking politely when the queue is empty),
2. execute each run through :func:`repro.core.master.execute_spec_run`
   against a worker-local staging store and shard,
3. ship the run's conditioned level-3 rows (plus, for the plan's first
   run, the experiment-scope payload it returned) in the ``ack``,
4. repeat until the coordinator says the campaign is done.

A renewal thread pulses ``renew`` at ~TTL/3 while a batch executes; a
rejected renewal means the lease expired or was revoked (the worker was
presumed dead, its batch re-leased) and the remaining runs are abandoned
— their eventual re-execution elsewhere produces byte-identical rows,
and a late ack of an already re-executed run deduplicates coordinator-
side.  Transport failures ride the :class:`FleetChannel` retry/
reconnect budget.

Failover awareness (DESIGN.md §16): the worker accepts a *seed list* of
coordinator endpoints and remembers the leadership **epoch** it
registered under.  When the reconnect budget exhausts — or the
coordinator answers ``stale_epoch`` / ``not_leader`` — the worker walks
the seed list, re-registers with whichever endpoint leads now, and
replays its buffer of completed-but-unacked results; replayed acks
deduplicate coordinator-side, so a result is never lost *and* never
committed twice, no matter how many failovers interleave with it.
"""

from __future__ import annotations

import json
import threading
import time
from collections import OrderedDict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.errors import CampaignError, RpcError, RpcFault, RpcTimeout
from repro.core.rpc import RetryPolicy
from repro.fabric.shipping import encode_payload, extract_run_rows
from repro.fabric.wire import FleetChannel

__all__ = ["FabricWorker"]


def _config_from_wire(data: Optional[Dict[str, Any]]):
    if data is None:
        return None
    from repro.platforms.simulated import PlatformConfig

    return PlatformConfig(**data)


def _seed_list(address) -> List[str]:
    """Normalize ``"a:1"``, ``"a:1,b:2"`` or an iterable into a list."""
    if isinstance(address, str):
        seeds = [part.strip() for part in address.split(",") if part.strip()]
    else:
        seeds = [str(part) for part in address]
    if not seeds:
        raise CampaignError("worker needs at least one coordinator endpoint")
    return seeds


class FabricWorker:
    """One fleet worker process (or thread, in tests).

    Worker threads of one process take turns at its run turnstile
    (:func:`~repro.core.master.execute_spec_run`); a waiting lease renews.

    Parameters
    ----------
    address:
        Coordinator seed list: a single ``host:port``, a comma-separated
        string of them, or an iterable.  The first reachable *leader*
        wins; the rest are failover candidates.
    worker_id:
        Fleet-unique name; becomes the worker label in journal entries.
    workdir:
        Local scratch root for staging stores and the worker's shard.
    capacity:
        Batch size to request per lease.
    poll_interval:
        Sleep between lease polls when the queue is empty.
    reconnect_budget:
        Seconds to ride out an unreachable coordinator (restart window);
        also the overall budget of one seed-list walk after failover.
    """

    def __init__(
        self,
        address,
        worker_id: str,
        workdir,
        capacity: int = 2,
        poll_interval: float = 0.5,
        call_timeout: float = 30.0,
        reconnect_budget: float = 60.0,
        execute: Optional[Callable[[Dict[str, Any]], Dict[str, Any]]] = None,
        on_event: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.addresses = _seed_list(address)
        self.address = self.addresses[0]
        self.worker_id = worker_id
        self.workdir = Path(workdir)
        self.capacity = max(1, int(capacity))
        self.poll_interval = float(poll_interval)
        self.call_timeout = float(call_timeout)
        self.reconnect_budget = float(reconnect_budget)
        self._execute = execute
        self.on_event = on_event
        self.channel = self._make_channel(self.address, self.reconnect_budget)
        self._stop = threading.Event()
        self._dead = threading.Event()
        self.completed = 0
        self.failed = 0
        self.abandoned = 0
        self.failovers = 0
        #: Leadership epoch this worker registered under (-1 = unknown).
        self.epoch = -1
        #: Completed-but-unacked results: run id → (lease id, payload).
        #: Replayed after a failover; duplicates deduplicate remotely.
        self._unacked: "OrderedDict[int, Tuple[str, str]]" = OrderedDict()
        self._campaign: Dict[str, Any] = {}

    def _make_channel(self, address: str, budget: float) -> FleetChannel:
        return FleetChannel(
            address,
            call_timeout=self.call_timeout,
            reconnect_budget=budget,
            label=self.worker_id,
        )

    # ------------------------------------------------------------------
    def _note(self, line: str) -> None:
        if self.on_event is not None:
            self.on_event(f"[{self.worker_id}] {line}")

    def kill(self) -> None:
        """Simulate abrupt process death (tests, chaos drills): stop the
        loop AND the renewal pulse immediately, acking nothing — exactly
        the silence a SIGKILLed worker process leaves behind, which is
        what drives the coordinator's TTL expiry and re-lease path."""
        self._stop.set()
        self._dead.set()

    # ------------------------------------------------------------------
    def register(self, timeout: Optional[float] = None) -> Dict[str, Any]:
        bundle = json.loads(
            self.channel.call(
                "register", self.worker_id, self.capacity, timeout=timeout,
            ),
        )
        self._campaign = bundle
        self.epoch = int(bundle.get("epoch", -1))
        self._note(
            f"registered with {self.address}: campaign "
            f"{bundle['fingerprint'][:12]}, {bundle['total_runs']} runs"
            + (f", epoch {self.epoch}" if self.epoch >= 0 else ""),
        )
        return bundle

    def _re_resolve(self) -> bool:
        """Walk the seed list for the current leader; re-register there.

        Called when the active coordinator is unreachable past the
        reconnect budget or answers with a stale/foreign epoch.  Each
        candidate gets a short connection budget so a dead seed does not
        eat the whole walk; the walk itself cycles the list until
        ``reconnect_budget`` elapses (a standby needs a moment to notice
        the lapse and promote itself).  On success the channel points at
        the new leader, the bundle and epoch are refreshed, and every
        buffered unacked result is replayed idempotently.
        """
        deadline = time.monotonic() + self.reconnect_budget
        per_try = max(1.0, min(5.0, self.reconnect_budget / 4.0))
        while time.monotonic() < deadline and not self._stop.is_set():
            for candidate in self.addresses:
                if self._stop.is_set():
                    return False
                self.channel.close()
                self.channel = self._make_channel(candidate, per_try)
                # Probe tightly: a partitioned leader accepts connections
                # but never answers (SIGSTOP signature), and at the
                # default retry/timeout it would eat the whole walk.
                self.channel.retry = RetryPolicy(
                    max_attempts=2, base_delay=0.1, max_delay=0.5,
                )
                try:
                    self.address = candidate
                    self.register(timeout=per_try)
                except (RpcError, RpcTimeout, RpcFault):
                    # Unreachable, or reachable but not the leader (a
                    # deposed coordinator or an idle standby): next seed.
                    continue
                self.failovers += 1
                self._note(f"re-resolved coordinator to {candidate}")
                self._replay_unacked()
                # Restore steady-state budgets on the winning channel.
                self.channel.reconnect_budget = self.reconnect_budget
                self.channel.retry = RetryPolicy(
                    max_attempts=4, base_delay=0.1, max_delay=2.0,
                )
                return True
            time.sleep(min(1.0, self.poll_interval))
        return False

    def _replay_unacked(self) -> None:
        """Re-send buffered results to the (new) leader; duplicates are
        deduplicated coordinator-side, so replay is idempotent."""
        for run_id in list(self._unacked):
            lease_id, payload_json = self._unacked[run_id]
            try:
                reply = json.loads(
                    self.channel.call(
                        "ack", self.worker_id, lease_id, run_id,
                        True, payload_json, "", self.epoch,
                    ),
                )
            except (RpcError, RpcTimeout, RpcFault):
                return  # leader flapped again; keep the buffer
            status = reply.get("status")
            if status in ("committed", "duplicate"):
                self._unacked.pop(run_id, None)
                if status == "committed":
                    self.completed += 1
                self._note(f"replayed run {run_id} after failover: {status}")

    def run_forever(self) -> Dict[str, int]:
        """The worker loop; returns settlement counters on exit."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        try:
            bundle = self.register()
        except (RpcError, RpcTimeout, RpcFault):
            if not self._re_resolve():
                self._note("no reachable coordinator; exiting")
                return self._counters()
            bundle = self._campaign
        ttl = float(bundle.get("lease_ttl") or 30.0)
        while not self._stop.is_set():
            try:
                reply = json.loads(
                    self.channel.call(
                        "lease", self.worker_id, self.capacity, self.epoch,
                    ),
                )
            except RpcError:
                # Coordinator unreachable past the reconnect budget: a
                # failover window.  Walk the seed list for the new
                # leader; only when nobody leads is the campaign over
                # (or the operator will restart us).
                if self._re_resolve():
                    ttl = float(self._campaign.get("lease_ttl") or ttl)
                    continue
                self._note("coordinator unreachable; exiting")
                break
            if reply.get("stale_epoch") or reply.get("not_leader"):
                # Rejected by epoch comparison: re-learn who leads (the
                # same endpoint after a renewal refresh, or a successor).
                if self._re_resolve():
                    ttl = float(self._campaign.get("lease_ttl") or ttl)
                    continue
                self._note("no live leader accepts this worker; exiting")
                break
            if reply.get("done"):
                self._note("campaign complete; exiting")
                break
            lease_id = reply.get("lease_id")
            if not lease_id:
                time.sleep(self.poll_interval)
                continue
            self._execute_lease(lease_id, reply["runs"], ttl)
        self.channel.close()
        return self._counters()

    def _counters(self) -> Dict[str, int]:
        return {
            "completed": self.completed,
            "failed": self.failed,
            "abandoned": self.abandoned,
            "failovers": self.failovers,
        }

    # ------------------------------------------------------------------
    def _execute_lease(self, lease_id: str, runs, ttl: float) -> None:
        lost = threading.Event()
        renewer = threading.Thread(
            target=self._renew_loop,
            args=(lease_id, max(0.5, ttl / 3.0), lost),
            name=f"renew-{lease_id}",
            daemon=True,
        )
        renewer.start()
        try:
            for entry in runs:
                if self._stop.is_set():
                    return
                if lost.is_set():
                    # Lease expired/revoked: the batch belongs to someone
                    # else now; executing more runs here is pure waste.
                    self.abandoned += len(runs) - runs.index(entry)
                    self._note(f"lease {lease_id} lost; abandoning batch")
                    return
                self._execute_one(lease_id, entry)
        finally:
            lost.set()
            renewer.join(timeout=2.0)

    def _renew_loop(self, lease_id: str, period: float, lost: threading.Event) -> None:
        # Own channel: the main loop's socket is busy mid-execution.
        with FleetChannel(
            self.address,
            call_timeout=self.call_timeout,
            reconnect_budget=self.reconnect_budget,
            label=self.worker_id,
        ) as channel:
            # Sleep on the lease's own event so the end of the batch wakes
            # the renewer at once instead of a period later.
            while not lost.wait(period):
                if self._dead.is_set():
                    return
                try:
                    renewed = channel.call(
                        "renew", self.worker_id, lease_id, self.epoch,
                    )
                except RpcError:
                    return  # reconnect budget exhausted; main loop decides
                if not renewed:
                    lost.set()
                    return

    def _execute_one(self, lease_id: str, entry: Dict[str, Any]) -> None:
        run_id = int(entry["run_id"])
        spec = self._build_spec(run_id, entry)
        try:
            result = self._run_spec(spec)
        except Exception as exc:  # noqa: BLE001 - worker boundary
            error = f"{type(exc).__name__}: {exc}"
            self.failed += 1
            self._note(f"run {run_id} failed: {error}")
            try:
                self.channel.call(
                    "ack",
                    self.worker_id,
                    lease_id,
                    run_id,
                    False,
                    "",
                    error,
                    self.epoch,
                )
            except RpcError:
                # A lost failure report is safe to drop: the lease will
                # expire and the run re-executes under a fresh attempt.
                self.abandoned += 1
            return
        payload: Dict[str, Any] = {
            "image": extract_run_rows(self.workdir / result["shard"], run_id),
            "duration": result["duration"],
            "timed_out": result["timed_out"],
            "phases": result.get("phases") or {},
            "stats": {
                "rpc_retries": result.get("rpc_retries", 0),
                "rpc_timeouts": result.get("rpc_timeouts", 0),
            },
        }
        if result.get("scope") is not None:
            payload["scope"] = result["scope"]
        # Buffered before the first send: a failover between execution
        # and a successful ack must not lose the result.
        payload_json = encode_payload(payload)
        self._unacked[run_id] = (lease_id, payload_json)
        self._deliver(lease_id, run_id, payload_json, result["duration"])

    def _deliver(
        self,
        lease_id: str,
        run_id: int,
        payload_json: str,
        duration: float,
    ) -> None:
        try:
            reply = json.loads(
                self.channel.call(
                    "ack",
                    self.worker_id,
                    lease_id,
                    run_id,
                    True,
                    payload_json,
                    "",
                    self.epoch,
                ),
            )
        except RpcError:
            # Unreachable: the result stays buffered; the lease loop's
            # next failure triggers re-resolution and the replay.
            self.abandoned += 1
            return
        status = reply.get("status")
        if status == "stale_epoch":
            # A new leader took over between our register and this ack:
            # refresh the epoch (and endpoint) and replay the buffer —
            # including this run.
            self._note(f"run {run_id} ack rejected as stale epoch; re-resolving")
            self._re_resolve()
            return
        if status == "not_leader":
            self._note(f"run {run_id} acked a deposed leader; re-resolving")
            self._re_resolve()
            return
        self._unacked.pop(run_id, None)
        if status == "committed":
            self.completed += 1
            self._note(f"run {run_id} shipped ({duration:.2f}s)")
        else:
            self._note(f"run {run_id} ack was a {status}")

    # ------------------------------------------------------------------
    def _build_spec(self, run_id: int, entry: Dict[str, Any]) -> Dict[str, Any]:
        from repro.core.master import build_run_spec

        bundle = self._campaign
        if not bundle:
            raise CampaignError("worker is not registered")
        return build_run_spec(
            self.workdir,
            bundle["description_xml"],
            run_id,
            self.worker_id,
            custom_treatments=bundle.get("custom_treatments"),
            config=_config_from_wire(bundle.get("config")),
            realtime_factor=bundle.get("realtime_factor"),
            control_faults=entry.get("control_faults"),
        )

    def _run_spec(self, spec: Dict[str, Any]) -> Dict[str, Any]:
        if self._execute is not None:
            return self._execute(spec)
        from repro.core.master import execute_spec_run

        return execute_spec_run(spec)
