"""Environment manipulations (Sec. IV-D2), orchestrated by the master.

*"Environment manipulations are applied on a global level and involve
more than one node, possibly all specified environment nodes."*

Implemented manipulations:

``env_traffic_start`` / ``env_traffic_stop``
    The traffic generator: load between randomly chosen node pairs, each
    pair bidirectional at a given data rate.  Pair choice (``choice``:
    0 = non-acting nodes, 1 = acting nodes, 2 = all nodes) is seeded by
    ``random_seed``; per-run pair *switching* replaces
    ``random_switch_amount`` pairs using ``random_switch_seed`` — Fig. 7
    keys the switch seed by the replication factor so that replications of
    a treatment see identical load patterns.
``env_drop_all_start`` / ``env_drop_all_stop``
    *"All experiment nodes stop receiving, sending and forwarding the
    experiment process packets."*
``env_churn_start`` / ``env_churn_stop``
    Seeded node churn against the acting nodes (registry family): a
    master-side process repeatedly picks a victim and either makes it
    *leave* gracefully (``sd_exit``, downtime, re-init + re-publish) or
    *crash* (interface fault for the downtime, auto-reverted).  Victim
    choice and cadence derive from ``random_seed`` and the run id, so
    every run's churn schedule is reproducible.
``env_population_start`` / ``env_population_stop``
    Client-population scaling (registry family): an aggregate query rate
    of ``users × per_user_qps`` is spread across the environment nodes as
    query-shaped CBR flows aimed at the registry/broker service port, so
    10²–10⁵ simulated users load the directory's actual handler path.
``generic``
    Arbitrary parameters forwarded to the acting nodes.

The controller executes master-side but performs all actual work through
RPCs to the NodeManagers, exactly like the prototype's environment thread.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple, TYPE_CHECKING

from repro.sim.rng import RngRegistry

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.rpc import ControlChannel
    from repro.sim.kernel import Simulator

__all__ = ["EnvContext", "EnvironmentController", "select_traffic_pairs"]


@dataclass
class EnvContext:
    """What the environment controller knows about the current run."""

    run_id: int
    replication: int
    acting_nodes: List[str]
    env_nodes: List[str]
    addr_of: Callable[[str], str]

    def candidates(self, choice: int) -> List[str]:
        """The node pool for pair selection, per the ``choice`` parameter."""
        if choice == 0:
            pool = self.env_nodes
        elif choice == 1:
            pool = self.acting_nodes
        elif choice == 2:
            pool = self.acting_nodes + self.env_nodes
        else:
            raise ValueError(f"traffic choice must be 0, 1 or 2, got {choice}")
        return sorted(pool)


def _draw_pairs(pool: List[str], count: int, rng) -> List[Tuple[str, str]]:
    max_pairs = len(pool) * (len(pool) - 1) // 2
    if count > max_pairs:
        raise ValueError(
            f"cannot pick {count} distinct pairs from {len(pool)} nodes"
        )
    chosen: List[Tuple[str, str]] = []
    seen = set()
    while len(chosen) < count:
        a, b = rng.sample(pool, 2)
        key = tuple(sorted((a, b)))
        if key in seen:
            continue
        seen.add(key)
        chosen.append(key)
    return chosen


def select_traffic_pairs(
    pool: List[str],
    count: int,
    seed: int,
    switch_amount: int,
    switch_seed: int,
) -> List[Tuple[str, str]]:
    """Deterministic pair selection with per-run switching.

    The base set depends only on ``seed``; then ``switch_amount`` pairs
    (cyclically chosen) are replaced using ``switch_seed``.  Identical
    parameters always give identical pairs — the repeatability property
    Fig. 7's comment highlights.
    """
    rngs = RngRegistry(seed)
    base = _draw_pairs(pool, count, rngs.fresh("traffic_base"))
    switch_amount = min(switch_amount, count)
    if switch_amount <= 0:
        return base
    sw_rng = RngRegistry(switch_seed).fresh("traffic_switch")
    current = list(base)
    taken = {tuple(sorted(p)) for p in current}
    for i in range(switch_amount):
        slot = i % count
        taken.discard(tuple(sorted(current[slot])))
        # Redraw until we find a pair not already active.
        while True:
            candidate = _draw_pairs(pool, 1, sw_rng)[0]
            if candidate not in taken:
                break
        current[slot] = candidate
        taken.add(candidate)
    return current


class EnvironmentController:
    """Master-side executor for environment actions."""

    def __init__(
        self,
        sim: "Simulator",
        channel: "ControlChannel",
        emit: Callable[..., None],
    ) -> None:
        self.sim = sim
        self.channel = channel
        self.emit = emit
        self._traffic_nodes: List[str] = []
        self._drop_all_nodes: List[str] = []
        self._population_nodes: List[str] = []
        self._churn_procs: List[Any] = []
        self.last_pairs: List[Tuple[str, str]] = []
        #: Per-node errors swallowed by the last :meth:`cleanup` sweep.
        self.last_cleanup_errors: List[str] = []
        #: Master's span tracer; swallowed sweep errors are recorded there
        #: as ``error`` spans with full tracebacks (set by ExperiMaster).
        self.tracer = None

    def _record_swallowed(self, exc: Exception, node_id: str, call: str) -> None:
        if self.tracer is not None:
            self.tracer.record_error(
                "env_cleanup", exc, node=node_id, call=call, site="env_cleanup"
            )
        from repro.obs.metrics import count_suppressed_error

        count_suppressed_error("env_cleanup")

    # ------------------------------------------------------------------
    def execute(self, name: str, params: Dict[str, Any], ctx: EnvContext):
        """Sub-generator dispatching one environment action."""
        if name == "env_traffic_start":
            yield from self._traffic_start(params, ctx)
        elif name == "env_traffic_stop":
            yield from self._traffic_stop()
        elif name == "env_drop_all_start":
            yield from self._drop_all_start(params, ctx)
        elif name == "env_drop_all_stop":
            yield from self._drop_all_stop()
        elif name == "env_churn_start":
            yield from self._churn_start(params, ctx)
        elif name == "env_churn_stop":
            yield from self._churn_stop()
        elif name == "env_population_start":
            yield from self._population_start(params, ctx)
        elif name == "env_population_stop":
            yield from self._population_stop()
        elif name == "generic":
            yield from self._generic(params, ctx)
        else:
            raise ValueError(f"unknown environment action {name!r}")

    # ------------------------------------------------------------------
    def _traffic_start(self, params: Dict[str, Any], ctx: EnvContext):
        rate_kbps = float(params.get("bw", 10))
        count = int(params.get("random_pairs", 1))
        choice = int(params.get("choice", 0))
        seed = int(params.get("random_seed", 0))
        switch_amount = int(params.get("random_switch_amount", 0))
        switch_seed = int(params.get("random_switch_seed", ctx.replication))
        packet_size = int(params.get("packet_size", 512))

        pool = ctx.candidates(choice)
        # The paper's Fig. 5 levels (5/20 pairs) assume the ~100-node DES
        # testbed; smaller platforms clamp to what the pool can supply so
        # the published description stays executable everywhere.  The
        # clamp is recorded in the emitted event's parameters.
        max_pairs = len(pool) * (len(pool) - 1) // 2
        requested = count
        count = min(count, max_pairs)
        if count <= 0:
            raise ValueError(
                f"traffic generation needs at least 2 candidate nodes, "
                f"pool has {len(pool)}"
            )
        pairs = select_traffic_pairs(pool, count, seed, switch_amount, switch_seed)
        self.last_pairs = pairs

        started: List[str] = []
        for a, b in pairs:
            for src, dst in ((a, b), (b, a)):
                yield from self.channel.call(
                    src,
                    "traffic_start",
                    [{"peer_addr": ctx.addr_of(dst), "rate_kbps": rate_kbps,
                      "packet_size": packet_size}],
                )
                if src not in started:
                    started.append(src)
        self._traffic_nodes = started
        self.emit(
            "env_traffic_started",
            params=(
                rate_kbps,
                len(pairs),
                requested,
                ";".join(f"{a}-{b}" for a, b in pairs),
            ),
        )

    def _traffic_stop(self):
        for node_id in self._traffic_nodes:
            yield from self.channel.call(node_id, "traffic_stop")
        self._traffic_nodes = []
        self.emit("env_traffic_stopped", params=())

    def _drop_all_start(self, params: Dict[str, Any], ctx: EnvContext):
        targets = sorted(set(ctx.acting_nodes) | set(ctx.env_nodes))
        for node_id in targets:
            yield from self.channel.call(node_id, "drop_all_start")
        self._drop_all_nodes = targets
        self.emit("env_drop_all_started", params=(len(targets),))

    def _drop_all_stop(self):
        for node_id in self._drop_all_nodes:
            yield from self.channel.call(node_id, "drop_all_stop")
        self._drop_all_nodes = []
        self.emit("env_drop_all_stopped", params=())

    # ------------------------------------------------------------------
    # Node churn (registry family)
    # ------------------------------------------------------------------
    def _churn_start(self, params: Dict[str, Any], ctx: EnvContext):
        victims = params.get("nodes") or ctx.acting_nodes
        if isinstance(victims, str):
            victims = [victims]
        victims = sorted(str(v) for v in victims)
        if not victims:
            raise ValueError("env_churn_start needs a non-empty victim pool")
        mode = str(params.get("mode", "leave"))
        if mode not in ("leave", "crash"):
            raise ValueError(f"churn mode must be 'leave' or 'crash', got {mode!r}")
        interval = float(params.get("interval", 2.0))
        downtime = float(params.get("downtime", 1.0))
        seed = int(params.get("random_seed", 0))
        rejoin_params: Dict[str, Any] = {"role": str(params.get("rejoin_role", "sm"))}
        if params.get("replicas") is not None:
            rejoin_params["replicas"] = int(params["replicas"])
        republish = bool(params.get("republish", True))
        rng = RngRegistry(seed).fresh("churn", ctx.run_id)
        proc = self.sim.process(
            self._churn_loop(victims, mode, interval, downtime, rejoin_params,
                             republish, rng),
            name=f"env:churn:{ctx.run_id}",
        )
        self._churn_procs.append(proc)
        self.emit(
            "env_churn_started", params=(mode, len(victims), interval, downtime)
        )
        yield from ()

    def _churn_loop(self, victims, mode, interval, downtime, rejoin_params,
                    republish, rng):
        while True:
            # Uniform on [interval/2, 3*interval/2]: mean = interval, never
            # two churn events in the same instant.
            yield self.sim.timeout(interval * (0.5 + rng.random()))
            victim = rng.choice(victims)
            if mode == "crash":
                # A crash is invisible to the victim's own software: the
                # data plane dies for `downtime` (a self-reverting fault)
                # while its registrations silently stale out.
                yield from self.channel.call(
                    victim, "execute_action", "iface_fault_start",
                    {"direction": "both", "duration": downtime},
                )
                self.emit("env_churn_event", params=(victim, "crash", downtime))
            else:
                yield from self.channel.call(
                    victim, "execute_action", "sd_exit", {}
                )
                self.emit("env_churn_event", params=(victim, "leave", downtime))
                yield self.sim.timeout(downtime)
                yield from self.channel.call(
                    victim, "execute_action", "sd_init", dict(rejoin_params)
                )
                if republish:
                    yield from self.channel.call(
                        victim, "execute_action", "sd_start_publish", {}
                    )
                self.emit("env_churn_event", params=(victim, "rejoin", 0.0))

    def _churn_stop(self):
        procs, self._churn_procs = self._churn_procs, []
        for proc in procs:
            if proc.alive:
                proc.interrupt("env_churn_stop")
        if procs:
            self.emit("env_churn_stopped", params=())
        yield from ()

    # ------------------------------------------------------------------
    # Client-population scaling (registry family)
    # ------------------------------------------------------------------
    def _population_start(self, params: Dict[str, Any], ctx: EnvContext):
        users = int(params.get("users", 100))
        per_user_qps = float(params.get("per_user_qps", 0.1))
        packet_size = int(params.get("packet_size", 160))
        service_type = str(params.get("service_type", "_exp._udp"))
        dst_port = int(params.get("dst_port", 7447))
        choice = int(params.get("choice", 0))
        targets = params.get("nodes") or []
        if isinstance(targets, str):
            targets = [targets]
        targets = sorted(str(t) for t in targets)
        if not targets:
            raise ValueError(
                "env_population_start needs target 'nodes' (the registry or "
                "broker nodes absorbing the query load)"
            )
        sources = [s for s in ctx.candidates(choice) if s not in targets]
        if not sources:
            raise ValueError(
                "env_population_start has no source nodes left after "
                "excluding the targets"
            )
        total_qps = users * per_user_qps
        share_qps = total_qps / (len(sources) * len(targets))
        # One query every 1/share_qps seconds per flow; the CBR flow's
        # rate is derived so that its interval equals that spacing.
        rate_kbps = share_qps * packet_size * 8.0 / 1000.0
        payload = {"kind": "query", "type": service_type, "population": True}
        started: List[str] = []
        for src in sources:
            specs = [
                {
                    "peer_addr": ctx.addr_of(t),
                    "rate_kbps": rate_kbps,
                    "packet_size": packet_size,
                    "dst_port": dst_port,
                    "payload": dict(payload),
                }
                for t in targets
            ]
            yield from self.channel.call(src, "traffic_start", specs)
            started.append(src)
        self._population_nodes = started
        self.emit(
            "env_population_started",
            params=(users, total_qps, len(sources), len(targets)),
        )

    def _population_stop(self):
        for node_id in self._population_nodes:
            yield from self.channel.call(node_id, "traffic_stop")
        self._population_nodes = []
        self.emit("env_population_stopped", params=())

    def _generic(self, params: Dict[str, Any], ctx: EnvContext):
        wire_params = {str(k): v for k, v in params.items()}
        for node_id in ctx.acting_nodes:
            yield from self.channel.call(
                node_id, "execute_action", "generic", wire_params
            )
        self.emit("env_generic_executed", params=(len(ctx.acting_nodes),))

    # ------------------------------------------------------------------
    def cleanup(self):
        """Run clean-up: stop anything still active.

        Idempotent by construction: the pending-node lists are detached
        *before* any RPC goes out, so a second ``cleanup()`` — e.g. a
        reconciliation sweep racing the normal run-exit clean-up — finds
        nothing to do and yields no RPCs.  Per-node failures are swallowed
        and collected into :attr:`last_cleanup_errors` instead of aborting
        the sweep: one unreachable node must not leave the others'
        manipulations running.
        """
        self.last_cleanup_errors = []
        traffic_nodes, self._traffic_nodes = self._traffic_nodes, []
        drop_all_nodes, self._drop_all_nodes = self._drop_all_nodes, []
        population_nodes, self._population_nodes = self._population_nodes, []
        churn_procs, self._churn_procs = self._churn_procs, []
        for proc in churn_procs:
            if proc.alive:
                proc.interrupt("env_cleanup")
        if churn_procs:
            self.emit("env_churn_stopped", params=())
        for node_id in population_nodes:
            try:
                yield from self.channel.call(node_id, "traffic_stop")
            except Exception as exc:  # noqa: BLE001 - sweep must continue
                self.last_cleanup_errors.append(f"{node_id}/traffic_stop: {exc}")
                self._record_swallowed(exc, node_id, "traffic_stop")
        if population_nodes:
            self.emit("env_population_stopped", params=())
        for node_id in traffic_nodes:
            try:
                yield from self.channel.call(node_id, "traffic_stop")
            except Exception as exc:  # noqa: BLE001 - sweep must continue
                self.last_cleanup_errors.append(f"{node_id}/traffic_stop: {exc}")
                self._record_swallowed(exc, node_id, "traffic_stop")
        if traffic_nodes:
            self.emit("env_traffic_stopped", params=())
        for node_id in drop_all_nodes:
            try:
                yield from self.channel.call(node_id, "drop_all_stop")
            except Exception as exc:  # noqa: BLE001 - sweep must continue
                self.last_cleanup_errors.append(f"{node_id}/drop_all_stop: {exc}")
                self._record_swallowed(exc, node_id, "drop_all_stop")
        if drop_all_nodes:
            self.emit("env_drop_all_stopped", params=())
