"""The abstract SD agent: the action interface of Sec. V.

*"The details of executing the description are left to the SDP
implementation, so that multiple implementations which adhere to the same
SD concepts can be compared in experiments."*

:class:`SDAgent` defines that contract.  Concrete protocols (mDNS-style,
SLP-style, hybrid and registry) subclass it and implement the protocol
hooks; the shared base handles role lifecycle, event emission, per-run
reset, the housekeeping of background processes and the published/searched
state.

It also holds the SD mechanics two or more families share, so that a
comparison between families compares protocols, not copies of one
mechanism: the datagram sender (:meth:`SDAgent.send`), the acknowledged
transaction (:meth:`SDAgent.transact`), the multicast announcer and the
jittered responder of the two-party kinds, the record intake
(:meth:`SDAgent.take_records`), the expiry loop behind cache housekeeping
and registration reaping, and one searcher per searched type.  The only
parameters are data: wire kinds, sizes, the port and the group.  A body
moves here only when it is identical in every family that has it; where
two bodies differ in behaviour (the SLP and registry registrars) they stay
with their families.

The agent plays the role Avahi plays in the paper's prototype; the
NodeManager dispatches the ``sd_*`` actions to it
(:func:`install_sd_agent`).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import replace
from typing import Any, Callable, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.sd import model as M
from repro.sd.model import Role, ServiceInstance, instance_name
from repro.sd.records import ServiceCache

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.nodemanager import NodeManager
    from repro.net.packet import Packet
    from repro.net.node import NetNode
    from repro.sim.kernel import Simulator
    from repro.sim.process import Process
    from repro.sim.rng import RngRegistry

__all__ = ["SDAgent", "install_sd_agent"]

EmitFn = Callable[..., Any]


class SDAgent:
    """Base class for service discovery protocol agents.

    Parameters
    ----------
    sim, node:
        Kernel and data-plane node.
    rngs:
        Experiment RNG registry; per-run streams derive from it.
    emit:
        Event generator callback, ``emit(name, params=(...))`` — normally
        :meth:`NodeManager.emit`.
    config:
        Protocol tuning knobs (subclass-specific keys allowed).
    """

    #: Protocol identifier (subclasses override).
    protocol = "abstract"
    #: UDP port and multicast group of the family (``None``: no group).
    port = 0
    group: Optional[str] = None
    #: Wire kind of the two-party multicast response: announcements,
    #: answers to queries and goodbyes.
    response_kind = "response"
    #: Wire kinds that settle a pending :meth:`transact`.
    reply_kinds: Tuple[str, ...] = ()

    def __init__(
        self,
        sim: "Simulator",
        node: "NetNode",
        rngs: "RngRegistry",
        emit: EmitFn,
        config: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.sim = sim
        self.node = node
        self.rngs = rngs
        self.emit = emit
        self.config = dict(config or {})
        self.role: Optional[Role] = None
        self.initialized = False
        self.cache = ServiceCache()
        #: ``{service_type: ServiceInstance}`` currently published by us.
        self.published: Dict[str, ServiceInstance] = {}
        #: Service types currently searched.
        self.searching: List[str] = []
        #: ``(type, name)`` pairs already announced via ``sd_service_add``
        #: during the current searches (the add event fires once per
        #: instance per search).
        self._announced: set = set()
        self._procs: List["Process"] = []
        #: The live searcher process of each searched service type.
        self._searchers: Dict[str, "Process"] = {}
        self._bound = False
        #: Transaction ids; the query ids of the multicast queries too.
        self._xid = itertools.count(1)
        #: Pending transactions: xid -> SimEvent (fires with the reply).
        self._pending: Dict[int, Any] = {}
        #: Registrar-side store of the SCM role.
        self.registrations = ServiceCache()
        #: Lifecycle epoch: bumped by every :meth:`_teardown`.  Background
        #: generators capture the epoch they were spawned under and become
        #: inert once it moves on — see :meth:`expiry_loop`.
        self._epoch: int = 0
        self._run_id: int = -1
        self.rng: random.Random = rngs.fresh("sd", self.protocol, node.name, -1)

    # ------------------------------------------------------------------
    # Per-run reset (registered as a NodeManager run hook)
    # ------------------------------------------------------------------
    def reset(self, run_id: int) -> None:
        """Restore pristine state for a new run.

        Reseeds the agent's RNG from ``(protocol, node, run)`` so each
        run's protocol randomness is a pure function of the experiment
        seed and the run id — the repeatability property of Sec. IV-C1.
        """
        self._teardown(emit_event=False)
        self._run_id = run_id
        self.rng = self.rngs.fresh("sd", self.protocol, self.node.name, run_id)

    # ------------------------------------------------------------------
    # The Sec. V action interface
    # ------------------------------------------------------------------
    def action_init(self, params: Dict[str, Any]) -> None:
        """**Init SD** — mandatory to participate; establishes identity,
        performs configuration discovery (protocol hook)."""
        role = Role.parse(str(params.get("role", "su")))
        if self.initialized:
            raise RuntimeError(f"{self.node.name}: sd_init while already initialized")
        self.role = role
        self.initialized = True
        self.on_init(params)
        if role is Role.SCM:
            self.emit(M.EVENT_SCM_STARTED, params=(self.node.name,))
        self.emit(M.EVENT_SD_INIT_DONE, params=(role.value,))

    def action_exit(self, params: Dict[str, Any]) -> None:
        """**Exit SD** — stop the role and everything it was doing."""
        if not self.initialized:
            return
        self._teardown(emit_event=False)
        self.emit(M.EVENT_SD_EXIT_DONE)

    def action_start_search(self, params: Dict[str, Any]) -> None:
        """**Start searching** for a service type (continuous)."""
        self._require_init()
        service_type = str(params.get("type", self.config.get("service_type", "_exp._udp")))
        if service_type in self.searching:
            return
        self.searching.append(service_type)
        self.emit(M.EVENT_SD_START_SEARCH, params=(service_type,))
        # Fresh cached records count as discovered immediately ("passively
        # listening to announcements", Sec. III-A); re-adding them through
        # discovered() fires the add event.
        for entry in self.cache.entries_for_type(service_type):
            self.discovered(entry.instance)
        # A searcher left running by an earlier search of this type (its
        # family lets it run out after sd_stop_search) must not poll
        # beside the new one.
        self._stop_searcher(service_type, "sd_start_search")
        searcher = self.on_start_search(service_type, params)
        if searcher is not None:
            self._searchers[service_type] = searcher

    def action_stop_search(self, params: Dict[str, Any]) -> None:
        """**Stop searching** (includes removing SCM notification state)."""
        self._require_init()
        service_type = str(params.get("type", self.config.get("service_type", "_exp._udp")))
        if service_type in self.searching:
            self.searching.remove(service_type)
            self._announced = {
                key for key in self._announced if key[0] != service_type
            }
            self.on_stop_search(service_type, params)
        self.emit(M.EVENT_SD_STOP_SEARCH, params=(service_type,))

    def action_start_publish(self, params: Dict[str, Any]) -> None:
        """**Start publishing** an instance of a service type."""
        self._require_init()
        service_type = str(params.get("type", self.config.get("service_type", "_exp._udp")))
        instance = ServiceInstance(
            name=instance_name(service_type, self.node.name),
            service_type=service_type,
            provider_node=self.node.name,
            address=self.node.address,
            port=int(params.get("port", 0)),
            ttl=float(params.get("ttl", self.config.get("record_ttl", 120.0))),
        )
        self.published[service_type] = instance
        self.emit(M.EVENT_SD_START_PUBLISH, params=instance.event_params())
        self.on_start_publish(instance, params)

    def action_stop_publish(self, params: Dict[str, Any]) -> None:
        """**Stop publishing** gracefully (revocations / de-registration)."""
        self._require_init()
        service_type = str(params.get("type", self.config.get("service_type", "_exp._udp")))
        instance = self.published.pop(service_type, None)
        if instance is not None:
            self.on_stop_publish(instance, params)
        self.emit(
            M.EVENT_SD_STOP_PUBLISH,
            params=instance.event_params() if instance else (service_type,),
        )

    def action_update_publication(self, params: Dict[str, Any]) -> None:
        """**Update publication** — new description version."""
        self._require_init()
        service_type = str(params.get("type", self.config.get("service_type", "_exp._udp")))
        instance = self.published.get(service_type)
        if instance is None:
            raise RuntimeError(
                f"{self.node.name}: update_publication for unpublished {service_type!r}"
            )
        updated = instance.bumped()
        # Event generated *before* the update executes (Sec. V).
        self.emit(M.EVENT_SD_SERVICE_UPD, params=updated.event_params())
        self.published[service_type] = updated
        self.on_update_publication(updated, params)

    # ------------------------------------------------------------------
    # Protocol hooks (subclasses implement)
    # ------------------------------------------------------------------
    def on_init(self, params: Dict[str, Any]) -> None:
        raise NotImplementedError

    def on_exit(self) -> None:
        """Extra protocol teardown; default nothing."""

    def on_start_search(
        self, service_type: str, params: Dict[str, Any]
    ) -> Optional["Process"]:
        """Start searching; returns the searcher process, if any."""
        raise NotImplementedError

    def on_stop_search(self, service_type: str, params: Dict[str, Any]) -> None:
        """Default: nothing (the searcher runs out on its own; teardown or
        a new search of the type interrupts it)."""

    def on_start_publish(self, instance: ServiceInstance, params: Dict[str, Any]) -> None:
        raise NotImplementedError

    def on_stop_publish(self, instance: ServiceInstance, params: Dict[str, Any]) -> None:
        """Default: nothing."""

    def on_update_publication(self, instance: ServiceInstance, params: Dict[str, Any]) -> None:
        """Default: republish via :meth:`on_start_publish`."""
        self.on_start_publish(instance, {})

    def receive(self, kind: Any, payload: Dict[str, Any], packet: "Packet") -> None:
        """A datagram of *kind* that settles no transaction; default: drop it."""

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def spawn(self, generator, name: str) -> "Process":
        """Run a protocol housekeeping process, tracked for teardown."""
        proc = self.sim.process(generator, name=f"sd:{self.node.name}:{name}")
        self._procs.append(proc)
        return proc

    def discovered(self, instance: ServiceInstance) -> None:
        """Record a (possibly) newly discovered service.

        Emits ``sd_service_add`` exactly once per instance per search —
        *"A service is considered discovered during search when its
        complete description has been received."*
        """
        _is_new, is_update = self.cache.add(instance, self.sim.now)
        self._announce(instance, is_update)

    def discovered_until(self, instance: ServiceInstance, expires_at: float) -> None:
        """Like :meth:`discovered`, for records learned with an explicit
        remaining lifetime (registry snapshots, broker pushes)."""
        _is_new, is_update = self.cache.refresh(instance, expires_at, self.sim.now)
        self._announce(instance, is_update)

    def _announce(self, instance: ServiceInstance, is_update: bool) -> None:
        if instance.service_type not in self.searching:
            return
        key = (instance.service_type, instance.name)
        if key not in self._announced:
            self._announced.add(key)
            self.emit(M.EVENT_SD_SERVICE_ADD, params=instance.event_params())
        elif is_update:
            self.emit(M.EVENT_SD_SERVICE_UPD, params=instance.event_params())

    def lost(self, instance: ServiceInstance) -> None:
        """A cached service became unavailable (expiry or goodbye)."""
        self._announced.discard((instance.service_type, instance.name))
        if instance.service_type in self.searching:
            self.emit(M.EVENT_SD_SERVICE_DEL, params=instance.event_params())

    def cache_housekeeping(self):
        """Generator: expire cache entries once per simulated second."""
        return self.expiry_loop(self.cache, 1.0, self.lost)

    def expiry_loop(
        self, store: ServiceCache, interval: float, expired: Callable[[ServiceInstance], Any]
    ):
        """Generator: every *interval* simulated seconds, purge *store* and
        hand each expired record to *expired* — the cache housekeeping,
        the registration reaper and the broker's mirror expiry.

        The epoch check closes a teardown race: when the loop's timeout
        fires in the same instant as ``sd_exit``, the kernel has already
        moved this process's resume callback out of the timeout, so
        ``interrupt()`` cannot cancel it — the loop body would run one
        more time *after* ``_teardown`` cleared the store, purging (and
        potentially announcing ``lost()`` for) state belonging to the
        next lifecycle, and scheduling a fresh timeout that perturbs the
        deterministic event schedule.  A stale epoch means the agent this
        generator served is gone: return without touching anything.
        """
        epoch = self._epoch
        while True:
            yield self.sim.timeout(interval)
            if epoch != self._epoch:
                return
            for instance in store.purge_expired(self.sim.now):
                expired(instance)

    # ------------------------------------------------------------------
    # Transmission and transactions
    # ------------------------------------------------------------------
    def listen(self) -> None:
        """Bind the family's port (and join its group); undone by teardown."""
        if self.group is not None:
            self.node.join_group(self.group)
        self.node.bind(self.port, self._on_datagram)
        self._bound = True

    def send(self, dst_addr: str, payload: Dict[str, Any], size: int) -> None:
        """Send one protocol datagram of *size* bytes from and to the port."""
        payload = dict(payload)
        payload["from"] = self.node.name
        self.node.send_datagram(
            payload,
            dst_addr=dst_addr,
            dst_port=self.port,
            src_port=self.port,
            size=size,
            flow="experiment",
        )

    def transact(self, dst_addr: str, payload: Dict[str, Any], size: int = 120):
        """Sub-generator: send, retry with back-off until a reply with the
        same xid arrives.  Returns the reply payload."""
        timeout = float(self.config.get("unicast_retry_timeout", 0.5))
        cap = float(self.config.get("unicast_retry_cap", 8.0))
        xid = next(self._xid)
        payload = dict(payload)
        payload["xid"] = xid
        while True:
            reply_ev = self.sim.event(name=f"xid:{xid}")
            self._pending[xid] = reply_ev
            self.send(dst_addr, payload, size)
            fired, value = yield self.sim.any_of(reply_ev, self.sim.timeout(timeout))
            self._pending.pop(xid, None)
            if fired is reply_ev:
                return value
            timeout = min(timeout * 2.0, cap)

    def _on_datagram(self, payload: Any, packet: "Packet", _node) -> None:
        if not isinstance(payload, dict):
            return
        kind = payload.get("kind")
        if kind in self.reply_kinds:
            reply_ev = self._pending.get(payload.get("xid"))
            if reply_ev is not None and not reply_ev.triggered:
                reply_ev.trigger(payload)
        else:
            self.receive(kind, payload, packet)

    # ------------------------------------------------------------------
    # Two-party mechanics: announcer, responder, record intake
    # ------------------------------------------------------------------
    def send_response(self, qid: Any, records: List[Dict[str, Any]]) -> None:
        """Multicast a two-party response carrying *records*."""
        self.send(
            self.group,
            {"kind": self.response_kind, "qid": qid, "records": records},
            120 + 80 * len(records),
        )

    def _offer(self, service_type: str, qid: Any) -> bool:
        """Send our record of *service_type* as a response to *qid*; false
        once the type is no longer published."""
        instance = self.published.get(service_type)
        if instance is None:
            return False
        self.send_response(qid, [instance.as_wire()])
        return True

    def announcer(self, service_type: str, refresh: bool):
        """Generator: unsolicited responses for a published type — a burst
        (``announce_count``, ``announce_interval`` apart, the first after a
        small random delay) and, with *refresh*, one more at 80 % of the
        record TTL, like real mDNS responders.  Ends with the publication."""
        count = int(self.config.get("announce_count", 3))
        interval = float(self.config.get("announce_interval", 1.0))
        yield self.sim.timeout(self.rng.uniform(0.0, 0.1))
        for _ in range(count):
            if not self._offer(service_type, None):
                return
            yield self.sim.timeout(interval)
        while refresh and service_type in self.published:
            yield self.sim.timeout(0.8 * self.published[service_type].ttl)
            if not self._offer(service_type, None):
                return

    def _handle_query(self, payload: Dict[str, Any]) -> None:
        """A multicast query: only a manager answers (:meth:`answer`)."""
        if self.role is not None and self.role.is_manager:
            self.answer(payload)

    def answer(self, payload: Dict[str, Any]) -> None:
        """Answer a query for a type we publish with its record, as
        published when the jittered response leaves."""
        service_type = str(payload.get("type", ""))
        if service_type in self.published:
            qid = payload.get("qid")
            self.respond(lambda: self._offer(service_type, qid))

    def respond(self, send_answer: Callable[[], Any]) -> None:
        """The jittered responder: call *send_answer* after a random
        ``response_delay_min``..``max`` (20–120 ms) delay, which keeps the
        responders to one multicast query from answering in lock-step."""
        delay = self.rng.uniform(
            float(self.config.get("response_delay_min", 0.02)),
            float(self.config.get("response_delay_max", 0.12)),
        )

        def delayed():
            yield self.sim.timeout(delay)
            send_answer()

        self.spawn(delayed(), "respond")

    def take_records(self, wires: List[Dict[str, Any]]) -> None:
        """Record intake: every record another node offers is discovered;
        a TTL-zero record is a goodbye and drops the cached one."""
        for wire in wires:
            instance = ServiceInstance.from_wire(wire)
            if instance.provider_node == self.node.name:
                continue  # our own flooded announcement
            if instance.ttl <= 0:
                gone = self.cache.remove(instance.service_type, instance.name)
                if gone is not None:
                    self.lost(gone)
            else:
                self.discovered(instance)

    # ------------------------------------------------------------------
    # Registration mechanics (SM and SCM sides of the directory families)
    # ------------------------------------------------------------------
    def registration_wire(self, instance: ServiceInstance) -> Dict[str, Any]:
        """*instance* as a (re-)registration carries it: with the configured
        ``registration_ttl``, else the record's own TTL."""
        ttl = float(self.config.get("registration_ttl", instance.ttl))
        return replace(instance, ttl=ttl).as_wire()

    def registration_gone(self, instance: ServiceInstance) -> None:
        """A registration was withdrawn or expired."""
        self.emit(M.EVENT_SCM_REGISTRATION_DEL, params=instance.event_params())

    def _handle_deregister(self, payload: Dict[str, Any], packet: "Packet") -> None:
        gone = self.registrations.remove(payload["type"], payload["name"])
        if gone is not None:
            self.registration_gone(gone)
        self._ack(packet, payload)

    def _ack(self, packet: "Packet", payload: Dict[str, Any]) -> None:
        self.send(packet.src_addr, {"kind": "reg_ack", "xid": payload.get("xid")}, 120)

    def _require_init(self) -> None:
        if not self.initialized:
            raise RuntimeError(
                f"{self.node.name}: SD action before sd_init (Sec. V: Init SD "
                "is mandatory)"
            )

    def _stop_searcher(self, service_type: str, cause: str) -> None:
        searcher = self._searchers.pop(service_type, None)
        if searcher is not None and searcher.alive:
            searcher.interrupt(cause)

    def _teardown(self, emit_event: bool) -> None:
        self._epoch += 1
        for proc in self._procs:
            if proc.alive:
                proc.interrupt("sd_teardown")
        self._procs.clear()
        self._searchers.clear()
        if self._bound:
            self.node.unbind(self.port)
            if self.group is not None:
                self.node.leave_group(self.group)
            self._bound = False
        self.on_exit()
        self._pending.clear()
        self.registrations.clear()
        self.published.clear()
        self.searching.clear()
        self._announced.clear()
        self.cache.clear()
        self.initialized = False
        self.role = None


def install_sd_agent(node_manager: "NodeManager", agent: SDAgent) -> SDAgent:
    """Wire *agent* into a NodeManager: action handlers + run-reset hook."""
    node_manager.register_action_handler("sd_init", agent.action_init)
    node_manager.register_action_handler("sd_exit", agent.action_exit)
    node_manager.register_action_handler("sd_start_search", agent.action_start_search)
    node_manager.register_action_handler("sd_stop_search", agent.action_stop_search)
    node_manager.register_action_handler("sd_start_publish", agent.action_start_publish)
    node_manager.register_action_handler("sd_stop_publish", agent.action_stop_publish)
    node_manager.register_action_handler(
        "sd_update_publication", agent.action_update_publication
    )
    node_manager.add_run_hook(agent.reset)
    return agent
