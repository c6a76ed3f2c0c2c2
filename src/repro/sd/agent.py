"""The abstract SD agent: the action interface of Sec. V.

*"The details of executing the description are left to the SDP
implementation, so that multiple implementations which adhere to the same
SD concepts can be compared in experiments."*

:class:`SDAgent` defines that contract.  Concrete protocols (mDNS-style,
SLP-style, hybrid) subclass it and implement the protocol hooks; the
shared base handles role lifecycle, event emission, per-run reset, the
housekeeping of background processes and the published/searched state.

The agent plays the role Avahi plays in the paper's prototype; the
NodeManager dispatches the ``sd_*`` actions to it
(:func:`install_sd_agent`).
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List, Optional, TYPE_CHECKING

from repro.sd import model as M
from repro.sd.model import Role, ServiceInstance, instance_name
from repro.sd.records import ServiceCache

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.nodemanager import NodeManager
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
        #: Lifecycle epoch: bumped by every :meth:`_teardown`.  Background
        #: generators capture the epoch they were spawned under and become
        #: inert once it moves on — see :meth:`cache_housekeeping`.
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
        self.on_start_search(service_type, params)

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

    def on_start_search(self, service_type: str, params: Dict[str, Any]) -> None:
        raise NotImplementedError

    def on_stop_search(self, service_type: str, params: Dict[str, Any]) -> None:
        """Default: nothing (search processes die with teardown)."""

    def on_start_publish(self, instance: ServiceInstance, params: Dict[str, Any]) -> None:
        raise NotImplementedError

    def on_stop_publish(self, instance: ServiceInstance, params: Dict[str, Any]) -> None:
        """Default: nothing."""

    def on_update_publication(self, instance: ServiceInstance, params: Dict[str, Any]) -> None:
        """Default: republish via :meth:`on_start_publish`."""
        self.on_start_publish(instance, {})

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
        """Generator: expire cache entries once per simulated second.

        The epoch check closes a teardown race: when the housekeeping
        timeout fires in the same instant as ``sd_exit``, the kernel has
        already moved this process's resume callback out of the timeout,
        so ``interrupt()`` cannot cancel it — the loop body would run one
        more time *after* ``_teardown`` cleared the cache, purging (and
        potentially announcing ``lost()`` for) state belonging to the
        next lifecycle, and scheduling a fresh timeout that perturbs the
        deterministic event schedule.  A stale epoch means the agent this
        generator served is gone: return without touching anything.
        """
        epoch = self._epoch
        while True:
            yield self.sim.timeout(1.0)
            if epoch != self._epoch:
                return
            for instance in self.cache.purge_expired(self.sim.now):
                self.lost(instance)

    def _require_init(self) -> None:
        if not self.initialized:
            raise RuntimeError(
                f"{self.node.name}: SD action before sd_init (Sec. V: Init SD "
                "is mandatory)"
            )

    def _teardown(self, emit_event: bool) -> None:
        self._epoch += 1
        for proc in self._procs:
            if proc.alive:
                proc.interrupt("sd_teardown")
        self._procs.clear()
        self.on_exit()
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
