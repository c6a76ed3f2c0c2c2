"""Three-party, SLP-style service discovery with a directory (SCM).

The centralized architecture of Fig. 2 (right): SMs register their
services with a service cache manager, SUs query it directly (*directed
discovery*, Sec. III-B).  *"Centralized does not imply a preceding
administrative configuration because an SCM itself can be discovered at
runtime as part of an SD process"* — SCM discovery here is exactly that:
multicast directory advertisements plus active directory requests with
exponential back-off, emitting ``scm_found`` on success.

Protocol elements (modelled on SLPv2 with a DA):

* **DAAdvert** — the SCM multicasts its presence: a startup burst, then
  periodically; also unicast in reply to a directory request.
* **Register / Deregister** — unicast, acknowledged, retried with
  back-off; registrations have lifetimes and are refreshed at 80 %.
  The SCM emits ``scm_registration_add`` / ``_upd`` / ``_del``.
* **SrvRqst / SrvRply** — unicast request/reply with transaction ids,
  retried; a searching SU polls the SCM periodically for updates (that is
  what "directed discovery" degenerates to without server push).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.net.packet import MULTICAST_SD_GROUP, Packet
from repro.sd import model as M
from repro.sd.agent import SDAgent
from repro.sd.model import Role, ServiceInstance

__all__ = ["SlpAgent", "SLP_PORT"]

#: The SLP UDP port.
SLP_PORT = 427


class SlpAgent(SDAgent):
    """Three-party SD agent (see module docstring).

    Config keys (all optional)
    --------------------------
    ``da_advert_interval`` (10 s), ``da_advert_burst`` (3),
    ``da_rqst_backoff_base`` (1.0 s), ``da_rqst_backoff_cap`` (16 s),
    ``unicast_retry_timeout`` (0.5 s), ``unicast_retry_cap`` (8 s),
    ``poll_interval`` (2.0 s), ``registration_ttl`` (120 s).
    """

    protocol = "slp"
    group = MULTICAST_SD_GROUP
    port = SLP_PORT
    reply_kinds = ("reg_ack", "srv_rply")

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._da_node: Optional[str] = None
        self._da_addr: Optional[str] = None
        self._da_found_ev = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def on_init(self, params: Dict[str, Any]) -> None:
        self.listen()
        self._da_node = None
        self._da_addr = None
        self._da_found_ev = self.sim.event(name=f"da_found:{self.node.name}")
        if self.role is Role.SCM:
            self.spawn(self._da_advertiser(), "da_advert")
            reaper = self.expiry_loop(self.registrations, 1.0, self.registration_gone)
            self.spawn(reaper, "reg_reaper")
        else:
            self.spawn(self._da_discovery(), "da_discovery")
        self.spawn(self.cache_housekeeping(), "cache")

    def on_exit(self) -> None:
        self._da_node = None
        self._da_addr = None

    # ------------------------------------------------------------------
    # SCM behaviour
    # ------------------------------------------------------------------
    def _da_advertiser(self):
        burst = int(self.config.get("da_advert_burst", 3))
        interval = float(self.config.get("da_advert_interval", 10.0))
        yield self.sim.timeout(self.rng.uniform(0.0, 0.1))
        for _ in range(burst):
            self.send(self.group, self._da_advert_payload(), 100)
            yield self.sim.timeout(1.0)
        while True:
            yield self.sim.timeout(interval)
            self.send(self.group, self._da_advert_payload(), 100)

    def _da_advert_payload(self, xid=None) -> Dict[str, Any]:
        return {
            "kind": "da_advert",
            "xid": xid,
            "da": self.node.name,
            "address": self.node.address,
        }

    def _handle_register(self, payload: Dict[str, Any], packet: Packet) -> None:
        instance = ServiceInstance.from_wire(payload["record"])
        is_new, is_update = self.registrations.add(instance, self.sim.now)
        if is_new:
            self.emit(M.EVENT_SCM_REGISTRATION_ADD, params=instance.event_params())
        elif is_update:
            self.emit(M.EVENT_SCM_REGISTRATION_UPD, params=instance.event_params())
        self._ack(packet, payload)

    def _handle_srv_rqst(self, payload: Dict[str, Any], packet: Packet) -> None:
        records = [
            entry.instance.as_wire()
            for entry in self.registrations.entries_for_type(str(payload.get("type", "")))
        ]
        self.send(
            packet.src_addr,
            {"kind": "srv_rply", "xid": payload.get("xid"), "records": records},
            100 + 80 * len(records),
        )

    # ------------------------------------------------------------------
    # DA discovery (SU / SM side)
    # ------------------------------------------------------------------
    def _da_discovery(self):
        base = float(self.config.get("da_rqst_backoff_base", 1.0))
        cap = float(self.config.get("da_rqst_backoff_cap", 16.0))
        yield self.sim.timeout(self.rng.uniform(0.02, 0.12))
        interval = base
        while self._da_node is None:
            self.send(self.group, {"kind": "da_rqst", "xid": next(self._xid)}, 100)
            yield self.sim.any_of(self._da_found_ev, self.sim.timeout(interval))
            interval = min(interval * 2.0, cap)

    def _learn_da(self, payload: Dict[str, Any]) -> None:
        if self._da_node is not None:
            return
        self._da_node = str(payload["da"])
        self._da_addr = str(payload["address"])
        self.emit(M.EVENT_SCM_FOUND, params=(self._da_node,))
        if self._da_found_ev is not None and not self._da_found_ev.triggered:
            self._da_found_ev.trigger(self._da_node)

    def _await_da(self):
        """Sub-generator: block until the DA is known."""
        if self._da_node is None:
            yield self._da_found_ev
        return self._da_addr

    def _query_da(self, service_type: str):
        """Sub-generator: one directed SrvRqst/SrvRply exchange with the DA.
        A DA's store never holds a TTL-zero record (``ServiceCache.add``
        drops goodbyes), so the intake discovers every record it returns."""
        reply = yield from self.transact(
            self._da_addr, {"kind": "srv_rqst", "type": service_type}
        )
        self.take_records(reply.get("records", []))

    # ------------------------------------------------------------------
    # Publishing (SM)
    # ------------------------------------------------------------------
    def on_start_publish(self, instance: ServiceInstance, params: Dict[str, Any]) -> None:
        self.spawn(self._registrar(instance.service_type), f"register:{instance.name}")

    def _registrar(self, service_type: str):
        yield from self._await_da()
        while True:
            instance = self.published.get(service_type)
            if instance is None:
                return
            wire = self.registration_wire(instance)
            yield from self.transact(self._da_addr, {"kind": "register", "record": wire})
            # Refresh before the registration lapses ("Registrations and
            # Extension ... management of registrations", Sec. V).
            yield self.sim.timeout(0.8 * wire["ttl"])

    def on_stop_publish(self, instance: ServiceInstance, params: Dict[str, Any]) -> None:
        if self._da_addr is not None:
            self.spawn(self._deregistrar(instance), f"deregister:{instance.name}")

    def _deregistrar(self, instance: ServiceInstance):
        yield from self.transact(
            self._da_addr,
            {"kind": "deregister", "type": instance.service_type, "name": instance.name},
        )

    def on_update_publication(self, instance: ServiceInstance, params: Dict[str, Any]) -> None:
        self.spawn(self._reregister_once(instance), f"reregister:{instance.name}")

    def _reregister_once(self, instance: ServiceInstance):
        yield from self._await_da()
        yield from self.transact(
            self._da_addr, {"kind": "register", "record": self.registration_wire(instance)}
        )

    # ------------------------------------------------------------------
    # Searching (SU)
    # ------------------------------------------------------------------
    def on_start_search(self, service_type: str, params: Dict[str, Any]):
        return self.spawn(self._searcher(service_type), f"search:{service_type}")

    def _searcher(self, service_type: str):
        poll = float(self.config.get("poll_interval", 2.0))
        yield from self._await_da()
        while service_type in self.searching:
            yield from self._query_da(service_type)
            yield self.sim.timeout(poll)

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    def receive(self, kind: Any, payload: Dict[str, Any], packet: Packet) -> None:
        if kind == "da_advert":
            self._learn_da(payload)
        elif kind == "da_rqst" and self.role is Role.SCM:
            self.send(packet.src_addr, self._da_advert_payload(payload.get("xid")), 120)
        elif kind == "register" and self.role is Role.SCM:
            self._handle_register(payload, packet)
        elif kind == "deregister" and self.role is Role.SCM:
            self._handle_deregister(payload, packet)
        elif kind == "srv_rqst" and self.role is Role.SCM:
            self._handle_srv_rqst(payload, packet)
