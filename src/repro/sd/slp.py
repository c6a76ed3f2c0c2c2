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

import itertools
from typing import Any, Dict, Optional

from repro.net.packet import MULTICAST_SD_GROUP, Packet
from repro.sd import model as M
from repro.sd.agent import SDAgent
from repro.sd.model import Role, ServiceInstance
from repro.sd.records import ServiceCache

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

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._bound = False
        self._xid = itertools.count(1)
        self._da_node: Optional[str] = None
        self._da_addr: Optional[str] = None
        self._da_found_ev = None
        #: SCM-side registration store.
        self.registrations = ServiceCache()
        #: Pending unicast transactions: xid -> SimEvent (fires w/ payload).
        self._pending: Dict[int, Any] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def on_init(self, params: Dict[str, Any]) -> None:
        self.node.join_group(self.group)
        self.node.bind(self.port, self._on_datagram)
        self._bound = True
        self._da_node = None
        self._da_addr = None
        self._da_found_ev = self.sim.event(name=f"da_found:{self.node.name}")
        if self.role is Role.SCM:
            self.spawn(self._da_advertiser(), "da_advert")
            self.spawn(self._registration_reaper(), "reg_reaper")
        else:
            self.spawn(self._da_discovery(), "da_discovery")
        self.spawn(self.cache_housekeeping(), "cache")

    def on_exit(self) -> None:
        if self._bound:
            self.node.unbind(self.port)
            self.node.leave_group(self.group)
            self._bound = False
        self.registrations.clear()
        self._pending.clear()
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
            self._send_mc(self._da_advert_payload())
            yield self.sim.timeout(1.0)
        while True:
            yield self.sim.timeout(interval)
            self._send_mc(self._da_advert_payload())

    def _da_advert_payload(self, xid=None) -> Dict[str, Any]:
        return {
            "kind": "da_advert",
            "xid": xid,
            "da": self.node.name,
            "address": self.node.address,
        }

    def _registration_reaper(self):
        # Same teardown-race guard as SDAgent.cache_housekeeping: a reaper
        # whose wakeup fired in the sd_exit instant must not purge (or
        # announce expiry for) the next lifecycle's registrations.
        epoch = self._epoch
        while True:
            yield self.sim.timeout(1.0)
            if epoch != self._epoch:
                return
            for gone in self.registrations.purge_expired(self.sim.now):
                self.emit(M.EVENT_SCM_REGISTRATION_DEL, params=gone.event_params())

    def _handle_register(self, payload: Dict[str, Any], packet: Packet) -> None:
        instance = ServiceInstance.from_wire(payload["record"])
        is_new, is_update = self.registrations.add(instance, self.sim.now)
        if is_new:
            self.emit(M.EVENT_SCM_REGISTRATION_ADD, params=instance.event_params())
        elif is_update:
            self.emit(M.EVENT_SCM_REGISTRATION_UPD, params=instance.event_params())
        self._send_uc(packet.src_addr, {"kind": "reg_ack", "xid": payload.get("xid")})

    def _handle_deregister(self, payload: Dict[str, Any], packet: Packet) -> None:
        gone = self.registrations.remove(payload["type"], payload["name"])
        if gone is not None:
            self.emit(M.EVENT_SCM_REGISTRATION_DEL, params=gone.event_params())
        self._send_uc(packet.src_addr, {"kind": "reg_ack", "xid": payload.get("xid")})

    def _handle_srv_rqst(self, payload: Dict[str, Any], packet: Packet) -> None:
        records = [
            entry.instance.as_wire()
            for entry in self.registrations.entries_for_type(str(payload.get("type", "")))
        ]
        self._send_uc(
            packet.src_addr,
            {"kind": "srv_rply", "xid": payload.get("xid"), "records": records},
            size=100 + 80 * len(records),
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
            self._send_mc({"kind": "da_rqst", "xid": next(self._xid)})
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

    # ------------------------------------------------------------------
    # Reliable unicast (transactions)
    # ------------------------------------------------------------------
    def _transact(self, dst_addr: str, payload: Dict[str, Any]):
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
            self._send_uc(dst_addr, payload)
            fired, value = yield self.sim.any_of(reply_ev, self.sim.timeout(timeout))
            self._pending.pop(xid, None)
            if fired is reply_ev:
                return value
            timeout = min(timeout * 2.0, cap)

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
            reg_ttl = float(self.config.get("registration_ttl", instance.ttl))
            wire = instance.as_wire()
            wire["ttl"] = reg_ttl
            yield from self._transact(self._da_addr, {"kind": "register", "record": wire})
            # Refresh before the registration lapses ("Registrations and
            # Extension ... management of registrations", Sec. V).
            yield self.sim.timeout(0.8 * reg_ttl)

    def on_stop_publish(self, instance: ServiceInstance, params: Dict[str, Any]) -> None:
        if self._da_addr is not None:
            self.spawn(self._deregistrar(instance), f"deregister:{instance.name}")

    def _deregistrar(self, instance: ServiceInstance):
        yield from self._transact(
            self._da_addr,
            {"kind": "deregister", "type": instance.service_type, "name": instance.name},
        )

    def on_update_publication(self, instance: ServiceInstance, params: Dict[str, Any]) -> None:
        self.spawn(self._reregister_once(instance), f"reregister:{instance.name}")

    def _reregister_once(self, instance: ServiceInstance):
        yield from self._await_da()
        yield from self._transact(
            self._da_addr, {"kind": "register", "record": instance.as_wire()}
        )

    # ------------------------------------------------------------------
    # Searching (SU)
    # ------------------------------------------------------------------
    def on_start_search(self, service_type: str, params: Dict[str, Any]) -> None:
        for entry in self.cache.entries_for_type(service_type):
            self.discovered(entry.instance)
        self.spawn(self._searcher(service_type), f"search:{service_type}")

    def _searcher(self, service_type: str):
        poll = float(self.config.get("poll_interval", 2.0))
        yield from self._await_da()
        while service_type in self.searching:
            reply = yield from self._transact(
                self._da_addr, {"kind": "srv_rqst", "type": service_type}
            )
            for wire in reply.get("records", []):
                instance = ServiceInstance.from_wire(wire)
                if instance.provider_node != self.node.name:
                    self.discovered(instance)
            yield self.sim.timeout(poll)

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    def _on_datagram(self, payload: Any, packet: Packet, _node) -> None:
        if not isinstance(payload, dict):
            return
        kind = payload.get("kind")
        if kind == "da_advert":
            self._learn_da(payload)
        elif kind == "da_rqst" and self.role is Role.SCM:
            self._send_uc(packet.src_addr, self._da_advert_payload(payload.get("xid")))
        elif kind == "register" and self.role is Role.SCM:
            self._handle_register(payload, packet)
        elif kind == "deregister" and self.role is Role.SCM:
            self._handle_deregister(payload, packet)
        elif kind == "srv_rqst" and self.role is Role.SCM:
            self._handle_srv_rqst(payload, packet)
        elif kind in ("reg_ack", "srv_rply"):
            xid = payload.get("xid")
            ev = self._pending.get(xid)
            if ev is not None and not ev.triggered:
                ev.trigger(payload)

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def _send_mc(self, payload: Dict[str, Any], size: int = 100) -> None:
        payload = dict(payload)
        payload["from"] = self.node.name
        self.node.send_datagram(
            payload,
            dst_addr=self.group,
            dst_port=self.port,
            src_port=self.port,
            size=size,
            flow="experiment",
        )

    def _send_uc(self, dst_addr: str, payload: Dict[str, Any], size: int = 120) -> None:
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
