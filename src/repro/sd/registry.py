"""Registry-based service discovery — the third architecture family.

An explicit-registry SDP (ROADMAP item 4, modelled on course-style
discovery services): providers **register** service records with TTLs at
a registry node and **renew** them before expiry; clients either
**query** the registry directly (polling, like SLP's directed
discovery) or **subscribe** through a broker relay that pushes record
changes (``dissemination: broker``, see :mod:`repro.sd.broker`);
multiple registry replicas stay convergent through periodic
anti-entropy **gossip** (:mod:`repro.sd.gossip`).

Everything is built on the Sec. V abstractions so the standard process
descriptions run unchanged:

* roles map onto the Dabrowski model — the registry replica *is* an SCM,
  providers are SMs, clients are SUs, plus the :attr:`Role.BROKER`
  extension;
* events use the existing vocabulary (``scm_started``, ``scm_found``,
  ``scm_registration_add/upd/del``, ``sd_service_add/del`` ...) with two
  additions (``sd_subscribed``, ``scm_gossip_sync``);
* record stores are :class:`~repro.sd.records.ServiceCache` instances.

Addressing is configuration-driven, not discovered: the platform
resolves the description's ``sd_registry_nodes`` / ``sd_broker_nodes``
special parameters into ``registry_addrs`` / ``broker_addrs`` agent
config.  Each provider, client and broker hashes its node name onto one
*home* replica, so load spreads deterministically; gossip makes any
active replica answer for records registered at any other.

The ``replicas`` parameter of ``sd_init`` (factor-wirable) limits the
*active* prefix of ``registry_addrs`` — a registry-replica-count factor
sweeps 1..N without changing the platform spec.
"""

from __future__ import annotations

import zlib
from typing import Any, Dict, List, Optional

from repro.net.packet import Packet
from repro.sd import model as M
from repro.sd.agent import SDAgent
from repro.sd.broker import BrokerRelay, SubscriberTable
from repro.sd.gossip import GossipReplicator
from repro.sd.model import Role, ServiceInstance

__all__ = ["RegistryAgent", "REGISTRY_PORT"]

#: UDP port of the registry family (registries, brokers and replies).
REGISTRY_PORT = 7447


class RegistryAgent(SDAgent):
    """Registry-family SD agent (see module docstring).

    Config keys (all optional except ``registry_addrs``)
    ----------------------------------------------------
    ``registry_addrs``
        Addresses of the registry replicas, in platform order.
    ``broker_addrs``
        Addresses of the broker relays (``dissemination: broker``).
    ``dissemination``
        ``"direct"`` (default): searching clients poll their home
        replica.  ``"broker"``: they subscribe at their home broker.
    ``registration_ttl`` (record TTL), ``renew_fraction`` (0.8),
    ``poll_interval`` (2.0 s), ``gossip_interval`` (2.0 s),
    ``reaper_interval`` (1.0 s), ``broker_resync_interval`` (10 s),
    ``unicast_retry_timeout`` (0.5 s), ``unicast_retry_cap`` (8 s).
    """

    protocol = "registry"
    port = REGISTRY_PORT
    reply_kinds = ("reg_ack", "q_rply", "sub_ack")

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: Registry-side push subscriptions (brokers, direct subscribers).
        self.subscribers = SubscriberTable()
        #: Broker-side relay state (BROKER role).
        self.relay: Optional[BrokerRelay] = None
        self.gossip: Optional[GossipReplicator] = None
        #: Active replica prefix, fixed at sd_init.
        self.active_addrs: List[str] = []
        self._server_known: bool = False

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------
    def _all_registry_addrs(self) -> List[str]:
        addrs = list(self.config.get("registry_addrs") or [])
        if not addrs:
            raise RuntimeError(
                f"{self.node.name}: registry protocol needs 'registry_addrs' "
                "(set sd_registry_nodes in the description's special params)"
            )
        return addrs

    def _home_addr(self, addrs: List[str]) -> str:
        """Deterministic home assignment: hash the node name onto one
        address; stable across runs, spreads load across replicas."""
        return addrs[zlib.crc32(self.node.name.encode()) % len(addrs)]

    @property
    def dissemination(self) -> str:
        return str(self.config.get("dissemination", "direct"))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def on_init(self, params: Dict[str, Any]) -> None:
        addrs = self._all_registry_addrs()
        replicas = int(params.get("replicas", 0) or 0)
        if replicas <= 0 or replicas > len(addrs):
            replicas = len(addrs)
        self.active_addrs = addrs[:replicas]
        self.listen()
        self._server_known = False

        if self.role is Role.SCM:
            if self.node.address in self.active_addrs:
                interval = float(self.config.get("reaper_interval", 1.0))
                reaper = self.expiry_loop(self.registrations, interval, self.registration_gone)
                self.spawn(reaper, "reg_reaper")
                peers = [a for a in self.active_addrs if a != self.node.address]
                if peers:
                    self.gossip = GossipReplicator(
                        self, peers, float(self.config.get("gossip_interval", 2.0))
                    )
                    self.spawn(self.gossip.run(), "gossip")
        elif self.role is Role.BROKER:
            relay = self.relay = BrokerRelay(self)
            self.spawn(
                relay.upstream_loop(self._home_addr(self.active_addrs)),
                "broker_upstream",
            )
            # An expired mirror record is a deletion for the clients.
            expiry = self.expiry_loop(relay.mirror, 1.0, lambda gone: relay.push(gone, "del", None))
            self.spawn(expiry, "broker_expiry")
        self.spawn(self.cache_housekeeping(), "cache")

    def on_exit(self) -> None:
        self.subscribers.clear()
        if self.relay is not None:
            self.relay.clear()
            self.relay = None
        self.gossip = None
        self.active_addrs = []
        self._server_known = False

    # ------------------------------------------------------------------
    # Registry server side (SCM role)
    # ------------------------------------------------------------------
    @property
    def is_active_replica(self) -> bool:
        return self.role is Role.SCM and self.node.address in self.active_addrs

    def registration_gone(self, instance: ServiceInstance) -> None:
        super().registration_gone(instance)
        self.subscribers.notify(self.send, instance, "del", None)

    def announce_registration(self, instance: ServiceInstance, op: str) -> None:
        """Emit the SCM registration event for a state change and push it
        to subscribers — shared by the register path and gossip merges."""
        event = (
            M.EVENT_SCM_REGISTRATION_ADD if op == "add" else M.EVENT_SCM_REGISTRATION_UPD
        )
        self.emit(event, params=instance.event_params())
        entry = self.registrations.get(instance.service_type, instance.name)
        remaining = entry.remaining(self.sim.now) if entry else instance.ttl
        self.subscribers.notify(self.send, instance, op, remaining)

    def announce_gossip_sync(self, peer: str, changes: int, extended: int) -> None:
        self.emit(M.EVENT_SCM_GOSSIP_SYNC, params=(peer, changes, extended))

    def announce_subscribed(self, server: str, records: int) -> None:
        self.emit(M.EVENT_SD_SUBSCRIBED, params=(server, records))

    def _handle_register(self, payload: Dict[str, Any], packet: Packet) -> None:
        instance = ServiceInstance.from_wire(payload["record"])
        is_new, is_update = self.registrations.add(instance, self.sim.now)
        if is_new:
            self.announce_registration(instance, "add")
        elif is_update:
            self.announce_registration(instance, "upd")
        else:
            # Renewal: no registration event, but push the extended
            # deadline so broker mirrors (and their clients) follow.
            entry = self.registrations.get(instance.service_type, instance.name)
            if entry is not None:
                self.subscribers.notify(
                    self.send, instance, "refresh",
                    entry.remaining(self.sim.now),
                )
        self._ack(packet, payload)

    def _handle_query(self, payload: Dict[str, Any], packet: Packet) -> None:
        now = self.sim.now
        entries = self.registrations.entries_for_type(str(payload.get("type", "")))
        records = [[e.instance.as_wire(), e.remaining(now)] for e in entries]
        self.send(
            packet.src_addr,
            {"kind": "q_rply", "xid": payload.get("xid"), "records": records},
            100 + 80 * len(records),
        )

    def _handle_sub(self, payload: Dict[str, Any], packet: Packet) -> None:
        service_type = str(payload.get("type", ""))
        self.subscribers.add(packet.src_addr, service_type)
        now = self.sim.now
        entries = (
            self.registrations.all_entries()
            if service_type == "*"
            else self.registrations.entries_for_type(service_type)
        )
        records = [[e.instance.as_wire(), e.remaining(now)] for e in entries]
        self.send(
            packet.src_addr,
            {"kind": "sub_ack", "xid": payload.get("xid"), "records": records},
            120 + 80 * len(records),
        )

    # ------------------------------------------------------------------
    # Provider side (SM role)
    # ------------------------------------------------------------------
    def on_start_publish(self, instance: ServiceInstance, params: Dict[str, Any]) -> None:
        self.spawn(self._registrar(instance.service_type), f"register:{instance.name}")

    def _registrar(self, service_type: str):
        home = self._home_addr(self.active_addrs)
        renew = float(self.config.get("renew_fraction", 0.8))
        epoch = self._epoch
        while True:
            instance = self.published.get(service_type)
            if instance is None:
                return
            wire = self.registration_wire(instance)
            ack = yield from self.transact(home, {"kind": "reg", "record": wire}, size=160)
            if epoch != self._epoch:
                return
            self._learn_server(ack)
            yield self.sim.timeout(renew * wire["ttl"])
            if epoch != self._epoch:
                return

    def on_stop_publish(self, instance: ServiceInstance, params: Dict[str, Any]) -> None:
        self.spawn(self._deregistrar(instance), f"deregister:{instance.name}")

    def _deregistrar(self, instance: ServiceInstance):
        yield from self.transact(
            self._home_addr(self.active_addrs),
            {"kind": "unreg", "type": instance.service_type, "name": instance.name},
        )

    def on_update_publication(self, instance: ServiceInstance, params: Dict[str, Any]) -> None:
        self.spawn(self._reregister_once(instance), f"reregister:{instance.name}")

    def _reregister_once(self, instance: ServiceInstance):
        wire = self.registration_wire(instance)
        yield from self.transact(
            self._home_addr(self.active_addrs), {"kind": "reg", "record": wire}, size=160
        )

    def _learn_server(self, ack: Dict[str, Any]) -> None:
        """First contact with the directory: the ``scm_found`` of this
        family (configured, then *confirmed* at runtime)."""
        if self._server_known:
            return
        self._server_known = True
        self.emit(M.EVENT_SCM_FOUND, params=(str(ack.get("from", "")),))

    # ------------------------------------------------------------------
    # Client side (SU role)
    # ------------------------------------------------------------------
    def on_start_search(self, service_type: str, params: Dict[str, Any]):
        if self.dissemination == "broker":
            broker_addrs = list(self.config.get("broker_addrs") or [])
            if not broker_addrs:
                raise RuntimeError(
                    f"{self.node.name}: dissemination 'broker' without "
                    "'broker_addrs' (set sd_broker_nodes in the description)"
                )
            return self.spawn(
                self._subscriber(service_type, self._home_addr(broker_addrs)),
                f"subscribe:{service_type}",
            )
        return self.spawn(self._poller(service_type), f"poll:{service_type}")

    def _poller(self, service_type: str):
        poll = float(self.config.get("poll_interval", 2.0))
        home = self._home_addr(self.active_addrs)
        epoch = self._epoch
        while service_type in self.searching:
            reply = yield from self.transact(
                home, {"kind": "query", "type": service_type}
            )
            if epoch != self._epoch:
                return
            self._learn_server(reply)
            self._learn_records(reply.get("records", []))
            yield self.sim.timeout(poll)
            if epoch != self._epoch:
                return

    def _subscriber(self, service_type: str, broker_addr: str):
        ack = yield from self.transact(
            broker_addr, {"kind": "sub", "type": service_type}
        )
        self._learn_server(ack)
        self.announce_subscribed(
            str(ack.get("from", "")), len(ack.get("records", []))
        )
        self._learn_records(ack.get("records", []))

    def _learn_records(self, records: List[List[Any]]) -> None:
        now = self.sim.now
        for wire, remaining in records:
            instance = ServiceInstance.from_wire(wire)
            if instance.provider_node == self.node.name:
                continue
            self.discovered_until(instance, now + float(remaining))

    def _handle_notify(self, payload: Dict[str, Any]) -> None:
        instance = ServiceInstance.from_wire(payload["record"])
        op = str(payload.get("op", ""))
        remaining = payload.get("remaining")
        if self.role is Role.BROKER:
            if self.relay is not None and self.relay.synced:
                self.relay.upstream_change(op, instance, remaining)
            return
        if instance.provider_node == self.node.name:
            return
        if op == "del":
            gone = self.cache.remove(instance.service_type, instance.name)
            if gone is not None:
                self.lost(gone)
            return
        if remaining is None:
            remaining = instance.ttl
        self.discovered_until(instance, self.sim.now + float(remaining))

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    def receive(self, kind: Any, payload: Dict[str, Any], packet: Packet) -> None:
        if kind in ("reg", "unreg", "query"):
            if not self.is_active_replica:
                return
            if kind == "reg":
                self._handle_register(payload, packet)
            elif kind == "unreg":
                self._handle_deregister(payload, packet)
            else:
                self._handle_query(payload, packet)
        elif kind == "sub":
            if self.role is Role.BROKER and self.relay is not None:
                reply = self.relay.handle_sub(payload, packet.src_addr)
                self.send(packet.src_addr, reply, 120 + 80 * len(reply["records"]))
            elif self.is_active_replica:
                self._handle_sub(payload, packet)
        elif kind == "gossip":
            if self.is_active_replica and self.gossip is not None:
                self.gossip.handle(payload)
        elif kind == "notify":
            self._handle_notify(payload)
