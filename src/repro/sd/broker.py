"""Broker-relay dissemination for the registry family.

In ``broker`` dissemination mode clients do not poll the registry:
they subscribe at a broker, receive a snapshot of the matching records,
and from then on get push notifications.  The broker itself holds a
mirror of the registry state, fed by one upstream wildcard subscription
(service type ``"*"``) against its home registry replica.

Two pieces live here:

:class:`SubscriberTable`
    The subscription bookkeeping + push fan-out shared by registry
    replicas (which push to brokers — and to any client that subscribes
    directly) and by brokers (which push to clients).

:class:`BrokerRelay`
    The broker-side component: upstream subscription with retry, the
    mirrored record cache (expired by the agent's
    :meth:`~repro.sd.agent.SDAgent.expiry_loop`), and client-facing
    snapshot plus re-publication of upstream changes.

Pushes are deliberately unacknowledged datagrams: a lost notification is
repaired by the record's TTL (direct-mode polling has the same property
through re-query), keeping the push path cheap under population-scale
fan-out.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.sd.model import ServiceInstance
from repro.sd.records import ServiceCache

if TYPE_CHECKING:  # pragma: no cover
    from repro.sd.registry import RegistryAgent

__all__ = ["SubscriberTable", "BrokerRelay"]

#: Wildcard service type of broker upstream subscriptions.
WILDCARD_TYPE = "*"


class SubscriberTable:
    """``(subscriber_addr, service_type)`` registrations with fan-out."""

    def __init__(self) -> None:
        self._subs: Dict[Tuple[str, str], None] = {}

    def __len__(self) -> int:
        return len(self._subs)

    def add(self, addr: str, service_type: str) -> bool:
        """Register a subscriber; returns ``True`` when new."""
        key = (str(addr), str(service_type))
        if key in self._subs:
            return False
        self._subs[key] = None
        return True

    def remove(self, addr: str, service_type: str) -> None:
        self._subs.pop((str(addr), str(service_type)), None)

    def clear(self) -> None:
        self._subs.clear()

    def targets_for(self, service_type: str) -> List[str]:
        """Subscriber addresses interested in *service_type*, sorted for a
        deterministic send order."""
        return sorted(
            addr
            for (addr, stype) in self._subs
            if stype == service_type or stype == WILDCARD_TYPE
        )

    def notify(
        self,
        send: Any,
        instance: ServiceInstance,
        op: str,
        remaining: Optional[float],
    ) -> int:
        """Push one record change to every matching subscriber.

        ``send(addr, payload, size)`` performs the transmission; returns
        the number of notifications sent.
        """
        payload = {
            "kind": "notify",
            "op": op,
            "record": instance.as_wire(),
            "remaining": remaining,
        }
        targets = self.targets_for(instance.service_type)
        for addr in targets:
            send(addr, dict(payload), 160)
        return len(targets)


class BrokerRelay:
    """The relay state machine of one broker node."""

    def __init__(self, agent: "RegistryAgent") -> None:
        self.agent = agent
        #: Mirror of the upstream registry state (expiry-true copies).
        self.mirror = ServiceCache()
        #: Client subscriptions served by this broker.
        self.subscribers = SubscriberTable()
        self.synced = False
        self.notifies_relayed = 0

    # ------------------------------------------------------------------
    # Upstream side (broker -> registry)
    # ------------------------------------------------------------------
    def upstream_loop(self, registry_addr: str):
        """Generator: subscribe upstream, then keep the mirror honest.

        The subscription itself is a reliable transaction (retried with
        back-off); after the snapshot lands the loop degrades into a slow
        re-sync poll, repairing any notifications lost on the push path.
        """
        agent = self.agent
        epoch = agent._epoch
        resync = float(agent.config.get("broker_resync_interval", 10.0))
        ack = yield from agent.transact(
            registry_addr, {"kind": "sub", "type": WILDCARD_TYPE}
        )
        if epoch != agent._epoch:
            return
        self.apply_snapshot(ack.get("records", []))
        self.synced = True
        agent.announce_subscribed(str(ack.get("from", "")), len(self.mirror))
        while True:
            yield agent.sim.timeout(resync)
            if epoch != agent._epoch:
                return
            ack = yield from agent.transact(
                registry_addr, {"kind": "sub", "type": WILDCARD_TYPE}
            )
            if epoch != agent._epoch:
                return
            self.apply_snapshot(ack.get("records", []))

    def apply_snapshot(self, records: List[List[Any]]) -> None:
        """Merge a ``[record, remaining]`` snapshot into the mirror,
        re-publishing whatever is new to the client side."""
        for wire, remaining in records:
            instance = ServiceInstance.from_wire(wire)
            self.upstream_change("add", instance, float(remaining))

    def upstream_change(
        self, op: str, instance: ServiceInstance, remaining: Optional[float]
    ) -> None:
        """One record change arriving from the registry."""
        now = self.agent.sim.now
        if op == "del":
            gone = self.mirror.remove(instance.service_type, instance.name)
            if gone is not None:
                self.push(instance, "del", None)
            return
        if remaining is None:
            remaining = instance.ttl
        is_new, is_update = self.mirror.refresh(instance, now + remaining, now)
        if is_new:
            self.push(instance, "add", remaining)
        elif is_update:
            self.push(instance, "upd", remaining)
        else:
            # Renewal: clients must extend their cached deadline too,
            # otherwise records expire client-side while still alive.
            self.push(instance, "refresh", remaining)

    # ------------------------------------------------------------------
    # Client side (broker -> clients)
    # ------------------------------------------------------------------
    def handle_sub(self, payload: Dict[str, Any], src_addr: str) -> Dict[str, Any]:
        """A client subscription: register + snapshot reply payload."""
        service_type = str(payload.get("type", ""))
        self.subscribers.add(src_addr, service_type)
        now = self.agent.sim.now
        entries = (
            self.mirror.all_entries()
            if service_type == WILDCARD_TYPE
            else self.mirror.entries_for_type(service_type)
        )
        return {
            "kind": "sub_ack",
            "xid": payload.get("xid"),
            "records": [[e.instance.as_wire(), e.remaining(now)] for e in entries],
        }

    def push(
        self, instance: ServiceInstance, op: str, remaining: Optional[float]
    ) -> None:
        self.notifies_relayed += self.subscribers.notify(
            self.agent.send, instance, op, remaining
        )

    def clear(self) -> None:
        self.mirror.clear()
        self.subscribers.clear()
        self.synced = False
