"""Emulated network nodes: UDP-like sockets, forwarding, multicast flooding.

A :class:`NetNode` bundles everything a testbed node contributes to the
data plane:

* one wireless interface on the shared medium,
* a minimal datagram *stack*: ``bind(port, handler)`` / ``send_datagram``,
* **unicast forwarding** along shortest paths (the mesh routing daemon),
* **multicast flooding** with duplicate suppression and hop limits (how
  mesh networks carry mDNS-style link-local multicast beyond one hop),
* a local :class:`~repro.net.clock.LocalClock`, a
  :class:`~repro.net.capture.PacketCapture` and a
  :class:`~repro.net.tagger.PacketTagger`.

The *control plane* (NodeManager, RPC) deliberately lives elsewhere
(:mod:`repro.core.nodemanager`); the paper requires the management channel
to be physically separate from the experiment network (Sec. IV-A1).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Dict, Optional, Set, TYPE_CHECKING

from repro.net.capture import PacketCapture
from repro.net.clock import LocalClock
from repro.net.interface import Interface
from repro.net.packet import (
    BROADCAST_ADDR,
    DEFAULT_TTL,
    MULTICAST_PREFIX,
    Packet,
    is_multicast,
)
from repro.net.tagger import PacketTagger

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator

__all__ = ["NetNode", "PortInUse"]

#: Handler signature: ``handler(payload, packet, node)``.
DatagramHandler = Callable[[Any, Packet, "NetNode"], None]


class PortInUse(RuntimeError):
    """Raised when binding a port that already has a handler."""


class NetNode:
    """One node of the emulated testbed.

    Parameters
    ----------
    sim:
        Simulation kernel.
    name:
        Topology node name (also the host name in the platform mapping).
    address:
        Unicast network address, e.g. ``"10.0.0.7"``.
    clock:
        The node's (possibly skewed) local clock; defaults to a perfect one.
    seen_cache_size:
        Capacity of the duplicate-suppression LRU for flooded packets.

    Every node forwards unicast packets for others: all DES testbed nodes
    are mesh routers.
    """

    def __init__(
        self,
        sim: "Simulator",
        name: str,
        address: str,
        clock: Optional[LocalClock] = None,
        seen_cache_size: int = 4096,
    ) -> None:
        self.sim = sim
        self.name = name
        self.address = address
        self.clock = clock if clock is not None else LocalClock(sim)
        #: Whether this node re-floods multicast packets (with duplicate
        #: suppression); switch it off to confine multicast to one hop.
        self.flood_multicast = True
        self.interface = Interface(self, "wlan0")
        self.capture = PacketCapture(self)
        self.tagger = PacketTagger(name)
        self._bindings: Dict[int, DatagramHandler] = {}
        self._groups: Set[str] = set()
        self._seen: "OrderedDict[int, None]" = OrderedDict()
        self._seen_cache_size = seen_cache_size
        #: Stack-level counters for analysis.
        self.counters: Dict[str, int] = {
            "sent": 0,
            "delivered": 0,
            "forwarded": 0,
            "flooded": 0,
            "no_handler": 0,
            "ttl_expired": 0,
        }

    # ------------------------------------------------------------------
    # Socket API
    # ------------------------------------------------------------------
    def bind(self, port: int, handler: DatagramHandler) -> None:
        """Attach *handler* to *port*; raises :class:`PortInUse` if taken."""
        if port in self._bindings:
            raise PortInUse(f"{self.name}: port {port} already bound")
        self._bindings[port] = handler

    def unbind(self, port: int) -> None:
        self._bindings.pop(port, None)

    def join_group(self, group: str) -> None:
        """Start receiving datagrams addressed to multicast *group*."""
        if not is_multicast(group):
            raise ValueError(f"{group!r} is not a multicast group address")
        self._groups.add(group)

    def leave_group(self, group: str) -> None:
        self._groups.discard(group)

    def send_datagram(
        self,
        payload: Any,
        dst_addr: str,
        dst_port: int,
        src_port: int = 0,
        size: int = 128,
        ttl: int = DEFAULT_TTL,
        flow: str = "experiment",
        tag: bool = True,
    ) -> Packet:
        """Originate a datagram.  Returns the packet (even if tx failed).

        Tagging happens here — only packets the node *originates* enter its
        tagger sequence, matching the testbed tagger which hooks local
        OUTPUT, not forwarding.
        """
        packet = Packet(
            src_addr=self.address,
            dst_addr=dst_addr,
            src_port=src_port,
            dst_port=dst_port,
            payload=payload,
            size=size,
            ttl=ttl,
            flow=flow,
        )
        if tag:
            self.tagger.tag(packet)
        self.counters["sent"] += 1
        if is_multicast(dst_addr):
            # The originator must not re-flood its own packet back.
            self._mark_seen(packet.uid)
        self.interface.transmit(packet)
        return packet

    # ------------------------------------------------------------------
    # Receive path (called by the interface)
    # ------------------------------------------------------------------
    def _receive(self, packet: Packet, _iface: Interface) -> None:
        # Inlined is_multicast/is_broadcast (hot path): both special
        # address forms start with "2", so unicast to a normal address
        # skips the string tests.  Check order matches the historical one.
        dst = packet.dst_addr
        if dst[0] == "2":
            if dst.startswith(MULTICAST_PREFIX):
                self._receive_multicast(packet)
                return
            if dst == BROADCAST_ADDR:
                self._deliver_local(packet)
                return
        if dst == self.address:
            self._deliver_local(packet)
        else:
            self._forward_unicast(packet)

    def _receive_multicast(self, packet: Packet) -> None:
        if packet.uid in self._seen:
            return  # duplicate from another flooding branch
        self._mark_seen(packet.uid)
        if packet.dst_addr in self._groups:
            self._deliver_local(packet)
        # ttl > 1 == "this packet is alive and its forwarded copy will be
        # too"; checking before forwarded() skips the copy when the hop
        # budget is spent.
        if self.flood_multicast and packet.ttl > 1:
            self.counters["flooded"] += 1
            self.interface.transmit(packet.forwarded())

    def _forward_unicast(self, packet: Packet) -> None:
        if packet.ttl <= 1:  # the forwarded packet would be expired
            self.counters["ttl_expired"] += 1
            return
        self.counters["forwarded"] += 1
        # A unicast packet has exactly one receiver per hop, so at this
        # point this node is its only owner: nothing upstream holds a
        # reference that is still read (captures snapshot fields at record
        # time) and nothing downstream has seen it yet.  Decrementing the
        # hop budget in place therefore observes the same values everywhere
        # a per-hop copy would, without allocating one.  Multicast floods
        # DO share the packet object across receivers and must keep
        # copying (see _receive_multicast).
        packet.ttl -= 1
        self.interface.transmit(packet)

    def _deliver_local(self, packet: Packet) -> None:
        handler = self._bindings.get(packet.dst_port)
        if handler is None:
            self.counters["no_handler"] += 1
            return
        self.counters["delivered"] += 1
        handler(packet.payload, packet, self)

    def _mark_seen(self, uid: int) -> None:
        # Callers only mark unseen uids, so plain insertion already lands
        # the key at the LRU tail; no move_to_end needed.
        seen = self._seen
        seen[uid] = None
        while len(seen) > self._seen_cache_size:
            seen.popitem(last=False)

    # ------------------------------------------------------------------
    # Run lifecycle helpers (used by the NodeManager)
    # ------------------------------------------------------------------
    def reset_data_plane(self) -> None:
        """Run-preparation reset: clear caches, captures and counters.

        Sec. IV-C1: *"During preparation, the whole environment of the
        experiment process must be reset to a defined initial working
        condition ... network packets generated in previous runs must be
        dropped on all participants."*
        """
        self._seen.clear()
        self.capture.clear()
        for key in self.counters:
            self.counters[key] = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<NetNode {self.name} addr={self.address}>"
