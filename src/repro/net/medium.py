"""Shared wireless medium with load-dependent impairments.

This is the radio model of the emulated mesh testbed.  Design goals, in
order: (1) deterministic, (2) cheap, (3) qualitatively faithful to the
phenomena the paper's case study measures — multicast being less reliable
than unicast, loss and delay growing with offered load, and multi-hop
paths compounding per-hop loss.

Model
-----
* The medium is a single collision domain capacity-wise (one 802.11
  channel shared by the whole mesh): all transmissions contribute to one
  offered-load estimate, computed over a sliding window.
* Per-link transmission succeeds with probability ``1 - p`` where
  ``p = base_loss(link) + congestion_loss(utilization)``, clamped.
* **Unicast** frames get MAC-layer retransmissions (up to
  ``mac_retries``); each retry adds a backoff delay.  **Broadcast and
  multicast** frames are sent once, unacknowledged — exactly why multicast
  service discovery suffers first when the medium degrades.
* One-hop latency is ``base_delay(link) + queueing(utilization) + jitter``.

The medium only ever moves packets one hop.  Multi-hop unicast forwarding
and multicast flooding are the receiving *node's* job
(:meth:`repro.net.node.NetNode._receive`), mirroring the layering of a real
mesh routing daemon.

Fast path
---------
This module is the packet hot loop of 1000-node runs (DESIGN.md §14), so
the common path is allocation-free and every per-packet lookup is O(1):

* address → node and name → node resolution are dict hits, maintained in
  ``attach``/``detach``;
* next hops come from :meth:`Topology.next_hop_id` over interned int ids
  (read off the all-pairs hop-ring table, no nx path lists);
* multicast floods iterate a precomputed per-sender array of
  ``(receiver, base_loss, base_delay)`` rows in sorted-neighbour order —
  rebuilt only when membership changes (a topology never does);
* load accounting merges same-instant transmissions into one window slot,
  so eviction work is O(1) amortized per *instant*, not per packet, and
  utilization is computed once per transmit (it cannot change between the
  per-neighbour carries of a single transmission);
* delivered packets are shared copy-on-write: receive paths snapshot or
  copy before mutating (capture records immediately, forwarding goes
  through ``Packet.forwarded``), so the per-hop ``packet.copy()`` is gone
  and deliveries are scheduled as bound method + args, no closure.

The historical implementation is kept with the tests as an oracle
(``tests/oracles/net_reference.py``); property tests pin both to
byte-identical Table-I digests and :class:`MediumStats` at paper scale.
The RNG draw order (per-carry uniform jitter, then loss attempts,
neighbours in sorted-name order) is part of that contract — do not
reorder draws.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.net.packet import (
    BROADCAST_ADDR as _BCAST,
    MULTICAST_PREFIX as _MC_PREFIX,
    Packet,
)
from repro.net.topology import Topology

if TYPE_CHECKING:  # pragma: no cover
    import random

    from repro.net.node import NetNode
    from repro.sim.kernel import Simulator

__all__ = ["CongestionModel", "WirelessMedium", "MediumStats"]

logger = logging.getLogger(__name__)

#: Cache sentinel distinguishing "never resolved" from "resolved: no route".
_UNRESOLVED = object()

#: Extra delay per failed unicast MAC attempt, seconds.
RETRY_BACKOFF = 0.004


@dataclass
class CongestionModel:
    """Analytic mapping from offered load to extra loss and delay.

    Attributes
    ----------
    capacity_bps:
        Usable shared capacity of the channel.  The DES testbed's effective
        802.11 goodput in mesh mode is a few Mbit/s; default 2 Mbit/s.
    window:
        Sliding window (seconds) over which offered load is averaged.
    loss_coeff:
        Extra loss probability added at 100 % utilization (quadratic ramp).
    queue_delay_at_capacity:
        Queueing delay at 100 % utilization (linear ramp, capped).
    jitter:
        Uniform ±jitter/2 randomization of the one-hop delay.
    """

    capacity_bps: float = 2_000_000.0
    window: float = 1.0
    loss_coeff: float = 0.5
    queue_delay_at_capacity: float = 0.050
    jitter: float = 0.002

    def extra_loss(self, utilization: float) -> float:
        """Congestion-induced loss probability at *utilization*."""
        return self.loss_coeff * utilization * utilization

    def queue_delay(self, utilization: float) -> float:
        """Congestion-induced queueing delay at *utilization*."""
        return self.queue_delay_at_capacity * utilization


@dataclass(slots=True)
class MediumStats:
    """Aggregate medium counters for analysis and benchmarks."""

    transmissions: int = 0
    deliveries: int = 0
    losses: int = 0
    mac_retries: int = 0


class WirelessMedium:
    """The shared radio channel over a mesh :class:`Topology`.

    Parameters
    ----------
    sim:
        The simulation kernel.
    topology:
        Connectivity graph; node names must match attached node names.
    rng:
        A dedicated :class:`random.Random` stream (derive it from the
        experiment seed, e.g. ``rngs.stream("medium")``).
    congestion:
        Load model; ``None`` selects the defaults.
    mac_retries:
        Unicast MAC retransmission budget (802.11 default-ish: 3).

    Each failed unicast attempt adds :data:`RETRY_BACKOFF` seconds.
    """

    def __init__(
        self,
        sim: "Simulator",
        topology: Topology,
        rng: "random.Random",
        congestion: Optional[CongestionModel] = None,
        mac_retries: int = 3,
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.rng = rng
        self.congestion = congestion or CongestionModel()
        self.mac_retries = int(mac_retries)
        self._nodes: Dict[str, "NetNode"] = {}
        self._by_address: Dict[str, "NetNode"] = {}
        # Sliding load window of [time, bytes] slots; same-instant
        # transmissions merge into the tail slot (exact: eviction compares
        # the shared timestamp, so merging cannot change utilization).
        self._load_window: Deque[List] = deque()
        self._load_bytes = 0
        self.stats = MediumStats()
        # Congestion parameters memoized per congestion-object identity:
        # five dataclass attribute loads collapse into one tuple unpack on
        # the hot path.  Swapping in a new CongestionModel instance takes
        # effect immediately; the instances themselves are never mutated.
        self._cong_key: Optional[CongestionModel] = None
        self._cong_params: Tuple = ()
        # Caches derived from the topology and the membership; attach and
        # detach mark them stale, and the next transmit rebuilds them.
        self._stale = True
        self._name_ids: Dict[str, int] = {}
        self._nodes_by_id: List[Optional["NetNode"]] = []
        self._flood_rows: Dict[str, List[Tuple]] = {}
        self._dst_rows: Dict[str, Dict[str, Optional[Tuple]]] = {}

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def attach(self, node: "NetNode") -> None:
        """Register *node* on the medium; its name must exist in the topology."""
        if node.name not in self.topology.adj:
            raise KeyError(f"node {node.name!r} is not part of the topology")
        if node.name in self._nodes:
            raise ValueError(f"node {node.name!r} already attached")
        if node.address in self._by_address:
            raise ValueError(
                f"address {node.address!r} already attached "
                f"(node {self._by_address[node.address].name!r})"
            )
        self._nodes[node.name] = node
        self._by_address[node.address] = node
        node.interface.medium = self
        self._stale = True

    def detach(self, node: "NetNode") -> bool:
        """Unregister *node*; returns whether it was actually attached.

        Detaching a node that was never attached is almost always a
        topology/name typo in the caller, so the miss is surfaced instead
        of silently swallowed.
        """
        was_attached = self._nodes.pop(node.name, None) is not None
        if was_attached:
            self._by_address.pop(node.address, None)
        else:
            logger.warning("detach of unattached node %r ignored", node.name)
        node.interface.medium = None
        self._stale = True
        return was_attached

    def node_by_address(self, address: str) -> Optional["NetNode"]:
        return self._by_address.get(address)

    # ------------------------------------------------------------------
    # Load accounting
    # ------------------------------------------------------------------
    def _evict(self, now: float) -> None:
        horizon = now - self.congestion.window
        window = self._load_window
        while window and window[0][0] < horizon:
            self._load_bytes -= window.popleft()[1]

    def utilization(self) -> float:
        """Current offered load as a fraction of capacity, clamped to [0, 1.5]."""
        self._evict(self.sim.now)
        offered_bps = (self._load_bytes * 8.0) / self.congestion.window
        return min(offered_bps / self.congestion.capacity_bps, 1.5)

    def reset_load(self) -> None:
        """Zero the offered-load window (fresh run on a reused medium)."""
        self._load_window.clear()
        self._load_bytes = 0

    # ------------------------------------------------------------------
    # Derived caches
    # ------------------------------------------------------------------
    def _rebuild_caches(self) -> None:
        topology = self.topology
        ids = topology.intern_ids()
        self._name_ids = ids
        by_id: List[Optional["NetNode"]] = [None] * len(ids)
        for name, node in self._nodes.items():
            node_id = ids.get(name)
            if node_id is not None:
                by_id[node_id] = node
        self._nodes_by_id = by_id
        self._flood_rows = {}
        self._dst_rows = {}
        self._stale = False

    def _flood_row(self, sender_name: str) -> List[Tuple]:
        """Per-sender flood sweep: ``(deliver, base_loss, base_delay)`` per
        attached neighbour, in sorted-neighbour order.  The *bound*
        ``Interface.deliver`` is cached so a carry is pure arithmetic plus
        one scheduled call."""
        row = self._flood_rows.get(sender_name)
        if row is None:
            edge_params = self.topology.edge_params
            nodes = self._nodes
            row = []
            for neighbor in self.topology.neighbors(sender_name):
                target = nodes.get(neighbor)
                if target is None:
                    continue
                base_loss, base_delay = edge_params(sender_name, neighbor)
                row.append((target.interface.deliver, base_loss, base_delay))
            self._flood_rows[sender_name] = row
        return row

    def _resolve_hop(self, sender_name: str, dst_addr: str) -> Optional[Tuple]:
        """Resolve the unicast hop record for ``sender → dst_addr``:
        ``(deliver, base_loss, base_delay)`` of the next-hop receiver, or
        ``None`` when the address is unknown or unroutable.  Results are
        memoized per sender in ``_dst_rows``; any membership change clears
        them via ``_rebuild_caches``."""
        dst_node = self._by_address.get(dst_addr)
        if dst_node is None:
            return None
        name_ids = self._name_ids
        hop_id = self.topology.next_hop_id(
            name_ids[sender_name], name_ids[dst_node.name]
        )
        if hop_id < 0:
            return None
        receiver = self._nodes_by_id[hop_id]
        if receiver is None:
            return None
        base_loss, base_delay = self.topology.edge_params(sender_name, receiver.name)
        return (receiver.interface.deliver, base_loss, base_delay)

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def transmit(self, sender: "NetNode", packet: Packet, extra_delay: float = 0.0) -> None:
        """Move *packet* one hop from *sender*.

        Broadcast / multicast destinations reach every attached topology
        neighbour (independent loss draws, no MAC retries).  Unicast is
        carried to the next hop on the shortest path to ``dst_addr``; if
        the destination is unknown or unreachable the frame is dropped,
        which is what a mesh routing daemon with no route does.
        """
        stats = self.stats
        stats.transmissions += 1
        congestion = self.congestion
        if congestion is not self._cong_key:
            self._cong_key = congestion
            self._cong_params = (
                congestion.window,
                congestion.capacity_bps,
                congestion.loss_coeff,
                congestion.queue_delay_at_capacity,
                congestion.jitter,
            )
        c_window, c_capacity, c_loss_coeff, c_qdac, jitter = self._cong_params
        # Load accounting: same-instant slot merge + window eviction.
        now = self.sim._now
        window = self._load_window
        size = packet.size
        if window and window[-1][0] == now:
            window[-1][1] += size
        else:
            window.append([now, size])
        load = self._load_bytes + size
        horizon = now - c_window
        while window and window[0][0] < horizon:
            load -= window.popleft()[1]
        self._load_bytes = load
        if self._stale:
            self._rebuild_caches()

        # Utilization is identical for every carry of one transmission
        # (time and the load window only change between events), so it is
        # computed once.  The congestion curves are inlined verbatim from
        # CongestionModel.extra_loss / queue_delay — operation order and
        # association preserved exactly, so every float (and hence every
        # RNG comparison) matches the reference bit for bit.
        offered_bps = (load * 8.0) / c_window
        utilization = min(offered_bps / c_capacity, 1.5)
        congestion_loss = c_loss_coeff * utilization * utilization
        queue_delay = c_qdac * utilization
        # rand() * jitter is bit-identical to rng.uniform(0.0, jitter)
        # (uniform computes a + (b - a) * random()) and consumes exactly
        # one draw — the RNG stream stays equal to the reference medium's.
        rand = self.rng.random
        call_later = self.sim.call_later
        dst_addr = packet.dst_addr

        # Inlined is_broadcast/is_multicast: both special addresses start
        # with "2", so ordinary unicast skips the string tests entirely.
        if dst_addr[0] == "2" and (
            dst_addr.startswith(_MC_PREFIX) or dst_addr == _BCAST
        ):
            # Batched flood: one precomputed sweep over the attached
            # neighbours, one RNG jitter + loss draw per receiver, the
            # shared packet scheduled copy-on-write per delivery.
            for deliver, base_loss, base_delay in self._flood_row(sender.name):
                delay = extra_delay + base_delay + queue_delay + rand() * jitter
                p_loss = base_loss + congestion_loss
                if p_loss > 0.99:
                    p_loss = 0.99
                if rand() >= p_loss:
                    stats.deliveries += 1
                    call_later(delay, deliver, packet)
                else:
                    stats.losses += 1
            return

        # Per-sender destination rows collapse address lookup, id
        # interning and next-hop resolution into a single dict hit on the
        # steady path; a cached None is a resolved "no route" (also the
        # daemon's answer every time until the membership changes).
        sender_name = sender.name
        row = self._dst_rows.get(sender_name)
        if row is None:
            row = self._dst_rows[sender_name] = {}
        hop = row.get(dst_addr, _UNRESOLVED)
        if hop is _UNRESOLVED:
            hop = row[dst_addr] = self._resolve_hop(sender_name, dst_addr)
        if hop is None:
            stats.losses += 1
            return
        deliver, base_loss, base_delay = hop
        delay = extra_delay + base_delay + queue_delay + rand() * jitter
        p_loss = base_loss + congestion_loss
        if p_loss > 0.99:
            p_loss = 0.99
        # Unrolled attempt 0 — the common case needs no range object and
        # no retry bookkeeping.
        if rand() >= p_loss:
            stats.deliveries += 1
            call_later(delay, deliver, packet)
            return
        for attempt in range(1, 1 + self.mac_retries):
            if rand() >= p_loss:
                stats.mac_retries += attempt
                stats.deliveries += 1
                call_later(delay + attempt * RETRY_BACKOFF, deliver, packet)
                return
        stats.losses += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<WirelessMedium nodes={len(self._nodes)} "
            f"util={self.utilization():.2f}>"
        )
