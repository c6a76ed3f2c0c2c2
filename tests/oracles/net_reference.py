"""Frozen pre-optimization data plane (equivalence oracle).

:class:`ReferenceMedium` is :class:`~repro.net.medium.WirelessMedium`
exactly as it shipped before the fast-path rewrite: an O(n) address scan,
per-entry deque eviction, a fresh ``utilization()`` per carry, nx
shortest-path ``next_hop`` lookups, a ``dataclasses.replace`` packet copy
per delivery and a closure per scheduled delivery.  Property tests drive it against the
production medium with identical seeds and assert byte-identical L3
Table-I digests and :class:`~repro.net.medium.MediumStats` counters
(``tests/property/test_sim_fastpath_equivalence.py``).

:class:`ReferenceInterface` and :class:`ReferenceNetNode` freeze the rest
of the pre-optimization data plane: the always-run filter chain, the
closure per delayed accept, and the copy-then-check TTL handling with a
``dataclasses.replace`` copy per forwarded hop, so the comparison is
against the code as it shipped, not against a reference medium grafted
onto the already-optimized node stack.

:func:`reference_route_row` is the sequential FIFO BFS that
:class:`~repro.net.topology.Topology`'s ring table and first-hop rule must
reproduce; ``tests/unit/net/test_topology.py`` checks every pair against it.
:func:`to_nx_graph` hands a :class:`~repro.net.topology.Topology` to
networkx with its node and neighbour order, so the reference medium's
routes stay networkx's own BFS.

Do not optimize this module — it is the oracle the fast path is measured
against.  It shares :class:`CongestionModel` and :class:`MediumStats`
with the production medium so counters compare directly, and it draws
from ``rng`` in exactly the historical order (per-neighbour uniform
jitter then loss attempts, neighbours in sorted-name order).
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace
from typing import Deque, Dict, List, Optional, Tuple, TYPE_CHECKING

import networkx as nx

from repro.net.interface import Direction, Interface
from repro.net.medium import CongestionModel, MediumStats
from repro.net.node import NetNode
from repro.net.packet import Packet, is_broadcast, is_multicast
from repro.net.topology import Topology

if TYPE_CHECKING:  # pragma: no cover
    import random

    from repro.sim.kernel import Simulator

__all__ = [
    "ReferenceMedium",
    "ReferenceInterface",
    "ReferenceNetNode",
    "reference_route_row",
    "to_nx_graph",
]


def to_nx_graph(topology: Topology) -> nx.Graph:
    """*topology* as an ``nx.Graph``: the same node order, the same
    neighbour order in every node's row (which ``add_edges_from`` alone
    cannot give a graph whose rows are not in its edge order), and each
    link's ``base_loss`` / ``base_delay`` as edge attributes."""
    graph = nx.Graph()
    graph.add_nodes_from(topology.adj)
    for a, neighbours in topology.adj.items():
        graph._adj[a].update(
            (b, {"base_loss": base_loss, "base_delay": base_delay})
            for b, (base_loss, base_delay) in neighbours.items()
        )
    return graph


class ReferenceMedium:
    """The shared radio channel, pre-optimization flavour."""

    def __init__(
        self,
        sim: "Simulator",
        topology: Topology,
        rng: "random.Random",
        congestion: Optional[CongestionModel] = None,
        mac_retries: int = 3,
        retry_backoff: float = 0.004,
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.rng = rng
        self.congestion = congestion or CongestionModel()
        self.mac_retries = int(mac_retries)
        self.retry_backoff = float(retry_backoff)
        self._nodes: Dict[str, "NetNode"] = {}
        self._load_window: Deque[Tuple[float, int]] = deque()
        self._load_bytes = 0
        self._graph = to_nx_graph(topology)
        self._paths: Dict[str, Dict[str, List[str]]] = {}
        self.stats = MediumStats()

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def attach(self, node: "NetNode") -> None:
        if node.name not in self._graph:
            raise KeyError(f"node {node.name!r} is not part of the topology")
        if node.name in self._nodes:
            raise ValueError(f"node {node.name!r} already attached")
        self._nodes[node.name] = node
        node.interface.medium = self

    def detach(self, node: "NetNode") -> bool:
        was_attached = self._nodes.pop(node.name, None) is not None
        node.interface.medium = None
        return was_attached

    def node(self, name: str) -> "NetNode":
        return self._nodes[name]

    def node_by_address(self, address: str) -> Optional["NetNode"]:
        for node in self._nodes.values():
            if node.address == address:
                return node
        return None

    # ------------------------------------------------------------------
    # Load accounting
    # ------------------------------------------------------------------
    def _account(self, size: int) -> None:
        now = self.sim.now
        self._load_window.append((now, size))
        self._load_bytes += size
        self._evict(now)

    def _evict(self, now: float) -> None:
        horizon = now - self.congestion.window
        window = self._load_window
        while window and window[0][0] < horizon:
            _, size = window.popleft()
            self._load_bytes -= size

    def utilization(self) -> float:
        self._evict(self.sim.now)
        offered_bps = (self._load_bytes * 8.0) / self.congestion.window
        return min(offered_bps / self.congestion.capacity_bps, 1.5)

    def reset_load(self) -> None:
        self._load_window.clear()
        self._load_bytes = 0

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def transmit(self, sender: "NetNode", packet: Packet, extra_delay: float = 0.0) -> None:
        self.stats.transmissions += 1
        self._account(packet.size)
        if is_broadcast(packet.dst_addr) or is_multicast(packet.dst_addr):
            for neighbor in self.topology.neighbors(sender.name):
                target = self._nodes.get(neighbor)
                if target is None:
                    continue
                self._carry(sender, target, packet, unicast=False, extra_delay=extra_delay)
            return

        dst_node = self.node_by_address(packet.dst_addr)
        if dst_node is None:
            self.stats.losses += 1
            return
        next_hop_name = self._nx_next_hop(sender.name, dst_node.name)
        if next_hop_name is None or next_hop_name not in self._nodes:
            self.stats.losses += 1
            return
        self._carry(
            sender, self._nodes[next_hop_name], packet, unicast=True, extra_delay=extra_delay
        )

    def _nx_next_hop(self, src: str, dst: str) -> Optional[str]:
        # The historical next-hop: second node of the nx shortest path.
        # Independent of the production route tables on purpose, so the
        # equivalence tests also pin the BFS route precompute against nx.
        if src == dst:
            return None
        paths = self._paths.get(src)
        if paths is None:
            # One source of ``nx.all_pairs_shortest_path``, built on demand.
            paths = nx.single_source_shortest_path(self._graph, src)
            self._paths[src] = paths
        path = paths.get(dst)
        return None if path is None else path[1]

    def _carry(
        self,
        sender: "NetNode",
        receiver: "NetNode",
        packet: Packet,
        unicast: bool,
        extra_delay: float,
    ) -> None:
        attrs = self._graph.edges[sender.name, receiver.name]
        utilization = self.utilization()
        p_loss = min(
            0.99,
            float(attrs.get("base_loss", 0.0)) + self.congestion.extra_loss(utilization),
        )
        attempts = 1 + (self.mac_retries if unicast else 0)
        delay = (
            extra_delay
            + float(attrs.get("base_delay", 0.001))
            + self.congestion.queue_delay(utilization)
            + self.rng.uniform(0.0, self.congestion.jitter)
        )
        delivered = False
        for attempt in range(attempts):
            if self.rng.random() >= p_loss:
                delivered = True
                if attempt:
                    self.stats.mac_retries += attempt
                    delay += attempt * self.retry_backoff
                break
        if not delivered:
            self.stats.losses += 1
            return
        self.stats.deliveries += 1
        # Each hop copies the packet so in-flight mutation on one node
        # cannot corrupt another's view; the uid survives for tracking.
        # Inlined historical ``Packet.copy``: ``dataclasses.replace`` plus
        # an independent options dict.  ``Packet.copy`` itself was
        # rewritten for the fast path, so calling it here would let the
        # optimization leak into the oracle's cost model.
        arriving = replace(packet)
        arriving.options = dict(packet.options)
        self.sim.call_later(delay, lambda: receiver.interface.deliver(arriving))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ReferenceMedium nodes={len(self._nodes)} "
            f"util={self.utilization():.2f}>"
        )


def reference_route_row(topology: Topology, src_id: int) -> Tuple[List[int], List[int]]:
    """``(next-hop ids, hop distances)`` from *src_id* by one sequential
    FIFO BFS over the interned adjacency (-1: unreachable or the source).

    A node's first hop is its parent's, or itself when the parent is the
    source — first discovery in ``graph.adj`` order, as
    ``nx.all_pairs_shortest_path`` assigns it.
    """
    topology.intern_ids()
    adj = topology._adj_ids
    n = len(adj)
    row = [-1] * n
    dist = [-1] * n
    dist[src_id] = 0
    queue = deque((src_id,))
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                row[w] = w if v == src_id else row[v]
                queue.append(w)
    return row, dist


def _replace_copy(packet: Packet, **overrides) -> Packet:
    """The historical ``Packet.copy``: ``dataclasses.replace`` plus an
    independent options dict.  ``Packet.copy`` itself was rewritten for
    the fast path, so the oracle re-implements the original here."""
    clone = replace(packet, **overrides)
    if "options" not in overrides:
        clone.options = dict(packet.options)
    return clone


class ReferenceInterface(Interface):
    """Pre-optimization interface data path.

    Differences from the production :class:`Interface` that matter to the
    cost model: the filter chain runs on every packet even when empty, a
    delayed accept schedules a closure, and counters/capture lookups are
    not hoisted.
    """

    def transmit(self, packet: Packet) -> bool:
        if self.medium is None:
            raise RuntimeError(f"interface {self.name} of {self.node.name} not attached")
        result = self._run_chain(packet, Direction.TX)
        if result.dropped:
            self.counters["tx_dropped"] += 1
            return False
        self.counters["tx_packets"] += 1
        self.counters["tx_bytes"] += result.packet.size
        self.node.capture.record(result.packet, Direction.TX)
        self.medium.transmit(self.node, result.packet, extra_delay=result.delay)
        return True

    def deliver(self, packet: Packet) -> None:
        result = self._run_chain(packet, Direction.RX)
        if result.dropped:
            self.counters["rx_dropped"] += 1
            return
        if result.delay > 0:
            self.node.sim.call_later(result.delay, lambda: self._accept(result.packet))
        else:
            self._accept(result.packet)

    def _accept(self, packet: Packet) -> None:
        self.counters["rx_packets"] += 1
        self.counters["rx_bytes"] += packet.size
        self.node.capture.record(packet, Direction.RX)
        self.node._receive(packet, self)


class ReferenceNetNode(NetNode):
    """Pre-optimization node receive path.

    Keeps the ``is_multicast``/``is_broadcast`` helper calls, the
    copy-then-check TTL handling (a forwarded copy is made before the
    hop budget is inspected) and the ``move_to_end`` dedup insert, all
    exactly as they shipped.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.interface = ReferenceInterface(self, "wlan0")

    def _receive(self, packet: Packet, _iface: Interface) -> None:
        if is_multicast(packet.dst_addr):
            self._receive_multicast(packet)
        elif is_broadcast(packet.dst_addr):
            self._deliver_local(packet)
        elif packet.dst_addr == self.address:
            self._deliver_local(packet)
        else:
            self._forward_unicast(packet)

    def _receive_multicast(self, packet: Packet) -> None:
        if packet.uid in self._seen:
            return  # duplicate from another flooding branch
        self._mark_seen(packet.uid)
        if packet.dst_addr in self._groups:
            self._deliver_local(packet)
        if self.flood_multicast and packet.ttl > 0:
            onward = _replace_copy(packet, ttl=packet.ttl - 1)
            if onward.ttl > 0:
                self.counters["flooded"] += 1
                self.interface.transmit(onward)

    def _forward_unicast(self, packet: Packet) -> None:
        onward = _replace_copy(packet, ttl=packet.ttl - 1)
        if onward.ttl <= 0:
            self.counters["ttl_expired"] += 1
            return
        self.counters["forwarded"] += 1
        self.interface.transmit(onward)

    def _mark_seen(self, uid: int) -> None:
        seen = self._seen
        seen[uid] = None
        seen.move_to_end(uid)
        while len(seen) > self._seen_cache_size:
            seen.popitem(last=False)
