"""Mesh topologies for the emulated testbed.

The DES testbed is a multi-hop wireless mesh of ~100 indoor nodes.  We
model connectivity as an undirected graph whose links carry link-quality
attributes:

``base_loss``
    Per-transmission loss probability of the link under zero load.
``base_delay``
    One-hop propagation + processing delay in seconds under zero load.

Builders produce common research shapes (grid, line, star, random
geometric).  The random geometric builder is the closest analogue of an
indoor mesh deployment: nodes scattered in a unit square, links where
distance < radius, quality degrading with distance.

Hop counts — the paper's "rudimentary description of the network topology
... measured as hop count between the participating nodes" (Sec. IV-B4) —
come straight from shortest path lengths of this graph.

The graph
---------
A :class:`Topology` owns one insertion-ordered adjacency,
``adj[name][neighbour] = (base_loss, base_delay)``, the same tuple under
both endpoints (DESIGN.md §14).  Node order sets the interned ids and
neighbour order sets the routes, so every builder leaves the order its
``nx.Graph`` predecessor left, which the pinned digests depend on: a
link is appended to both endpoints' rows, as ``Graph.add_edges_from``
appends it, and a graph drawn on integers and then named lists its links
in :meth:`Topology.edges` order — the ``edges()`` stream from which
``nx.relabel_nodes`` re-derives a copy.
Each node's neighbours are therefore its earlier neighbours in node
order, then its later ones in the order the generator added them
(``tests/unit/net/test_topology_equivalence.py`` checks every builder
against ``tests/oracles/topology_reference.py``).  Nothing changes a
topology once built: a rewired mesh is a new :class:`Topology`.

Route tables
------------
Node names are interned to dense int ids (node insertion order) and every
next hop comes from one all-pairs ring table: ``_rings()[v][d]`` is a
Python int bitset of the nodes exactly ``d`` hops from ``v``, built for
all nodes at once, one sweep of big-int ORs over the interned adjacency
per level.  The hop a FIFO BFS from *s* assigns to *w* is the first
neighbour ``a`` of *s*, in adjacency order, with ``dist(a, w) == dist(s,
w) - 1``; :meth:`Topology.next_hop_id` applies that rule on demand.  FIFO
BFS over the adjacency in insertion order is the discovery order
``nx.all_pairs_shortest_path`` uses, so the chosen hop is the second node
of the nx shortest path (pinned against the sequential BFS oracle
``tests/oracles/net_reference.py`` by ``tests/unit/net/test_topology.py``
and, against a medium that really asks nx, by
``tests/property/test_sim_fastpath_equivalence.py``).

The random geometric graph is drawn by a cell grid that reproduces
``nx.random_geometric_graph`` node for node and edge for edge
(``tests/unit/net/test_geometric_pin.py``), so no builder and no route
loads a graph or numeric library (DESIGN.md §3).
"""

from __future__ import annotations

import random
from functools import reduce
from itertools import combinations
from operator import or_
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

__all__ = [
    "Topology",
    "grid_topology",
    "line_topology",
    "star_topology",
    "full_mesh_topology",
    "random_geometric_topology",
    "from_edges",
]

#: Defaults representative of a healthy 802.11 mesh link.
DEFAULT_BASE_LOSS = 0.02
DEFAULT_BASE_DELAY = 0.002

#: ``(base_loss, base_delay)`` of one link.
Link = Tuple[float, float]
#: ``adj[name][neighbour]``: the link, in insertion order.
Adjacency = Dict[str, Dict[str, Link]]


class Topology:
    """A connectivity graph plus convenience queries.

    ``adj`` maps each node name to its neighbours and their links (an
    isolated node maps to ``{}``); it is read, never changed.  Node
    identifiers are the node *names* (strings); the emulator maps them to
    :class:`~repro.net.node.NetNode` objects at attach time.
    """

    def __init__(self, adj: Adjacency) -> None:
        if not adj:
            raise ValueError("topology must contain at least one node")
        self.adj = adj
        names = list(adj)
        ids = {name: i for i, name in enumerate(names)}
        self._names = names
        self._ids = ids
        self._adj_ids = [[ids[w] for w in adj[v]] for v in names]
        self._ring_table: Optional[List[List[int]]] = None
        self._route_rows: Dict[int, List[int]] = {}
        self._dist_rows: Dict[int, List[int]] = {}
        self._sorted_neighbors: Dict[str, List[str]] = {}

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def node_names(self) -> List[str]:
        return sorted(self.adj)

    def neighbors(self, name: str) -> List[str]:
        cached = self._sorted_neighbors.get(name)
        if cached is None:
            cached = sorted(self.adj[name])
            self._sorted_neighbors[name] = cached
        return cached

    def edge_params(self, a: str, b: str) -> Link:
        """``(base_loss, base_delay)`` of the link between *a* and *b*."""
        return self.adj[a][b]

    def edges(self) -> Iterator[Tuple[str, str, Link]]:
        """Each link once, ``(a, b, link)`` with *a* the endpoint earlier
        in node order: the order of ``nx.Graph.edges(data=True)``."""
        seen = set()
        for a, neighbours in self.adj.items():
            for b, link in neighbours.items():
                if b not in seen:
                    yield a, b, link
            seen.add(a)

    def is_connected(self) -> bool:
        """Whether every node reaches every other."""
        adj = self.adj
        start = next(iter(adj))
        seen = {start}
        stack = [start]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(adj)

    def relabel(self, names: Dict[str, str]) -> "Topology":
        """The part of this topology on the nodes *names* maps, renamed,
        in the order ``nx.relabel_nodes`` gives the subgraph: nodes in
        this topology's order, links in :meth:`edges` order."""
        return Topology(_adjacency(
            (names[v] for v in self.adj if v in names),
            ((names[a], names[b], link) for a, b, link in self.edges()
             if a in names and b in names),
        ))

    # ------------------------------------------------------------------
    # Interned ids and route tables (the packet hot path)
    # ------------------------------------------------------------------
    def intern_ids(self) -> Dict[str, int]:
        """Name → dense int id, in node insertion order."""
        return self._ids

    def node_name(self, node_id: int) -> str:
        """Inverse of :meth:`intern_ids`."""
        return self._names[node_id]

    def _rings(self) -> List[List[int]]:
        """``rings[v][d]``: bitset of the nodes exactly ``d`` hops from ``v``.

        Built for every node at once, one level per sweep: the graph is
        undirected, so ``F[d+1][v] = OR(F[d][u] for u in adj[v]) & ~seen[v]``.
        A node's list ends at its last non-empty ring.  Published whole:
        a thread that sees the table reads no half-built level.
        """
        rings = self._ring_table
        if rings is None:
            adj = self._adj_ids
            frontier = [1 << v for v in range(len(adj))]
            seen = list(frontier)
            rings = [[bit] for bit in frontier]
            active = range(len(adj))
            while active:
                level = [
                    reduce(or_, map(frontier.__getitem__, adj[v]), 0) & ~seen[v]
                    for v in active
                ]
                still = []
                for v, ring in zip(active, level):
                    frontier[v] = ring
                    if ring:
                        seen[v] |= ring
                        rings[v].append(ring)
                        still.append(v)
                active = still
            self._ring_table = rings
        return rings

    def _route_row(self, src_id: int) -> List[int]:
        """Next-hop ids from ``src_id`` to every node (-1: none).

        The first-hop rule of :meth:`next_hop_id`, applied a level at a
        time: each neighbour, in adjacency order, claims the nodes of the
        level it reaches one hop sooner.  Also stores the distance row.
        Only the benchmark's set-up reads these rows; routing and
        :meth:`hop_rows` read the ring table.
        """
        row = self._route_rows.get(src_id)
        if row is None:
            rings = self._rings()
            adj = self._adj_ids[src_id]
            own = rings[src_id]
            row = [-1] * len(rings)
            dist = [-1] * len(rings)
            dist[src_id] = 0
            for hops in range(1, len(own)):
                rest = own[hops]
                for a in adj:
                    ring_a = rings[a]
                    via = ring_a[hops - 1] & rest if hops <= len(ring_a) else 0
                    if via:
                        rest ^= via
                        for w in _bit_ids(via):
                            row[w] = a
                            dist[w] = hops
                        if not rest:
                            break
            # Distances first: readers test the route row, then read both.
            self._dist_rows[src_id] = dist
            self._route_rows[src_id] = row
        return row

    def next_hop_id(self, src_id: int, dst_id: int) -> int:
        """The neighbour id *src* forwards to on the way to *dst* (-1: none):
        the first neighbour, in adjacency order, one hop nearer to *dst*.

        Why that is FIFO BFS's choice: each BFS level is queued in
        non-decreasing order of its first hop's index in ``adj[src]``
        (level 1 is ``adj[src]`` itself; a node inherits its parent's first
        hop and parents leave the queue in that order), so a node's parent
        carries the smallest first-hop index among its shortest-path
        predecessors.
        """
        if src_id == dst_id:
            return -1
        rings = self._rings()
        bit = 1 << dst_id
        for hops, ring in enumerate(rings[src_id]):
            if ring & bit:
                break
        else:
            return -1
        if hops == 1:
            return dst_id  # a neighbour is its own first hop
        hops -= 1
        return next(
            a for a in self._adj_ids[src_id] if hops < len(rings[a]) and rings[a][hops] & bit
        )

    def next_hop(self, src: str, dst: str) -> Optional[str]:
        """The neighbour *src* forwards to on the way to *dst*."""
        if src == dst:
            return None
        ids = self.intern_ids()
        src_id = ids.get(src)
        dst_id = ids.get(dst)
        if src_id is None or dst_id is None:
            return None
        hop_id = self.next_hop_id(src_id, dst_id)
        return None if hop_id < 0 else self._names[hop_id]

    def hop_rows(self, names: List[str]) -> List[List[Optional[int]]]:
        """Hop counts as rows: ``rows[i][j]`` is the hop distance from
        ``names[i]`` to ``names[j]`` (``None``: unknown or unreachable),
        read off the ring table; nothing is stored."""
        ids = self.intern_ids()
        rings = self._rings()
        cols = [ids.get(name, -1) for name in names]
        rows: List[List[Optional[int]]] = []
        for src_id in cols:
            dist: List[Optional[int]] = [None] * len(rings)
            if src_id >= 0:
                for hops, ring in enumerate(rings[src_id]):
                    for w in _bit_ids(ring):
                        dist[w] = hops
            rows.append([dist[dst_id] if dst_id >= 0 else None for dst_id in cols])
        return rows

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        links = sum(1 for _link in self.edges())
        return f"<Topology {len(self.adj)} nodes, {links} links>"


def _bit_ids(mask: int) -> List[int]:
    """The positions of *mask*'s set bits, lowest first."""
    ids = []
    while mask:
        low = mask & -mask
        ids.append(low.bit_length() - 1)
        mask ^= low
    return ids




def _adjacency(nodes: Iterable[str], links: Iterable[Tuple[str, str, Link]]) -> Adjacency:
    """*nodes*, then *links*, in the order ``Graph.add_nodes_from`` and
    ``Graph.add_edges_from`` leave them: a new link is appended to both
    endpoints' rows (an unknown endpoint to the nodes, first *a*, then
    *b*); a repeated one keeps its place and takes the new tuple."""
    adj: Adjacency = {v: {} for v in nodes}
    for a, b, link in links:
        adj.setdefault(a, {})[b] = link
        adj.setdefault(b, {})[a] = link
    return adj


def _numbered(count: int, links: Iterable[Tuple[int, int]], link: Link, prefix: str) -> Topology:
    """Nodes ``<prefix>0`` … ``<prefix><count-1>`` joined by the integer
    *links*, each carrying *link*."""
    names = [f"{prefix}{i}" for i in range(count)]
    return Topology(_adjacency(names, ((names[u], names[v], link) for u, v in links)))


def grid_topology(
    rows: int,
    cols: int,
    base_loss: float = DEFAULT_BASE_LOSS,
    base_delay: float = DEFAULT_BASE_DELAY,
    prefix: str = "n",
) -> Topology:
    """A ``rows x cols`` lattice — the canonical office-floor mesh.  Node
    ``r * cols + c`` sits in row *r*, column *c*; its later neighbours are
    the one below, then the one to the right (``nx.grid_2d_graph`` adds
    every column link before any row link)."""
    count = rows * cols
    links = []
    for v in range(count):
        if v + cols < count:
            links.append((v, v + cols))
        if (v + 1) % cols:
            links.append((v, v + 1))
    return _numbered(count, links, (float(base_loss), float(base_delay)), prefix)


def line_topology(
    n: int,
    base_loss: float = DEFAULT_BASE_LOSS,
    base_delay: float = DEFAULT_BASE_DELAY,
    prefix: str = "n",
) -> Topology:
    """A chain of *n* nodes, the worst case for multi-hop flooding."""
    links = ((i, i + 1) for i in range(n - 1))
    return _numbered(n, links, (float(base_loss), float(base_delay)), prefix)


def star_topology(
    leaves: int,
    base_loss: float = DEFAULT_BASE_LOSS,
    base_delay: float = DEFAULT_BASE_DELAY,
    prefix: str = "n",
) -> Topology:
    """One hub (``<prefix>0``) with *leaves* one-hop neighbours."""
    links = ((0, leaf) for leaf in range(1, leaves + 1))
    return _numbered(leaves + 1, links, (float(base_loss), float(base_delay)), prefix)


def full_mesh_topology(
    n: int,
    base_loss: float = DEFAULT_BASE_LOSS,
    base_delay: float = DEFAULT_BASE_DELAY,
    prefix: str = "n",
) -> Topology:
    """Everyone hears everyone — a single collision domain."""
    return _numbered(n, combinations(range(n), 2), (float(base_loss), float(base_delay)), prefix)


def random_geometric_topology(
    n: int,
    radius: float,
    seed: int,
    base_loss: float = DEFAULT_BASE_LOSS,
    base_delay: float = DEFAULT_BASE_DELAY,
    prefix: str = "n",
    max_attempts: int = 64,
) -> Topology:
    """Nodes scattered uniformly in the unit square; links below *radius*.

    Link quality degrades with distance: ``base_loss`` scales up to 4x at
    the connectivity edge, mimicking weak long links in an indoor mesh.

    The graph is redrawn (deterministically, by incrementing the seed)
    until it is connected, so experiments never start on a partitioned
    mesh.
    """
    base_delay = float(base_delay)
    names = [f"{prefix}{i}" for i in range(n)]
    rng_seed = seed
    for _ in range(max_attempts):
        pos, pairs = _geometric_graph(n, radius, rng_seed)
        links = []
        for a, b in pairs:
            (xa, ya), (xb, yb) = pos[a], pos[b]
            dist = ((xa - xb) ** 2 + (ya - yb) ** 2) ** 0.5
            quality = min(dist / radius, 1.0)  # 0 = adjacent, 1 = fringe link
            loss = min(0.95, base_loss * (1.0 + 3.0 * quality**2))
            links.append((names[a], names[b], (loss, base_delay)))
        topology = Topology(_adjacency(names, links))
        if topology.is_connected():
            return topology
        rng_seed += 1
    raise ValueError(f"could not draw a connected geometric graph (n={n}, radius={radius})")


def _geometric_graph(
    n: int, radius: float, seed: int
) -> Tuple[List[List[float]], List[Tuple[int, int]]]:
    """``(positions, pairs)`` of ``nx.random_geometric_graph(n, radius,
    seed=seed)`` (nx 3.6), node for node and edge for edge, without
    the k-d tree that loads scipy.

    Positions are two ``random.Random(seed).random()`` draws per node, in
    node order; the pairs are the ``i < j`` with ``dx*dx + dy*dy <=
    radius*radius``, found through ``radius``-sized cells (a pair that close
    lies in the same or an adjacent cell) and sorted, the order in which
    nx adds the k-d tree's pairs.
    """
    rng = random.Random(seed)
    pos = [[rng.random(), rng.random()] for _ in range(n)]
    cells: Dict[Tuple[int, int], List[int]] = {}
    for v, (x, y) in enumerate(pos):
        cells.setdefault((int(x / radius), int(y / radius)), []).append(v)
    r2 = radius * radius
    pairs = []
    for (cx, cy), members in cells.items():
        # Each unordered pair of cells once: this one and four neighbours.
        near = [v for key in ((cx + 1, cy - 1), (cx + 1, cy), (cx + 1, cy + 1), (cx, cy + 1))
                for v in cells.get(key, ())]
        for i, u in enumerate(members):
            xu, yu = pos[u]
            for v in members[i + 1:] + near:
                xv, yv = pos[v]
                dx = xu - xv
                dy = yu - yv
                if dx * dx + dy * dy <= r2:
                    pairs.append((u, v) if u < v else (v, u))
    pairs.sort()
    return pos, pairs


def from_edges(
    edges: Iterable[Tuple[str, str]],
    base_loss: float = DEFAULT_BASE_LOSS,
    base_delay: float = DEFAULT_BASE_DELAY,
) -> Topology:
    """Build a topology from explicit named edges, in the order given."""
    link = (float(base_loss), float(base_delay))
    return Topology(_adjacency((), ((a, b, link) for a, b in edges)))
