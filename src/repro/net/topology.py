"""Mesh topologies for the emulated testbed.

The DES testbed is a multi-hop wireless mesh of ~100 indoor nodes.  We
model connectivity as an undirected graph whose edges carry link-quality
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

Route tables
------------
Routing never builds nx path lists (DESIGN.md §14).  Node names are
interned to dense int ids (graph node insertion order) and every next hop
comes from one all-pairs ring table: ``_rings()[v][d]`` is a Python int
bitset of the nodes exactly ``d`` hops from ``v``, built for all nodes at
once, one sweep of big-int ORs over the interned adjacency per level.
The hop a FIFO BFS from *s* assigns to *w* is the first neighbour ``a``
of *s*, in ``graph.adj`` order, with ``dist(a, w) == dist(s, w) - 1``;
:meth:`Topology.next_hop_id` applies that rule on demand.  FIFO BFS over
``graph.adj`` in insertion order is the discovery order
``nx.all_pairs_shortest_path`` uses, so the chosen hop is the second node
of the nx shortest path (pinned against the sequential BFS oracle
``tests/oracles/net_reference.py`` by ``tests/unit/net/test_topology.py``
and, against a medium that really asks nx, by
``tests/property/test_sim_fastpath_equivalence.py``).

The random geometric graph is drawn by a cell grid that reproduces
``nx.random_geometric_graph`` node for node and edge for edge
(``tests/unit/net/test_geometric_pin.py``), so no builder and no route
loads numpy or scipy.  networkx is imported inside the functions that
build or freeze a graph, never at module load: a process that builds no
topology (a query, a coordinator, conditioning) loads none of the numeric
stack (DESIGN.md §3).

Every cache (id interning, the ring table, route/distance rows, sorted
neighbours, edge parameters) invalidates together through
:meth:`Topology.invalidate_cache`, which also bumps :attr:`Topology.version`
so medium-local caches keyed on the topology can notice mutations.
"""

from __future__ import annotations

import random
from functools import reduce
from operator import or_
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover
    import networkx as nx

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

#: Per-hop defaults applied when an edge lacks explicit attributes; these
#: mirror the historical ``attrs.get(...)`` fallbacks in the medium's
#: carry path and must not drift from them.
FALLBACK_BASE_LOSS = 0.0
FALLBACK_BASE_DELAY = 0.001


class Topology:
    """A connectivity graph plus convenience queries.

    Node identifiers are the node *names* (strings); the emulator maps them
    to :class:`~repro.net.node.NetNode` objects at attach time.
    """

    def __init__(self, graph: nx.Graph) -> None:
        if graph.number_of_nodes() == 0:
            raise ValueError("topology must contain at least one node")
        self.graph = graph
        #: Bumped by :meth:`invalidate_cache`; consumers (the wireless
        #: medium) key their own derived caches on this counter.
        self.version = 0
        self._ids: Optional[Dict[str, int]] = None
        self._names: Optional[List[str]] = None
        self._adj_ids: Optional[List[List[int]]] = None
        self._ring_table: Optional[List[List[int]]] = None
        self._route_rows: Dict[int, List[int]] = {}
        self._dist_rows: Dict[int, List[int]] = {}
        self._sorted_neighbors: Dict[str, List[str]] = {}
        self._edge_params: Dict[Tuple[str, str], Tuple[float, float]] = {}

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def node_names(self) -> List[str]:
        return sorted(self.graph.nodes)

    def neighbors(self, name: str) -> List[str]:
        cached = self._sorted_neighbors.get(name)
        if cached is None:
            cached = sorted(self.graph.neighbors(name))
            self._sorted_neighbors[name] = cached
        return cached

    def edge_params(self, a: str, b: str) -> Tuple[float, float]:
        """``(base_loss, base_delay)`` of a link, with carry-path defaults.

        Cached floats so the medium hot loop skips the nx attribute-dict
        machinery per packet.
        """
        key = (a, b)
        params = self._edge_params.get(key)
        if params is None:
            attrs = self.graph.edges[a, b]
            params = (
                float(attrs.get("base_loss", FALLBACK_BASE_LOSS)),
                float(attrs.get("base_delay", FALLBACK_BASE_DELAY)),
            )
            self._edge_params[key] = params
        return params

    # ------------------------------------------------------------------
    # Interned ids and route tables (the packet hot path)
    # ------------------------------------------------------------------
    def intern_ids(self) -> Dict[str, int]:
        """Name → dense int id, in graph node insertion order."""
        ids = self._ids
        if ids is None:
            names = list(self.graph.nodes)
            ids = {name: i for i, name in enumerate(names)}
            adj = self.graph.adj
            self._names = names
            self._adj_ids = [[ids[w] for w in adj[v]] for v in names]
            # Published last: a thread that sees the ids sees the rest too.
            self._ids = ids
        return ids

    def node_name(self, node_id: int) -> str:
        """Inverse of :meth:`intern_ids`."""
        self.intern_ids()
        return self._names[node_id]

    def _rings(self) -> List[List[int]]:
        """``rings[v][d]``: bitset of the nodes exactly ``d`` hops from ``v``.

        Built for every node at once, one level per sweep: the graph is
        undirected, so ``F[d+1][v] = OR(F[d][u] for u in adj[v]) & ~seen[v]``.
        A node's list ends at its last non-empty ring.  Published whole,
        after the interned adjacency it indexes: a thread that sees the
        table reads no half-built level.
        """
        rings = self._ring_table
        if rings is None:
            self.intern_ids()
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

    def freeze(self) -> "Topology":
        """Build the ring table, then refuse structural change and
        :meth:`invalidate_cache`: runs and threads only read it (DESIGN.md §8)."""
        import networkx as nx

        self._rings()
        nx.freeze(self.graph)
        for name, value in list(vars(self.graph).items()):
            if value is nx.classes.function.frozen:
                setattr(self.graph, name, _refuse_mutation)
        return self

    def invalidate_cache(self) -> None:
        """Forget every derived structure after mutating the graph.

        Interned ids, the ring table, route/distance rows, sorted neighbour
        lists and edge parameters are one coherent unit — they all derive from the
        graph and must never go stale independently.
        ``version`` is bumped so medium-local caches rebuild too.
        """
        import networkx as nx

        if nx.is_frozen(self.graph):
            _refuse_mutation()
        self._ids = None
        self._names = None
        self._adj_ids = None
        self._ring_table = None
        self._route_rows.clear()
        self._dist_rows.clear()
        self._sorted_neighbors.clear()
        self._edge_params.clear()
        self.version += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Topology {self.graph.number_of_nodes()} nodes, "
            f"{self.graph.number_of_edges()} links>"
        )


def _bit_ids(mask: int) -> List[int]:
    """The positions of *mask*'s set bits, lowest first."""
    ids = []
    while mask:
        low = mask & -mask
        ids.append(low.bit_length() - 1)
        mask ^= low
    return ids


def _refuse_mutation(*_args, **_kwargs):
    import networkx as nx

    raise nx.NetworkXError("frozen, shared between runs: copy it first: Topology(t.graph.copy())")


def _apply_defaults(graph: nx.Graph, base_loss: float, base_delay: float) -> nx.Graph:
    for _a, _b, attrs in graph.edges(data=True):
        attrs.setdefault("base_loss", base_loss)
        attrs.setdefault("base_delay", base_delay)
    return graph


def _named(graph: nx.Graph, prefix: str) -> nx.Graph:
    """Relabel integer node ids to stable string names."""
    import networkx as nx

    mapping = {n: f"{prefix}{i}" for i, n in enumerate(sorted(graph.nodes))}
    return nx.relabel_nodes(graph, mapping)


def grid_topology(
    rows: int,
    cols: int,
    base_loss: float = DEFAULT_BASE_LOSS,
    base_delay: float = DEFAULT_BASE_DELAY,
    prefix: str = "n",
) -> Topology:
    """A ``rows x cols`` lattice — the canonical office-floor mesh."""
    import networkx as nx

    graph = nx.grid_2d_graph(rows, cols)
    graph = nx.relabel_nodes(
        graph, {rc: rc[0] * cols + rc[1] for rc in list(graph.nodes)}
    )
    graph = _named(graph, prefix)
    return Topology(_apply_defaults(graph, base_loss, base_delay))


def line_topology(
    n: int,
    base_loss: float = DEFAULT_BASE_LOSS,
    base_delay: float = DEFAULT_BASE_DELAY,
    prefix: str = "n",
) -> Topology:
    """A chain of *n* nodes, the worst case for multi-hop flooding."""
    import networkx as nx

    graph = _named(nx.path_graph(n), prefix)
    return Topology(_apply_defaults(graph, base_loss, base_delay))


def star_topology(
    leaves: int,
    base_loss: float = DEFAULT_BASE_LOSS,
    base_delay: float = DEFAULT_BASE_DELAY,
    prefix: str = "n",
) -> Topology:
    """One hub (``<prefix>0``) with *leaves* one-hop neighbours."""
    import networkx as nx

    graph = _named(nx.star_graph(leaves), prefix)
    return Topology(_apply_defaults(graph, base_loss, base_delay))


def full_mesh_topology(
    n: int,
    base_loss: float = DEFAULT_BASE_LOSS,
    base_delay: float = DEFAULT_BASE_DELAY,
    prefix: str = "n",
) -> Topology:
    """Everyone hears everyone — a single collision domain."""
    import networkx as nx

    graph = _named(nx.complete_graph(n), prefix)
    return Topology(_apply_defaults(graph, base_loss, base_delay))


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
    import networkx as nx

    rng_seed = seed
    for _ in range(max_attempts):
        graph = _geometric_graph(n, radius, rng_seed)
        if nx.is_connected(graph):
            break
        rng_seed += 1
    else:
        raise ValueError(
            f"could not draw a connected geometric graph (n={n}, radius={radius})"
        )
    pos = nx.get_node_attributes(graph, "pos")
    for a, b, attrs in graph.edges(data=True):
        (xa, ya), (xb, yb) = pos[a], pos[b]
        dist = ((xa - xb) ** 2 + (ya - yb) ** 2) ** 0.5
        quality = min(dist / radius, 1.0)  # 0 = adjacent, 1 = fringe link
        attrs["base_loss"] = min(0.95, base_loss * (1.0 + 3.0 * quality**2))
        attrs["base_delay"] = base_delay
    graph = _named(graph, prefix)
    return Topology(graph)


def _geometric_graph(n: int, radius: float, seed: int) -> nx.Graph:
    """``nx.random_geometric_graph(n, radius, seed=seed)`` (networkx 3.6), node
    for node and edge for edge, without the k-d tree that loads scipy.

    Positions are two ``random.Random(seed).random()`` draws per node, in
    node order; the edges are the pairs ``i < j`` with ``dx*dx + dy*dy <=
    radius*radius``, found through ``radius``-sized cells (a pair that close
    lies in the same or an adjacent cell) and added sorted, as networkx adds
    the k-d tree's pairs.
    """
    import networkx as nx

    rng = random.Random(seed)
    pos = [[rng.random(), rng.random()] for _ in range(n)]
    graph = nx.empty_graph(n)
    nx.set_node_attributes(graph, dict(enumerate(pos)), "pos")
    cells: Dict[Tuple[int, int], List[int]] = {}
    for v, (x, y) in enumerate(pos):
        cells.setdefault((int(x / radius), int(y / radius)), []).append(v)
    r2 = radius * radius
    edges = []
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
                    edges.append((u, v) if u < v else (v, u))
    edges.sort()
    graph.add_edges_from(edges)
    return graph


def from_edges(
    edges: Iterable[Tuple[str, str]],
    base_loss: float = DEFAULT_BASE_LOSS,
    base_delay: float = DEFAULT_BASE_DELAY,
) -> Topology:
    """Build a topology from explicit named edges."""
    import networkx as nx

    graph = nx.Graph()
    graph.add_edges_from(edges)
    return Topology(_apply_defaults(graph, base_loss, base_delay))
