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
interned to dense int ids (graph node insertion order) and next hops come
from lazily built per-source BFS rows: ``_route_row(src_id)[dst_id]`` is
the int id of the neighbour *src* forwards to, ``-1`` if unreachable (or
``dst == src``).  The FIFO BFS propagates the first hop over ``graph.adj``
in insertion order, which is exactly the discovery order
``nx.all_pairs_shortest_path`` uses, so the chosen hop is the second node
of the nx shortest path (pinned by ``tests/unit/net/test_topology.py`` and,
against a medium that really asks nx, by
``tests/property/test_sim_fastpath_equivalence.py``).

One builder makes a row: scipy's C BFS over the interned adjacency.  The
sequential pure-Python BFS it replaced is the test oracle the scipy rows
are checked against (``tests/oracles/net_reference.py``).

networkx, scipy and numpy are imported inside the functions that build a
graph or a row, never at module load: a process that builds no topology
(a query, a coordinator, conditioning) loads none of them (DESIGN.md §3).

Every cache (id interning, route/distance rows, sorted neighbours, edge
parameters) invalidates together through
:meth:`Topology.invalidate_cache`, which also bumps :attr:`Topology.version`
so medium-local caches keyed on the topology can notice mutations.
"""

from __future__ import annotations

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
        self._sp_graph = None
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

    def _scipy_graph(self):
        """The interned adjacency as a scipy CSR matrix.

        Rows stay in graph insertion order — scipy's BFS iterates rows as
        stored, which is what keeps its predecessor tree identical to the
        sequential BFS.
        """
        if self._sp_graph is None:
            import numpy as np
            from scipy.sparse import csr_matrix

            self.intern_ids()
            adj = self._adj_ids
            n = len(adj)
            indptr = np.zeros(n + 1, dtype=np.int32)
            np.cumsum([len(a) for a in adj], out=indptr[1:])
            indices = np.fromiter(
                (w for a in adj for w in a),
                dtype=np.int32,
                count=int(indptr[-1]),
            )
            data = np.ones(len(indices), dtype=np.float64)
            self._sp_graph = csr_matrix((data, indices, indptr), shape=(n, n))
        return self._sp_graph

    def _route_row(self, src_id: int) -> List[int]:
        """Next-hop ids from ``src_id`` to every node (-1: none).

        One FIFO BFS over the interned adjacency; first-discovery hop
        assignment replicates ``nx.all_pairs_shortest_path`` exactly (see
        module docstring).  Also materializes the distance row consumed by
        :meth:`hop_rows`.  Built by :meth:`_route_row_scipy`; the
        sequential BFS oracle pins its rows
        (``tests/unit/net/test_topology.py``).
        """
        row = self._route_rows.get(src_id)
        if row is None:
            row, dist = self._route_row_scipy(src_id)
            # Distances first: readers test the route row, then read both.
            self._dist_rows[src_id] = dist
            self._route_rows[src_id] = row
        return row

    def _route_row_scipy(self, src_id: int) -> Tuple[List[int], List[int]]:
        """C BFS via ``scipy.sparse.csgraph``, first-discovery order intact.

        scipy's ``breadth_first_order`` is the same FIFO BFS over the same
        CSR rows, so its predecessor tree equals the sequential BFS's
        parent assignment node for node (verified against the oracle in
        ``tests/oracles/net_reference.py`` across every topology shape in
        ``tests/unit/net/test_topology.py``).  The next-hop row follows by
        walking the BFS order once: a node inherits its parent's first
        hop, or is its own first hop when the parent is the source.
        """
        from scipy.sparse.csgraph import breadth_first_order

        order, pred = breadth_first_order(
            self._scipy_graph(), src_id, directed=True, return_predecessors=True
        )
        n = len(self._names)
        row = [-1] * n
        dist = [-1] * n
        dist[src_id] = 0
        preds = pred.tolist()
        for v in order.tolist()[1:]:
            p = preds[v]
            dist[v] = dist[p] + 1
            row[v] = v if p == src_id else row[p]
        return row, dist

    def next_hop_id(self, src_id: int, dst_id: int) -> int:
        """Int-id flavour of :meth:`next_hop` for the medium hot loop."""
        if src_id == dst_id:
            return -1
        return self._route_row(src_id)[dst_id]

    def next_hop(self, src: str, dst: str) -> Optional[str]:
        """The neighbour *src* forwards to on the way to *dst*."""
        if src == dst:
            return None
        ids = self.intern_ids()
        src_id = ids.get(src)
        dst_id = ids.get(dst)
        if src_id is None or dst_id is None:
            return None
        hop_id = self._route_row(src_id)[dst_id]
        return None if hop_id < 0 else self._names[hop_id]

    def hop_rows(self, names: List[str]) -> List[List[Optional[int]]]:
        """Hop counts as rows: ``rows[i][j]`` is the hop distance from
        ``names[i]`` to ``names[j]`` (``None``: unknown or unreachable),
        read straight off the BFS distance rows."""
        ids = self.intern_ids()
        cols = [ids.get(name, -1) for name in names]
        rows: List[List[Optional[int]]] = []
        for src_id in cols:
            if src_id >= 0:
                self._route_row(src_id)
            dist = self._dist_rows.get(src_id)  # None for an unknown name
            rows.append([
                dist[dst_id] if dist and dst_id >= 0 and dist[dst_id] >= 0 else None
                for dst_id in cols
            ])
        return rows

    def freeze(self) -> "Topology":
        """Build every route/distance row, then refuse structural change and
        :meth:`invalidate_cache`: runs and threads only read it (DESIGN.md §8)."""
        import networkx as nx

        for src_id in self.intern_ids().values():
            self._route_row(src_id)
        nx.freeze(self.graph)
        for name, value in list(vars(self.graph).items()):
            if value is nx.classes.function.frozen:
                setattr(self.graph, name, _refuse_mutation)
        return self

    def invalidate_cache(self) -> None:
        """Forget every derived structure after mutating the graph.

        Interned ids, route/distance rows, sorted neighbour lists and
        edge parameters are one coherent unit — they all derive from the
        graph and must never go stale independently.
        ``version`` is bumped so medium-local caches rebuild too.
        """
        import networkx as nx

        if nx.is_frozen(self.graph):
            _refuse_mutation()
        self._ids = None
        self._names = None
        self._adj_ids = None
        self._sp_graph = None
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
        graph = nx.random_geometric_graph(n, radius, seed=rng_seed)
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
