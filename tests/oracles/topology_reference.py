"""The topology builders as they ran on networkx (equivalence oracle).

Frozen: each function returns the ``nx.Graph`` the builder of the same
name handed to ``Topology`` before ``Topology`` kept its own adjacency,
built by the same networkx calls — generator, ``relabel_nodes`` copies,
``remove_nodes_from`` and ``is_connected`` — with the edge attributes
``base_loss`` / ``base_delay``.  :func:`snapshot` is ``snapshot_topology``
as it read such a graph.  ``tests/unit/net/test_topology_equivalence.py``
requires node order, per-node adjacency order, link parameters and the
snapshot JSON of every production builder to equal these.

Do not optimize this module: it is what the production builders are
measured against.
"""

from __future__ import annotations

import math

import networkx as nx

from repro.net.topology import DEFAULT_BASE_DELAY, DEFAULT_BASE_LOSS

__all__ = [
    "grid_graph",
    "line_graph",
    "star_graph",
    "full_mesh_graph",
    "random_geometric_graph",
    "edges_graph",
    "frame_graph",
    "snapshot",
]


def _apply_defaults(graph, base_loss, base_delay):
    for _a, _b, attrs in graph.edges(data=True):
        attrs.setdefault("base_loss", base_loss)
        attrs.setdefault("base_delay", base_delay)
    return graph


def _named(graph, prefix):
    mapping = {n: f"{prefix}{i}" for i, n in enumerate(sorted(graph.nodes))}
    return nx.relabel_nodes(graph, mapping)


def grid_graph(rows, cols, base_loss=DEFAULT_BASE_LOSS, base_delay=DEFAULT_BASE_DELAY, prefix="n"):
    graph = nx.grid_2d_graph(rows, cols)
    graph = nx.relabel_nodes(graph, {rc: rc[0] * cols + rc[1] for rc in list(graph.nodes)})
    return _apply_defaults(_named(graph, prefix), base_loss, base_delay)


def line_graph(n, base_loss=DEFAULT_BASE_LOSS, base_delay=DEFAULT_BASE_DELAY, prefix="n"):
    return _apply_defaults(_named(nx.path_graph(n), prefix), base_loss, base_delay)


def star_graph(leaves, base_loss=DEFAULT_BASE_LOSS, base_delay=DEFAULT_BASE_DELAY, prefix="n"):
    return _apply_defaults(_named(nx.star_graph(leaves), prefix), base_loss, base_delay)


def full_mesh_graph(n, base_loss=DEFAULT_BASE_LOSS, base_delay=DEFAULT_BASE_DELAY, prefix="n"):
    return _apply_defaults(_named(nx.complete_graph(n), prefix), base_loss, base_delay)


def random_geometric_graph(
    n, radius, seed, base_loss=DEFAULT_BASE_LOSS, base_delay=DEFAULT_BASE_DELAY, prefix="n"
):
    """Redrawn with the next seed until connected, as the builder does."""
    rng_seed = seed
    while True:
        graph = nx.random_geometric_graph(n, radius, seed=rng_seed)
        if nx.is_connected(graph):
            break
        rng_seed += 1
    pos = nx.get_node_attributes(graph, "pos")
    for a, b, attrs in graph.edges(data=True):
        (xa, ya), (xb, yb) = pos[a], pos[b]
        dist = ((xa - xb) ** 2 + (ya - yb) ** 2) ** 0.5
        quality = min(dist / radius, 1.0)
        attrs["base_loss"] = min(0.95, base_loss * (1.0 + 3.0 * quality**2))
        attrs["base_delay"] = base_delay
    return _named(graph, prefix)


def edges_graph(edges, base_loss=DEFAULT_BASE_LOSS, base_delay=DEFAULT_BASE_DELAY):
    """``from_edges``."""
    graph = nx.Graph()
    graph.add_edges_from(edges)
    return _apply_defaults(graph, base_loss, base_delay)


def frame_graph(node_ids, spec, mesh_radius, base_loss, seed):
    """``repro.platforms.frame._build_topology``: a generated shape, cut to
    the platform's size and relabelled to its sorted node ids."""
    n = len(node_ids)
    if spec == "grid":
        cols = max(1, math.ceil(math.sqrt(n)))
        graph = grid_graph(math.ceil(n / cols), cols, base_loss=base_loss)
    elif spec == "line":
        graph = line_graph(n, base_loss=base_loss)
    elif spec == "full":
        graph = full_mesh_graph(n, base_loss=base_loss)
    else:
        graph = random_geometric_graph(n, mesh_radius, seed, base_loss=base_loss)
    generated = sorted(graph.nodes, key=lambda s: int(s.lstrip("n")))
    graph.remove_nodes_from(generated[n:])
    graph = nx.relabel_nodes(graph, dict(zip(generated, sorted(node_ids))))
    assert nx.is_connected(graph)
    return graph


def snapshot(graph):
    """``snapshot_topology`` of a graph-backed topology."""
    edges = []
    for a, b, attrs in sorted(graph.edges(data=True)):
        edges.append(
            {
                "a": a,
                "b": b,
                "base_loss": float(attrs.get("base_loss", 0.0)),
                "base_delay": float(attrs.get("base_delay", 0.0)),
            }
        )
    return {"nodes": sorted(graph.nodes), "edges": edges}
