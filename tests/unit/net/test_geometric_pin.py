"""The cell-grid geometric builder is ``nx.random_geometric_graph``, node for
node and edge for edge.

Every pinned digest of a mesh experiment hangs on this graph: the interned
ids follow its node order, the routes follow its adjacency order and the
link qualities follow its positions.  So the pin compares all of them with
networkx 3.6 (whose k-d tree path needs scipy, which a test may load):
node order, ``pos`` lists, the edge list and each node's adjacency order.

The large sizes run every n-th seed here; the full 120-seed sweep of every
size ran with no difference when the builder replaced networkx's.
"""

import networkx as nx
import pytest

from repro.net import topology as net_topology
from repro.net.topology import random_geometric_topology

#: (nodes, radius, seed stride): the mesh shapes the benchmark, the
#: campaigns and the tests draw, plus the platform's ``mesh_radius``
#: default (0.45) at the 31- and 303-node sizes.
SWEEP = [
    (1000, 0.10, 30),
    (500, 0.08, 20),
    (303, 0.12, 10),
    (303, 0.45, 30),
    (100, 0.20, 1),
    (60, 0.25, 1),
    (31, 0.35, 1),
    (31, 0.30, 1),
    (31, 0.45, 1),
]


def _layout(graph):
    return (
        list(graph.nodes(data=True)),
        list(graph.edges(data=True)),
        [list(graph.adj[v]) for v in graph],
    )


@pytest.mark.parametrize("n, radius, stride", SWEEP, ids=lambda v: str(v))
def test_cell_grid_draws_the_networkx_graph(n, radius, stride):
    for seed in range(0, 120, stride):
        ours = net_topology._geometric_graph(n, radius, seed)
        theirs = nx.random_geometric_graph(n, radius, seed=seed)
        assert _layout(ours) == _layout(theirs), f"n={n} radius={radius} seed={seed}"


def _networkx_topology(n, radius, seed, base_loss=net_topology.DEFAULT_BASE_LOSS):
    """``random_geometric_topology`` as it was built on networkx's generator."""
    rng_seed = seed
    while True:
        graph = nx.random_geometric_graph(n, radius, seed=rng_seed)
        if nx.is_connected(graph):
            break
        rng_seed += 1
    pos = nx.get_node_attributes(graph, "pos")
    for a, b, attrs in graph.edges(data=True):
        (xa, ya), (xb, yb) = pos[a], pos[b]
        quality = min(((xa - xb) ** 2 + (ya - yb) ** 2) ** 0.5 / radius, 1.0)
        attrs["base_loss"] = min(0.95, base_loss * (1.0 + 3.0 * quality**2))
        attrs["base_delay"] = net_topology.DEFAULT_BASE_DELAY
    return nx.relabel_nodes(graph, {v: f"n{v}" for v in sorted(graph.nodes)})


@pytest.mark.parametrize(
    "n, radius, seed", [(31, 0.45, 2014), (303, 0.45, 2014), (31, 0.30, 7), (1000, 0.10, 1)]
)
def test_the_public_builder_keeps_the_networkx_mesh(n, radius, seed):
    topo = random_geometric_topology(n, radius, seed=seed)
    assert _layout(topo.graph) == _layout(_networkx_topology(n, radius, seed))
