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
from tests.oracles.net_reference import to_nx_graph
from tests.oracles.topology_reference import random_geometric_graph

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


def _cell_grid_graph(n, radius, seed):
    """The cell grid's positions and pairs as the graph networkx builds."""
    pos, pairs = net_topology._geometric_graph(n, radius, seed)
    graph = nx.Graph()
    graph.add_nodes_from((v, {"pos": xy}) for v, xy in enumerate(pos))
    graph.add_edges_from(pairs)
    return graph


@pytest.mark.parametrize("n, radius, stride", SWEEP, ids=lambda v: str(v))
def test_cell_grid_draws_the_networkx_graph(n, radius, stride):
    for seed in range(0, 120, stride):
        ours = _cell_grid_graph(n, radius, seed)
        theirs = nx.random_geometric_graph(n, radius, seed=seed)
        assert _layout(ours) == _layout(theirs), f"n={n} radius={radius} seed={seed}"


@pytest.mark.parametrize(
    "n, radius, seed", [(31, 0.45, 2014), (303, 0.45, 2014), (31, 0.30, 7), (1000, 0.10, 1)]
)
def test_the_public_builder_keeps_the_networkx_mesh(n, radius, seed):
    # A topology keeps links, not positions: nodes compare without data.
    ours = to_nx_graph(random_geometric_topology(n, radius, seed=seed))
    theirs = random_geometric_graph(n, radius, seed)
    assert list(ours) == list(theirs)
    assert _layout(ours)[1:] == _layout(theirs)[1:]
