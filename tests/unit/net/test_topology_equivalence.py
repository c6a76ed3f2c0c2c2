"""Every topology builder leaves the graph its networkx predecessor left.

Node order sets the interned ids, each node's neighbour order sets the
first hop a route takes, and the snapshot is pinned level-2 text, so each
builder is compared with the networkx builder it replaced
(``tests/oracles/topology_reference.py``): node order, every node's
neighbours in order with their ``(base_loss, base_delay)``, and the
``snapshot_topology`` JSON.
"""

import json
import random

import pytest

from repro.core.topomeasure import snapshot_topology
from repro.net import topology as net_topology
from repro.platforms.frame import _build_topology
from tests.oracles import topology_reference as reference


def _rows(topology):
    return [(v, list(neighbours.items())) for v, neighbours in topology.adj.items()]


def _reference_rows(graph):
    return [
        (v, [(w, (float(d["base_loss"]), float(d["base_delay"]))) for w, d in graph.adj[v].items()])
        for v in graph
    ]


def _assert_same(topology, graph, label):
    assert _rows(topology) == _reference_rows(graph), label
    assert json.dumps(snapshot_topology(topology)) == json.dumps(reference.snapshot(graph)), label


SHAPES = (
    [("grid_topology", "grid_graph", (rows, cols)) for rows in (1, 2, 3, 5) for cols in (1, 2, 4, 7)]
    + [("line_topology", "line_graph", (n,)) for n in (1, 2, 9)]
    + [("star_topology", "star_graph", (leaves,)) for leaves in (0, 1, 6)]
    + [("full_mesh_topology", "full_mesh_graph", (n,)) for n in (1, 2, 8)]
)


@pytest.mark.parametrize("ours, theirs, args", SHAPES, ids=lambda v: str(v))
def test_the_fixed_shapes_equal_networkx(ours, theirs, args):
    kwargs = {"base_loss": 0.07, "base_delay": 0.003, "prefix": "m"}
    label = f"{ours}{args}"
    _assert_same(getattr(net_topology, ours)(*args), getattr(reference, theirs)(*args), label)
    _assert_same(
        getattr(net_topology, ours)(*args, **kwargs),
        getattr(reference, theirs)(*args, **kwargs),
        label,
    )


@pytest.mark.parametrize(
    "n, radius, seeds",
    [(1000, 0.10, (1,)), (303, 0.45, (2014,)), (100, 0.20, (0, 5)), (31, 0.45, range(4)),
     (31, 0.30, (7, 8)), (12, 0.40, (5,))],
    ids=lambda v: str(v),
)
def test_geometric_meshes_equal_networkx(n, radius, seeds):
    for seed in seeds:
        _assert_same(
            net_topology.random_geometric_topology(n, radius, seed=seed),
            reference.random_geometric_graph(n, radius, seed),
            f"n={n} radius={radius} seed={seed}",
        )


def test_named_edges_keep_networkx_order_whatever_their_order():
    rng = random.Random(49)
    base = [(f"x{i}", f"x{(i * 7 + 3) % 15}") for i in range(15)] + [("x2", "x9"), ("x4", "x4")]
    for trial in range(30):
        edges = [(b, a) if rng.random() < 0.5 else (a, b) for a, b in base]
        rng.shuffle(edges)
        edges += edges[: trial % 4]  # repeated links keep their place
        _assert_same(
            net_topology.from_edges(edges, base_loss=0.01, base_delay=0.005),
            reference.edges_graph(edges, base_loss=0.01, base_delay=0.005),
            f"trial {trial}",
        )


@pytest.mark.parametrize("spec", ["grid", "line", "full", "mesh"])
def test_frame_topologies_equal_networkx(spec):
    rng = random.Random(spec)
    for size in (2, 7, 31):
        node_ids = [f"t9-{100 + i}" for i in range(size)]
        rng.shuffle(node_ids)
        args = (node_ids, spec, 0.45, 0.03, 2014 + size)
        _assert_same(_build_topology(*args), reference.frame_graph(*args), f"{spec}/{size}")
