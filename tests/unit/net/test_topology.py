"""Unit tests for mesh topology builders and queries."""

import random
import sys
import threading

import networkx as nx
import pytest

from repro.net.topology import (
    Topology,
    from_edges,
    full_mesh_topology,
    grid_topology,
    line_topology,
    random_geometric_topology,
    star_topology,
)
from tests.oracles.net_reference import reference_route_row, to_nx_graph


def test_grid_shape():
    topo = grid_topology(3, 4)
    assert len(topo.node_names) == 12
    # interior node has 4 neighbours, corner has 2
    degrees = sorted(len(topo.neighbors(n)) for n in topo.node_names)
    assert degrees[0] == 2 and degrees[-1] == 4


def test_line_hops():
    topo = line_topology(5)
    assert topo.hop_rows(["n0", "n4"]) == [[0, 4], [4, 0]]


def test_star_center():
    topo = star_topology(6)
    assert len(topo.neighbors("n0")) == 6
    assert topo.hop_rows(["n1", "n2"]) == [[0, 2], [2, 0]]


def test_full_mesh_single_hop():
    topo = full_mesh_topology(5)
    rows = topo.hop_rows(topo.node_names)
    assert rows == [[0 if i == j else 1 for j in range(5)] for i in range(5)]


def test_next_hop_progresses():
    topo = grid_topology(3, 3)
    hop = topo.next_hop("n0", "n8")
    assert hop in topo.neighbors("n0")
    assert topo.next_hop("n0", "n0") is None


def test_unreachable_pair():
    topo = from_edges([("a", "b"), ("c", "d")])
    assert topo.next_hop("a", "c") is None
    assert topo.hop_rows(["a", "c"]) == [[0, None], [None, 0]]


def test_edge_attr_defaults():
    topo = grid_topology(2, 2, base_loss=0.07, base_delay=0.003)
    base_loss, base_delay = topo.adj["n0"]["n1"]
    assert base_loss == 0.07
    assert base_delay == 0.003


def test_geometric_deterministic_and_connected():
    a = random_geometric_topology(12, radius=0.4, seed=5)
    b = random_geometric_topology(12, radius=0.4, seed=5)
    assert sorted(a.edges()) == sorted(b.edges())
    assert a.is_connected() and nx.is_connected(to_nx_graph(a))


def test_geometric_fringe_links_are_worse():
    topo = random_geometric_topology(20, radius=0.4, seed=3, base_loss=0.02)
    losses = [base_loss for _a, _b, (base_loss, _delay) in topo.edges()]
    assert min(losses) >= 0.02
    assert max(losses) > min(losses)  # distance-dependent quality


def test_hop_count_matrix_subset():
    topo = grid_topology(3, 3)
    # 4 hops in a 3x3 grid corner-to-corner, both ways, whatever the order.
    assert topo.hop_rows(["n0", "n8"]) == [[0, 4], [4, 0]]
    assert topo.hop_rows(["n8", "n4", "n0"])[0] == [0, 2, 4]


def test_cache_invalidation():
    # A rewired mesh is a new topology: it routes by its own links, and
    # the old one's cached table stays the old one's.
    topo = line_topology(3)
    assert topo.hop_rows(["n0", "n2"])[0][1] == 2
    link = (0.0, 0.001)
    adj = topo.adj
    rewired = Topology({**adj, "n0": {**adj["n0"], "n2": link}, "n2": {**adj["n2"], "n0": link}})
    assert rewired.hop_rows(["n0", "n2"])[0][1] == 1
    assert topo.hop_rows(["n0", "n2"])[0][1] == 2


def test_empty_topology_rejected():
    with pytest.raises(ValueError):
        Topology({})


# ----------------------------------------------------------------------
# The ring table and the first-hop rule
# ----------------------------------------------------------------------
def _shuffled_geometric(n, radius, seed):
    """A geometric mesh whose nodes and links were inserted in a random
    order, so no adjacency list is sorted by id."""
    topo = random_geometric_topology(n, radius, seed=seed)
    rng = random.Random(seed)
    nodes, edges = list(topo.adj), list(topo.edges())
    rng.shuffle(nodes)
    rng.shuffle(edges)
    adj = {v: {} for v in nodes}
    for a, b, link in edges:
        if rng.random() < 0.5:
            a, b = b, a
        adj[a][b] = adj[b][a] = link
    return Topology(adj)


def _row_shapes():
    return {
        "line": line_topology(7),
        "grid": grid_topology(4, 5),
        "star": star_topology(6),
        "full": full_mesh_topology(5),
        "geo": random_geometric_topology(60, 0.25, seed=11),
        "shuffled": _shuffled_geometric(60, 0.25, seed=12),
        "split": from_edges([("a", "b"), ("c", "d")]),  # disconnected
    }


def test_route_row_backends_agree():
    # The sequential FIFO BFS is the oracle.  The on-demand first-hop rule,
    # the level-by-level rows the benchmark reads and the hop_rows distances
    # must all reproduce it exactly, for every ordered pair of every shape.
    for label, topo in _row_shapes().items():
        names = topo.intern_ids()
        hops = topo.hop_rows(list(names))
        for src_id in names.values():
            row, dist = reference_route_row(topo, src_id)
            assert topo._route_row(src_id) == row, f"{label}/{src_id}"
            assert topo._dist_rows[src_id] == dist, f"{label}/{src_id}"
            assert [topo.next_hop_id(src_id, dst_id) for dst_id in range(len(row))] == row
            assert hops[src_id] == [None if d < 0 else d for d in dist], f"{label}/{src_id}"


def test_rings_partition_every_node_by_distance():
    for label, topo in _row_shapes().items():
        rings = topo._rings()
        for src_id, own in enumerate(rings):
            _row, dist = reference_route_row(topo, src_id)
            assert all(own), label  # a list ends at its last non-empty ring
            for hops, ring in enumerate(own):
                members = {w for w in range(len(dist)) if ring >> w & 1}
                assert members == {w for w, d in enumerate(dist) if d == hops}, label


def test_next_hop_progresses_toward_destination():
    # next_hop must strictly reduce the remaining hop count on every
    # shape, which is exactly what the medium's per-hop forwarding needs.
    for topo in _row_shapes().values():
        names = topo.node_names
        hops = topo.hop_rows(names)
        for i, src in enumerate(names):
            for j, dst in enumerate(names):
                if src == dst:
                    continue
                hop = topo.next_hop(src, dst)
                if hops[i][j] is None:
                    assert hop is None
                else:
                    assert hops[names.index(hop)][j] == hops[i][j] - 1


def test_edge_params_cached_and_defaulted():
    topo = from_edges([("a", "b")], base_loss=0.25, base_delay=0.004)
    assert topo.edge_params("a", "b") == (0.25, 0.004)
    # One tuple under both endpoints, so either orientation reads it.
    assert topo.edge_params("b", "a") is topo.edge_params("a", "b")


def test_cold_topology_shared_by_threads_reads_whole_rows():
    # A thread pool campaign hands one prebuilt Topology to every worker:
    # the first queries race to build and publish the ring table, and a
    # reader must never see a half-built one.
    names = [f"n{i}" for i in range(120)]
    warm = random_geometric_topology(120, 0.2, seed=3)
    expect = [[warm.next_hop(a, b) for b in names] for a in names]
    errors, results = [], []

    def worker(topo, barrier, index):
        try:
            barrier.wait(timeout=10)
            if index % 2:
                results.append(topo.hop_rows(names) == warm.hop_rows(names))
            else:
                results.append([[topo.next_hop(a, b) for b in names] for a in names] == expect)
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _trial in range(20):
            topo = random_geometric_topology(120, 0.2, seed=3)
            barrier = threading.Barrier(4)
            threads = [
                threading.Thread(target=worker, args=(topo, barrier, i)) for i in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert results == [True] * 80


def test_frozen_topology_is_warm_and_refuses_change():
    # A testbed frame's topology is shared by every run of a process: its
    # ring table answers every route and hop count, and it has no way to
    # change.  A changed mesh is another Topology.
    topo = grid_topology(3, 3)
    table = topo._rings()
    assert len(table) == 9
    assert topo.hop_rows(topo.node_names)[0] == [0, 1, 2, 1, 2, 3, 2, 3, 4]
    assert topo.next_hop("n0", "n8") in topo.neighbors("n0")
    # Reads store nothing: the ring table is the only route state.
    assert topo._ring_table is table and not topo._route_rows and not topo._dist_rows
    for mutator in ("graph", "freeze", "invalidate_cache", "add_edge", "remove_node"):
        assert not hasattr(topo, mutator)
    link = (0.0, 0.001)
    adj = topo.adj
    changed = Topology({**adj, "n0": {**adj["n0"], "n8": link}, "n8": {**adj["n8"], "n0": link}})
    assert changed.hop_rows(["n0", "n8"])[0][1] == 1
    assert topo.hop_rows(["n0", "n8"])[0][1] == 4
