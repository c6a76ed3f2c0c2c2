"""Unit tests for the node stack: sockets, forwarding, flooding."""

import pytest

from repro.net.node import NetNode, PortInUse
from repro.net.packet import BROADCAST_ADDR, MULTICAST_SD_GROUP


def test_bind_conflict(pair_net):
    _sim, _medium, a, _b = pair_net
    a.bind(10, lambda *args: None)
    with pytest.raises(PortInUse):
        a.bind(10, lambda *args: None)
    a.unbind(10)
    a.bind(10, lambda *args: None)  # rebindable after unbind


def test_unbound_port_counts_no_handler(pair_net):
    sim, _medium, a, b = pair_net
    a.send_datagram("x", b.address, 777)
    sim.run(until=1.0)
    assert b.counters["no_handler"] == 1
    assert b.counters["delivered"] == 0


def test_multihop_unicast_forwarding(grid_net):
    sim, topo, medium, nodes = grid_net
    got = []
    nodes["n8"].bind(10, lambda pl, pkt, n: got.append(pkt))
    nodes["n0"].send_datagram("far", nodes["n8"].address, 10, ttl=16)
    sim.run(until=2.0)
    assert len(got) == 1
    # TTL decremented once per intermediate forward (4-hop path → 3 forwards).
    assert got[0].ttl == 16 - 3
    forwards = sum(n.counters["forwarded"] for n in nodes.values())
    assert forwards == 3


def test_ttl_expiry_kills_packet(grid_net):
    sim, topo, medium, nodes = grid_net
    got = []
    nodes["n8"].bind(10, lambda pl, pkt, n: got.append(pl))
    nodes["n0"].send_datagram("x", nodes["n8"].address, 10, ttl=2)
    sim.run(until=2.0)
    assert got == []
    assert any(n.counters["ttl_expired"] for n in nodes.values())


def test_multicast_requires_group_membership(grid_net):
    sim, topo, medium, nodes = grid_net
    got = []
    nodes["n4"].bind(20, lambda pl, pkt, n: got.append("n4"))
    nodes["n7"].join_group(MULTICAST_SD_GROUP)
    nodes["n7"].bind(20, lambda pl, pkt, n: got.append("n7"))
    nodes["n0"].send_datagram("q", MULTICAST_SD_GROUP, 20)
    sim.run(until=2.0)
    assert got == ["n7"]  # n4 not joined


def test_multicast_floods_whole_mesh(grid_net):
    sim, topo, medium, nodes = grid_net
    got = []
    for name in ("n2", "n6", "n8"):
        nodes[name].join_group(MULTICAST_SD_GROUP)
        nodes[name].bind(20, lambda pl, pkt, n, name=name: got.append(name))
    nodes["n0"].send_datagram("q", MULTICAST_SD_GROUP, 20)
    sim.run(until=2.0)
    assert sorted(got) == ["n2", "n6", "n8"]


def test_multicast_duplicate_suppression(grid_net):
    sim, topo, medium, nodes = grid_net
    got = []
    nodes["n4"].join_group(MULTICAST_SD_GROUP)
    nodes["n4"].bind(20, lambda pl, pkt, n: got.append(pl))
    nodes["n0"].send_datagram("q", MULTICAST_SD_GROUP, 20)
    sim.run(until=2.0)
    # The centre node hears the flood from several neighbours but delivers
    # exactly once.
    assert got == ["q"]


def test_multicast_ttl_limits_flood(grid_net):
    sim, topo, medium, nodes = grid_net
    got = []
    nodes["n8"].join_group(MULTICAST_SD_GROUP)
    nodes["n8"].bind(20, lambda pl, pkt, n: got.append(pl))
    # n8 is 4 hops from n0; ttl=2 cannot reach it.
    nodes["n0"].send_datagram("q", MULTICAST_SD_GROUP, 20, ttl=2)
    sim.run(until=2.0)
    assert got == []


def test_flood_disabled_confines_to_one_hop(grid_net):
    sim, topo, medium, nodes = grid_net
    for n in nodes.values():
        n.flood_multicast = False
    got = []
    for name in ("n1", "n8"):
        nodes[name].join_group(MULTICAST_SD_GROUP)
        nodes[name].bind(20, lambda pl, pkt, n, name=name: got.append(name))
    nodes["n0"].send_datagram("q", MULTICAST_SD_GROUP, 20)
    sim.run(until=2.0)
    assert got == ["n1"]  # direct neighbour only


def test_broadcast_is_link_local(grid_net):
    sim, topo, medium, nodes = grid_net
    got = []
    for name in ("n1", "n3", "n8"):
        nodes[name].bind(30, lambda pl, pkt, n, name=name: got.append(name))
    nodes["n0"].send_datagram("b", BROADCAST_ADDR, 30)
    sim.run(until=2.0)
    assert sorted(got) == ["n1", "n3"]  # neighbours of n0 only


def test_originator_does_not_receive_own_multicast(pair_net):
    sim, _medium, a, b = pair_net
    got = []
    a.join_group(MULTICAST_SD_GROUP)
    a.bind(20, lambda pl, pkt, n: got.append("a"))
    b.join_group(MULTICAST_SD_GROUP)
    b.bind(20, lambda pl, pkt, n: got.append("b"))
    a.send_datagram("q", MULTICAST_SD_GROUP, 20)
    sim.run(until=2.0)
    assert got == ["b"]


def test_reset_data_plane_clears_state(pair_net):
    sim, _medium, a, b = pair_net
    b.bind(10, lambda pl, pkt, n: None)
    a.send_datagram("x", b.address, 10)
    sim.run(until=1.0)
    assert b.counters["delivered"] == 1
    assert len(b.capture) == 1
    b.reset_data_plane()
    assert b.counters["delivered"] == 0
    assert len(b.capture) == 0


def test_seen_cache_bounded(sim, rngs):
    node = NetNode(sim, "x", "10.0.0.1", seen_cache_size=4)
    for uid in range(10):
        node._mark_seen(uid)
    assert len(node._seen) == 4
    assert 9 in node._seen and 0 not in node._seen
