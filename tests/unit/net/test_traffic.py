"""Unit tests for CBR traffic generation."""

import random

import pytest

from repro.faults.manipulations import select_traffic_pairs
from repro.net.interface import Direction
from repro.net.traffic import (
    TRAFFIC_FLOW_LABEL,
    TRAFFIC_PORT,
    TrafficFlow,
)


def test_flow_rate_matches_nominal(pair_net):
    sim, medium, a, b = pair_net
    flow = TrafficFlow(
        sim, a, b, rate_kbps=100.0, rng=random.Random(1), packet_size=500
    )
    flow.start()
    sim.run(until=10.0)
    flow.stop()
    # 100 kbit/s at 500 B/packet = 25 pkt/s -> ~250 packets in 10 s.
    assert 200 <= flow.sent_packets <= 300


def test_flow_packets_carry_load_label(pair_net):
    sim, medium, a, b = pair_net
    flow = TrafficFlow(sim, a, b, rate_kbps=50.0, rng=random.Random(1))
    flow.start()
    sim.run(until=1.0)
    flow.stop()
    tx = a.capture.filter(flow=TRAFFIC_FLOW_LABEL)
    assert tx and all(r["dport"] == TRAFFIC_PORT for r in tx)
    # Load packets must not consume the experiment tagger sequence.
    assert a.tagger.tagged_count == 0


def test_flow_stop_halts_sending(pair_net):
    sim, medium, a, b = pair_net
    flow = TrafficFlow(sim, a, b, rate_kbps=100.0, rng=random.Random(1))
    flow.start()
    sim.run(until=1.0)
    flow.stop()
    sent = flow.sent_packets
    sim.run(until=3.0)
    assert flow.sent_packets == sent
    assert not flow.running


def test_flow_double_start_is_idempotent(pair_net):
    sim, medium, a, b = pair_net
    flow = TrafficFlow(sim, a, b, rate_kbps=100.0, rng=random.Random(1))
    flow.start()
    proc = flow._process
    flow.start()
    assert flow._process is proc


def test_invalid_rate_rejected(pair_net):
    sim, medium, a, b = pair_net
    with pytest.raises(ValueError):
        TrafficFlow(sim, a, b, rate_kbps=0.0, rng=random.Random(1))


def test_generator_bidirectional_flows(grid_net):
    # "Each pair bidirectionally communicates at a given data rate": one
    # flow per direction of every pair, and load arrives at both ends.
    sim, topo, medium, nodes = grid_net
    pairs = [(nodes["n0"], nodes["n8"]), (nodes["n2"], nodes["n6"])]
    flows = [
        TrafficFlow(sim, src, dst, rate_kbps=50.0, rng=random.Random(2))
        for a, b in pairs
        for src, dst in ((a, b), (b, a))
    ]
    assert len(flows) == 4  # two per pair, one per direction
    for flow in flows:
        flow.start()
    assert all(flow.running for flow in flows)
    sim.run(until=2.0)
    for flow in flows:
        flow.stop()
    assert not any(flow.running for flow in flows)
    assert all(flow.sent_packets > 0 for flow in flows)
    for a, b in pairs:
        for node in (a, b):
            rx = node.capture.filter(direction=Direction.RX, flow=TRAFFIC_FLOW_LABEL)
            assert any(r["dport"] == TRAFFIC_PORT for r in rx)


def test_choose_pairs_distinct_and_deterministic(grid_net):
    _sim, _topo, _medium, nodes = grid_net
    pool = sorted(nodes)
    a = select_traffic_pairs(pool, 5, seed=3, switch_amount=0, switch_seed=0)
    b = select_traffic_pairs(pool, 5, seed=3, switch_amount=0, switch_seed=0)
    assert len({tuple(sorted(pair)) for pair in a}) == 5
    assert a == b


def test_choose_pairs_capacity_check(grid_net):
    _sim, _topo, _medium, nodes = grid_net
    with pytest.raises(ValueError):
        # max C(3,2)=3
        select_traffic_pairs(["n0", "n1", "n2"], 4, seed=1, switch_amount=0, switch_seed=0)
