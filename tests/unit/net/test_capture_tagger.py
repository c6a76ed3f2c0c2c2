"""Unit tests for packet capture and the 16-bit tagger."""

import pytest

from repro.net.interface import Direction
from repro.net.node import NetNode
from repro.net.tagger import (
    TAG_MODULUS,
    TAG_NODE_OPTION,
    TAG_OPTION,
    PacketTagger,
    unwrap_tags,
)
from repro.net.packet import Packet


def _pkt(**kw):
    d = dict(src_addr="s", dst_addr="d", src_port=1, dst_port=2, payload=None)
    d.update(kw)
    return Packet(**d)


# ----------------------------------------------------------------------
# Capture
# ----------------------------------------------------------------------
def test_capture_records_both_directions(pair_net):
    sim, _medium, a, b = pair_net
    b.bind(10, lambda pl, pkt, n: None)
    a.send_datagram("x", b.address, 10)
    sim.run(until=1.0)
    assert [r["direction"] for r in a.capture.records] == ["tx"]
    assert [r["direction"] for r in b.capture.records] == ["rx"]


def test_capture_uses_local_clock(sim):
    from repro.net.clock import LocalClock

    node = NetNode(sim, "x", "10.0.0.1", clock=LocalClock(sim, offset=100.0))
    node.capture.record(_pkt(), Direction.RX)
    assert node.capture.records[0]["local_time"] == pytest.approx(100.0)


def test_capture_disable(sim):
    node = NetNode(sim, "x", "10.0.0.1")
    node.capture.enabled = False
    node.capture.record(_pkt(), Direction.RX)
    assert len(node.capture) == 0


def test_capture_drain_clears(sim):
    node = NetNode(sim, "x", "10.0.0.1")
    node.capture.record(_pkt(), Direction.TX)
    drained = node.capture.drain()
    assert len(drained) == 1 and len(node.capture) == 0


def test_capture_filter_query(sim):
    node = NetNode(sim, "x", "10.0.0.1")
    node.capture.record(_pkt(dst_port=5, flow="a"), Direction.TX)
    node.capture.record(_pkt(dst_port=5, flow="b"), Direction.RX)
    node.capture.record(_pkt(dst_port=6, flow="a"), Direction.RX)
    assert len(node.capture.filter(direction=Direction.RX)) == 2
    assert len(node.capture.filter(flow="a")) == 2
    assert len(node.capture.filter(dst_port=5, flow="a")) == 1


def test_capture_seq_monotonic(sim):
    node = NetNode(sim, "x", "10.0.0.1")
    for _ in range(3):
        node.capture.record(_pkt(), Direction.RX)
    seqs = [r["seq"] for r in node.capture.records]
    assert seqs == sorted(seqs) and len(set(seqs)) == 3


# ----------------------------------------------------------------------
# Tagger
# ----------------------------------------------------------------------
def test_tagger_increments_and_labels():
    tagger = PacketTagger("nodeA")
    p1, p2 = _pkt(), _pkt()
    assert tagger.tag(p1) and tagger.tag(p2)
    assert p1.options[TAG_OPTION] == 0
    assert p2.options[TAG_OPTION] == 1
    assert p1.options[TAG_NODE_OPTION] == "nodeA"
    assert tagger.tagged_count == 2


def test_tagger_wraps_at_16_bits():
    tagger = PacketTagger("n", start=TAG_MODULUS - 1)
    p1, p2 = _pkt(), _pkt()
    tagger.tag(p1)
    tagger.tag(p2)
    assert p1.options[TAG_OPTION] == TAG_MODULUS - 1
    assert p2.options[TAG_OPTION] == 0


def test_tagger_disable_and_reset():
    tagger = PacketTagger("n")
    tagger.enabled = False
    assert not tagger.tag(_pkt())
    tagger.enabled = True
    tagger.tag(_pkt())
    tagger.reset()
    assert tagger.tagged_count == 0
    packet = _pkt()
    assert tagger.tag(packet) and packet.options[TAG_OPTION] == 0


def test_unwrap_monotonic_sequence():
    assert unwrap_tags([1, 2, 3]) == [1, 2, 3]


def test_unwrap_across_wraparound():
    raw = [TAG_MODULUS - 2, TAG_MODULUS - 1, 0, 1]
    assert unwrap_tags(raw) == [
        TAG_MODULUS - 2, TAG_MODULUS - 1, TAG_MODULUS, TAG_MODULUS + 1
    ]


def test_unwrap_tolerates_small_reordering():
    out = unwrap_tags([10, 12, 11, 13])
    assert out == [10, 12, 11, 13]


def test_unwrap_rejects_out_of_range():
    with pytest.raises(ValueError):
        unwrap_tags([TAG_MODULUS])


def test_node_tags_only_originated_packets(grid_net):
    sim, topo, medium, nodes = grid_net
    nodes["n8"].bind(10, lambda pl, pkt, n: None)
    nodes["n0"].send_datagram("x", nodes["n8"].address, 10)
    sim.run(until=2.0)
    # Forwarding nodes must not have consumed their own tag sequence.
    assert nodes["n0"].tagger.tagged_count == 1
    assert all(
        nodes[name].tagger.tagged_count == 0 for name in nodes if name != "n0"
    )
