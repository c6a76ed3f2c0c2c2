"""Unit tests for interfaces and packet-filter chains."""

import pytest

from repro.faults.injectors import FaultFilter
from repro.net.interface import (
    DROP,
    PASS,
    Direction,
    FilterVerdict,
    PacketFilter,
)


class _Always(PacketFilter):
    def __init__(self, verdict, direction=Direction.BOTH):
        super().__init__(direction=direction, label="always")
        self.verdict = verdict
        self.seen = 0

    def decide(self, packet, direction, now):
        self.seen += 1
        return self.verdict


def _iface_fault(direction):
    return FaultFilter("iface_fault", drops=True, flow=None, direction=direction)


def _send(a, b, payload="x"):
    return a.send_datagram(payload, b.address, 1000)


def test_direction_covers():
    assert Direction.BOTH.covers(Direction.RX)
    assert Direction.BOTH.covers(Direction.TX)
    assert Direction.RX.covers(Direction.RX)
    assert not Direction.RX.covers(Direction.TX)


# Deactivating an interface is a drop-all rule in one direction (the
# interface fault), not a separate state.
def test_tx_down_blocks_sending(pair_net):
    sim, medium, a, b = pair_net
    got = []
    b.bind(1000, lambda pl, pkt, n: got.append(pl))
    a.interface.add_filter(_iface_fault(Direction.TX))
    _send(a, b)
    sim.run(until=1.0)
    assert got == []
    assert a.interface.counters["tx_dropped"] == 1


def test_rx_down_blocks_delivery(pair_net):
    sim, medium, a, b = pair_net
    got = []
    b.bind(1000, lambda pl, pkt, n: got.append(pl))
    b.interface.add_filter(_iface_fault(Direction.RX))
    _send(a, b)
    sim.run(until=1.0)
    assert got == []
    assert b.interface.counters["rx_dropped"] == 1
    assert len(b.capture) == 0  # a dead NIC captures nothing


def test_reactivation_restores_traffic(pair_net):
    sim, medium, a, b = pair_net
    got = []
    b.bind(1000, lambda pl, pkt, n: got.append(pl))
    rule_id = b.interface.add_filter(_iface_fault(Direction.BOTH))
    _send(a, b)
    sim.run(until=1.0)
    assert b.interface.remove_filter(rule_id)
    _send(a, b, "second")
    sim.run(until=2.0)
    assert got == ["second"]


def test_tx_filter_drop(pair_net):
    sim, medium, a, b = pair_net
    got = []
    b.bind(1000, lambda pl, pkt, n: got.append(pl))
    flt = _Always(DROP, Direction.TX)
    a.interface.add_filter(flt)
    _send(a, b)
    sim.run(until=1.0)
    assert got == [] and flt.seen == 1
    assert a.interface.counters["tx_dropped"] == 1


def test_rx_filter_delay(pair_net):
    sim, medium, a, b = pair_net
    got = []
    b.bind(1000, lambda pl, pkt, n: got.append((pl, sim.now)))
    b.interface.add_filter(_Always(FilterVerdict(extra_delay=0.5), Direction.RX))
    _send(a, b)
    sim.run(until=2.0)
    assert len(got) == 1
    assert got[0][1] >= 0.5


def test_filter_direction_scoping(pair_net):
    sim, medium, a, b = pair_net
    got = []
    b.bind(1000, lambda pl, pkt, n: got.append(pl))
    # An RX-only drop rule on the *sender* must not affect its TX path.
    a.interface.add_filter(_Always(DROP, Direction.RX))
    _send(a, b)
    sim.run(until=1.0)
    assert got == ["x"]


def test_filter_replacement_modifies_content(pair_net):
    sim, medium, a, b = pair_net
    got = []
    b.bind(1000, lambda pl, pkt, n: got.append(pl))

    class Corruptor(PacketFilter):
        def decide(self, packet, direction, now):
            return FilterVerdict(replacement=packet.copy(payload="corrupted"))

    b.interface.add_filter(Corruptor(Direction.RX))
    _send(a, b, "original")
    sim.run(until=1.0)
    assert got == ["corrupted"]


def test_remove_filter_by_id(pair_net):
    sim, medium, a, b = pair_net
    got = []
    b.bind(1000, lambda pl, pkt, n: got.append(pl))
    rule_id = a.interface.add_filter(_Always(DROP, Direction.TX))
    assert a.interface.remove_filter(rule_id)
    assert not a.interface.remove_filter(rule_id)  # already gone
    _send(a, b)
    sim.run(until=1.0)
    assert got == ["x"]


def test_clear_filters_returns_count(pair_net):
    _sim, _medium, a, _b = pair_net
    a.interface.add_filter(_Always(PASS))
    a.interface.add_filter(_Always(PASS))
    assert a.interface.clear_filters() == 2
    assert a.interface.filters == []


def test_chain_order_first_drop_wins(pair_net):
    sim, medium, a, b = pair_net
    dropper = _Always(DROP, Direction.TX)
    later = _Always(PASS, Direction.TX)
    a.interface.add_filter(dropper)
    a.interface.add_filter(later)
    _send(a, b)
    sim.run(until=1.0)
    assert dropper.seen == 1 and later.seen == 0


def test_counters_track_bytes(pair_net):
    sim, medium, a, b = pair_net
    b.bind(1000, lambda pl, pkt, n: None)
    a.send_datagram("x", b.address, 1000, size=300)
    sim.run(until=1.0)
    assert a.interface.counters["tx_bytes"] == 300
    assert b.interface.counters["rx_bytes"] == 300


def test_transmit_unattached_interface_raises(sim):
    from repro.net.node import NetNode

    node = NetNode(sim, "solo", "10.9.9.9")
    with pytest.raises(RuntimeError):
        node.send_datagram("x", "10.0.0.1", 1)
