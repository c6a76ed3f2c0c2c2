"""Unit tests for the message-reordering fault."""

import random

import pytest

from repro.faults.controller import FaultController
from repro.faults.injectors import FaultFilter
from repro.net.interface import Direction
from repro.net.packet import Packet


def _reorder(probability, delay, rng):
    return FaultFilter("msg_reorder", drops=False, delay=delay, probability=probability, rng=rng)


def _pkt(flow="experiment"):
    return Packet(src_addr="a", dst_addr="b", src_port=1, dst_port=2,
                  payload=None, flow=flow)


def test_reorder_delays_fraction():
    flt = _reorder(0.5, 0.1, random.Random(3))
    delays = [flt.decide(_pkt(), Direction.RX, 0.0).extra_delay for _ in range(400)]
    held = sum(1 for d in delays if d == 0.1)
    passed = sum(1 for d in delays if d == 0.0)
    assert held + passed == 400
    assert 140 <= held <= 260  # ~50%
    assert flt.hits == held


def test_reorder_validation(pair_net, rngs):
    with pytest.raises(ValueError, match="probability"):
        _reorder(1.5, 0.1, random.Random(1))
    with pytest.raises(ValueError, match="negative delay"):
        _reorder(0.5, -0.1, random.Random(1))
    # A zero hold reorders nothing: the kind table rejects it.
    sim, _medium, a, _b = pair_net
    ctrl = FaultController(sim, a, rngs, lambda name, params=(): None)
    ctrl.set_run(0)
    for delay in (0.0, -0.1):
        with pytest.raises(ValueError, match="msg_reorder delay must be positive"):
            ctrl.start("msg_reorder", {"probability": 0.5, "delay": delay})
    assert a.interface.filters == []


def test_reorder_respects_flow():
    flt = _reorder(1.0, 0.1, random.Random(1))
    assert flt.decide(_pkt("generated-load"), Direction.RX, 0.0).extra_delay == 0.0
    assert flt.decide(_pkt("experiment"), Direction.RX, 0.0).extra_delay == 0.1


def test_reorder_actually_reorders_arrivals(pair_net, rngs):
    """Back-to-back sends with 100% held vs unheld packets interleave."""
    sim, _medium, a, b = pair_net

    class Alternating:
        """Deterministic: hold every other packet."""

        def __init__(self):
            self.i = 0

        def random(self):
            self.i += 1
            return 0.0 if self.i % 2 else 1.0

    flt = _reorder(0.5, 0.2, Alternating())
    b.interface.add_filter(flt)
    got = []
    b.bind(9, lambda pl, pkt, n: got.append(pl))
    for seq in range(4):
        a.send_datagram(seq, b.address, 9)
    sim.run(until=2.0)
    assert sorted(got) == [0, 1, 2, 3]
    assert got != sorted(got), "delivery order must differ from send order"


def test_reorder_via_controller_and_registry(pair_net, rngs):
    from repro.core.actions import default_registry

    sim, _medium, a, _b = pair_net
    assert "msg_reorder_start" in default_registry()
    events = []
    ctrl = FaultController(sim, a, rngs, lambda name, params=(): events.append(name))
    ctrl.set_run(0)
    fid = ctrl.start("msg_reorder", {"probability": 0.3, "delay": 0.05})
    assert events == ["fault_msg_reorder_started"]
    assert a.interface.filters[0].label == "msg_reorder"
    assert ctrl.stop(fid)
