"""Unit tests for the communication fault rule and its kind table."""

import random

import pytest

from repro.faults.controller import FAULT_KINDS, FaultController
from repro.faults.injectors import FaultFilter, resolve_direction
from repro.faults.model import FaultWindow
from repro.net.interface import PASS, Direction
from repro.net.packet import Packet


def _pkt(flow="experiment", src="10.0.0.1", dst="10.0.0.2"):
    return Packet(
        src_addr=src, dst_addr=dst, src_port=1, dst_port=2, payload=None, flow=flow
    )


def test_resolve_direction_values():
    assert resolve_direction("rx") is Direction.RX
    assert resolve_direction("receive") is Direction.RX
    assert resolve_direction("tx") is Direction.TX
    assert resolve_direction("transmit") is Direction.TX
    assert resolve_direction("both") is Direction.BOTH
    assert resolve_direction("") is Direction.BOTH


def test_resolve_direction_random():
    rng = random.Random(1)
    picks = {resolve_direction("random", rng) for _ in range(20)}
    assert picks == {Direction.RX, Direction.TX}
    with pytest.raises(ValueError):
        resolve_direction("random")
    with pytest.raises(ValueError):
        resolve_direction("sideways", rng)


def test_interface_fault_drops_all_flows():
    flt = FaultFilter("iface_fault", drops=True, flow=None)
    assert flt.decide(_pkt(flow="experiment"), Direction.RX, 0.0).dropped
    assert flt.decide(_pkt(flow="generated-load"), Direction.TX, 0.0).dropped
    assert flt.hits == 2


def test_message_loss_respects_flow_label():
    flt = FaultFilter("msg_loss", drops=True, probability=1.0, rng=random.Random(1))
    assert flt.decide(_pkt(flow="experiment"), Direction.RX, 0.0).dropped
    assert not flt.decide(_pkt(flow="generated-load"), Direction.RX, 0.0).dropped
    assert flt.hits == 1


def test_message_loss_probability_statistics():
    flt = FaultFilter("msg_loss", drops=True, probability=0.3, rng=random.Random(42))
    dropped = sum(
        flt.decide(_pkt(), Direction.RX, 0.0).dropped for _ in range(2000)
    )
    assert 520 <= dropped <= 680  # 0.3 ± ~0.04
    assert flt.hits == dropped


def test_message_loss_bounds_checked():
    for probability in (1.5, -0.1):
        with pytest.raises(ValueError, match=r"probability must be in \[0, 1\]"):
            FaultFilter("msg_loss", drops=True, probability=probability, rng=random.Random(1))


def test_message_delay_constant():
    flt = FaultFilter("msg_delay", drops=False, delay=0.25)
    verdict = flt.decide(_pkt(), Direction.TX, 0.0)
    assert not verdict.dropped and verdict.extra_delay == 0.25
    assert flt.hits == 1
    with pytest.raises(ValueError, match="negative delay"):
        FaultFilter("msg_delay", drops=False, delay=-0.1)


def test_window_gates_activation():
    window = FaultWindow(active_from=10.0, active_until=20.0)
    flt = FaultFilter("msg_delay", drops=False, delay=0.5, window=window)
    assert flt.decide(_pkt(), Direction.RX, 5.0).extra_delay == 0.0
    assert flt.decide(_pkt(), Direction.RX, 15.0).extra_delay == 0.5
    assert flt.decide(_pkt(), Direction.RX, 25.0).extra_delay == 0.0
    assert flt.hits == 1


def test_path_loss_matches_peer_either_end():
    flt = FaultFilter(
        "path_loss", drops=True, probability=1.0, rng=random.Random(1), peer_addr="10.0.0.9"
    )
    assert flt.decide(_pkt(dst="10.0.0.9"), Direction.TX, 0.0).dropped
    assert flt.decide(_pkt(src="10.0.0.9", dst="10.0.0.1"), Direction.RX, 0.0).dropped
    assert not flt.decide(_pkt(dst="10.0.0.2"), Direction.TX, 0.0).dropped


def test_path_delay_matches_peer_only():
    flt = FaultFilter("path_delay", drops=False, delay=0.1, peer_addr="10.0.0.9")
    assert flt.decide(_pkt(dst="10.0.0.9"), Direction.TX, 0.0).extra_delay == 0.1
    assert flt.decide(_pkt(dst="10.0.0.2"), Direction.TX, 0.0).extra_delay == 0.0
    assert not flt.decide(_pkt(flow="generated-load", dst="10.0.0.9"), Direction.TX, 0.0).dropped
    assert flt.hits == 1


def test_drop_experiment_filter():
    """The node-local drop-all rule: the experiment flow, both directions."""
    flt = FaultFilter("drop_all", drops=True)
    assert flt.decide(_pkt(flow="experiment"), Direction.TX, 0.0).dropped
    assert not flt.decide(_pkt(flow="generated-load"), Direction.RX, 0.0).dropped
    assert flt.matches_direction(Direction.RX) and flt.matches_direction(Direction.TX)


def test_direction_scoped_filters():
    flt = FaultFilter(
        "msg_loss", drops=True, probability=1.0, rng=random.Random(1), direction=Direction.RX
    )
    assert flt.matches_direction(Direction.RX)
    assert not flt.matches_direction(Direction.TX)


# ----------------------------------------------------------------------
# The kind table: what each kind draws, and what it rejects
# ----------------------------------------------------------------------
class _CountingRng:
    """Counts the per-packet ``random()`` draws and the direction pick."""

    def __init__(self):
        self._rng = random.Random(7)
        self.draws = 0
        self.choices = 0

    def random(self):
        self.draws += 1
        return self._rng.random()

    def choice(self, seq):
        self.choices += 1
        return self._rng.choice(seq)


@pytest.fixture
def controller(pair_net, rngs):
    sim, _medium, a, b = pair_net
    ctrl = FaultController(
        sim, a, rngs, lambda name, params=(): None,
        resolve_addr=lambda nid: {"peerB": b.address}.get(nid, nid),
    )
    ctrl.set_run(0)
    return ctrl, a, b


#: kind -> rng.random() calls per matching packet, and the scopes it checks.
DRAWS = [
    ("iface_fault", 0, ()),
    ("msg_loss", 1, ("flow",)),
    ("msg_delay", 0, ("flow",)),
    ("msg_reorder", 1, ("flow",)),
    ("path_loss", 1, ("flow", "peer")),
    ("path_delay", 0, ("flow", "peer")),
]


@pytest.mark.parametrize("kind, draws_per_match, out_of_scope", DRAWS,
                         ids=[case[0] for case in DRAWS])
def test_kind_draws_once_per_matching_packet_only_when_probabilistic(
        controller, monkeypatch, kind, draws_per_match, out_of_scope):
    ctrl, a, b = controller
    rng = _CountingRng()
    monkeypatch.setattr(ctrl, "_fault_rng", lambda _kind: rng)
    ctrl.start(kind, {"peer": "peerB", "direction": "random", "delay": 0.01})
    (flt,) = a.interface.filters
    assert flt.label == kind
    assert (rng.choices, rng.draws) == (1, 0)  # the direction is drawn first

    matching = _pkt(src=b.address, dst=a.address)
    for _ in range(5):
        flt.decide(matching, flt.direction, 0.0)
    assert rng.draws == 5 * draws_per_match

    # Out of scope or out of the window: passed without a draw.
    hits = flt.hits
    packets = {
        "flow": _pkt(flow="generated-load", src=b.address, dst=a.address),
        "peer": _pkt(src="10.9.9.9", dst=a.address),
    }
    for name in out_of_scope:
        assert flt.decide(packets[name], flt.direction, 0.0) == PASS
    flt.window = FaultWindow(active_from=10.0, active_until=None)
    assert flt.decide(matching, flt.direction, 0.0) == PASS
    assert (rng.draws, flt.hits) == (5 * draws_per_match, hits)
    assert (FAULT_KINDS[kind].probability is None) == (draws_per_match == 0)


@pytest.mark.parametrize("kind, params, message", [
    ("msg_loss", {"probability": 1.5}, r"probability must be in \[0, 1\]"),
    ("path_loss", {"peer": "peerB", "probability": -0.5}, r"probability must be in \[0, 1\]"),
    ("msg_delay", {"delay": -0.1}, "negative delay"),
    ("path_delay", {"peer": "peerB", "delay": -0.1}, "negative delay"),
], ids=["msg_loss", "path_loss", "msg_delay", "path_delay"])
def test_filter_validation_fires_through_the_kind_table(controller, kind, params, message):
    ctrl, a, _b = controller
    with pytest.raises(ValueError, match=message):
        ctrl.start(kind, params)
    assert a.interface.filters == []
