"""Unit tests for the node-side fault controller."""

import pytest

from repro.faults.controller import FaultController


@pytest.fixture
def controlled(pair_net, rngs):
    sim, medium, a, b = pair_net
    events = []

    def emit(name, params=()):
        events.append((name, tuple(params)))

    ctrl = FaultController(
        sim, a, rngs, emit, resolve_addr=lambda nid: {"peerB": b.address}.get(nid, nid)
    )
    ctrl.set_run(0)
    return sim, ctrl, a, b, events


def test_start_installs_filter_and_emits(controlled):
    sim, ctrl, a, _b, events = controlled
    fid = ctrl.start("msg_loss", {"probability": 0.5})
    assert fid == 1
    assert len(a.interface.filters) == 1
    assert events[0][0] == "fault_msg_loss_started"


def test_stop_by_kind_and_by_id(controlled):
    sim, ctrl, a, _b, events = controlled
    fid = ctrl.start("msg_delay", {"delay": 0.1})
    assert ctrl.stop("msg_delay")
    assert a.interface.filters == []
    assert events[-1][0] == "fault_msg_delay_stopped"

    fid = ctrl.start("msg_delay", {"delay": 0.1})
    assert ctrl.stop(fid)
    assert a.interface.filters == []


def test_stop_unknown_returns_false(controlled):
    _sim, ctrl, _a, _b, _events = controlled
    assert not ctrl.stop("msg_loss")
    assert not ctrl.stop(99)


def test_bounded_fault_auto_stops(controlled):
    sim, ctrl, a, _b, events = controlled
    ctrl.start("iface_fault", {"direction": "both", "duration": 2.0})
    assert len(a.interface.filters) == 1
    sim.run(until=3.0)
    assert a.interface.filters == []
    assert events[-1][0] == "fault_iface_fault_stopped"


def test_rate_window_encoded_in_start_event(controlled):
    sim, ctrl, _a, _b, events = controlled
    ctrl.start("msg_loss", {"probability": 1.0, "duration": 10.0, "rate": 0.4,
                            "randomseed": 3})
    name, params = events[0]
    _kind, active_from, active_until = params
    assert active_until - active_from == pytest.approx(4.0)
    assert 0.0 <= active_from and active_until <= 10.0 + 1e-9


def test_path_fault_resolves_peer_node_id(controlled):
    sim, ctrl, a, b, _events = controlled
    ctrl.start("path_loss", {"peer": "peerB", "probability": 1.0})
    flt = a.interface.filters[0]
    assert flt.peer_addr == b.address


def test_path_fault_requires_peer(controlled):
    _sim, ctrl, _a, _b, _events = controlled
    with pytest.raises(ValueError):
        ctrl.start("path_loss", {"probability": 1.0})


def test_unknown_kind_rejected(controlled):
    _sim, ctrl, _a, _b, _events = controlled
    with pytest.raises(ValueError):
        ctrl.start("gravity_failure", {})


def test_stop_all_silent(controlled):
    _sim, ctrl, a, _b, events = controlled
    ctrl.start("msg_loss", {"probability": 0.1})
    ctrl.start("msg_delay", {"delay": 0.1})
    n_events = len(events)
    ctrl.stop_all()
    assert a.interface.filters == []
    assert len(events) == n_events  # no stop events during cleanup
    assert ctrl._active == {}


def test_stop_all_reverts_in_reverse_start_order(controlled):
    _sim, ctrl, a, _b, _events = controlled
    ctrl.start("msg_loss", {"probability": 0.1})
    ctrl.start("msg_delay", {"delay": 0.1})
    removed = []
    original = a.interface.remove_filter

    def tracking_remove(rule_id):
        removed.append(rule_id)
        return original(rule_id)

    a.interface.remove_filter = tracking_remove
    ctrl.stop_all()
    # Filters came off newest-first (nesting discipline of stacked faults).
    assert removed == sorted(removed, reverse=True)


def test_fault_rng_deterministic_per_run(pair_net, rngs):
    sim, medium, a, b = pair_net
    ctrl = FaultController(sim, a, rngs, lambda *a, **k: None)

    def draw_sequence(run_id):
        ctrl.set_run(run_id)
        rng = ctrl._fault_rng("msg_loss")
        return [rng.random() for _ in range(5)]

    assert draw_sequence(1) == draw_sequence(1)
    assert draw_sequence(1) != draw_sequence(2)


def test_active_faults_listing(controlled):
    _sim, ctrl, _a, _b, _events = controlled
    ctrl.start("msg_loss", {"probability": 0.5})
    active = list(ctrl._active.values())
    assert len(active) == 1 and active[0].kind == "msg_loss"
