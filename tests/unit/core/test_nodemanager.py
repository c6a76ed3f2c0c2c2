"""Unit tests for the NodeManager control-plane component."""

import json

import pytest

from repro.core.nodemanager import NodeManager
from repro.core.rpc import ControlChannel


def _records(block):
    """A level-2 block (one JSON line per record, "" for none) parsed back."""
    return [json.loads(line) for line in block.split("\n")] if block else []


@pytest.fixture
def managed(pair_net, rngs):
    sim, medium, a, b = pair_net
    channel = ControlChannel(sim, latency=0.0)
    received = []
    channel.set_master_handler(received.append)
    nm_a = NodeManager(sim, a, channel, rngs)
    nm_b = NodeManager(sim, b, channel, rngs)
    return sim, channel, nm_a, nm_b, received


def test_ping_returns_local_clock(managed):
    sim, channel, nm_a, _nm_b, _rx = managed
    nm_a.node.clock.offset = 5.0
    assert nm_a.ping() == pytest.approx(5.0)


def test_hostinfo(managed):
    _sim, _ch, nm_a, _nm_b, _rx = managed
    assert nm_a.hostinfo() == {"node_id": "h0", "address": "10.1.0.1"}


def test_emit_records_locally_and_forwards(managed):
    sim, _ch, nm_a, _nm_b, received = managed
    nm_a.run_init(3)
    nm_a.emit("custom", params=("p",))
    sim.run(until=0.1)
    names = [r["name"] for r in received]
    assert names == ["run_init", "custom"]
    local = _records(nm_a.collect_run(3)["events"])
    assert [e["name"] for e in local] == ["run_init", "custom"]
    assert local[1]["params"] == ["p"]
    assert local[1]["run_id"] == 3


def test_experiment_scope_events(managed):
    sim, _ch, nm_a, _nm_b, _rx = managed
    nm_a.experiment_init("exp")
    data = nm_a.collect_experiment()
    assert [e["name"] for e in _records(data["events"])] == ["experiment_init"]
    assert "experiment_init: exp" in data["log"]


def test_run_init_resets_data_plane(managed):
    sim, _ch, nm_a, nm_b, _rx = managed
    nm_b.node.bind(9, lambda *a: None)
    nm_a.node.send_datagram("x", nm_b.node.address, 9)
    sim.run(until=0.5)
    assert len(nm_a.node.capture) == 1
    nm_a.run_init(0)
    assert len(nm_a.node.capture) == 0
    assert nm_a.current_run == 0


def test_run_hooks_called_with_run_id(managed):
    _sim, _ch, nm_a, _nm_b, _rx = managed
    seen = []
    nm_a.add_run_hook(seen.append)
    nm_a.run_init(7)
    assert seen == [7]


def test_run_exit_seals_packets(managed):
    sim, _ch, nm_a, nm_b, _rx = managed
    nm_a.run_init(0)
    nm_b.run_init(0)
    nm_b.node.bind(9, lambda *a: None)
    nm_a.node.send_datagram("x", nm_b.node.address, 9)
    sim.run(until=0.5)
    nm_a.run_exit(0)
    packets = _records(nm_a.collect_run(0)["packets"])
    assert len(packets) == 1
    assert packets[0]["direction"] == "tx"
    assert isinstance(packets[0]["payload"], str)  # wire-safe blob


def test_execute_action_dispatch_and_unknown(managed):
    _sim, _ch, nm_a, _nm_b, _rx = managed
    nm_a.register_action_handler("my_action", lambda params: params["v"] * 2)
    assert nm_a.execute_action("my_action", {"v": 21}) == 42
    with pytest.raises(LookupError):
        nm_a.execute_action("ghost", {})


def test_event_flag_handler(managed):
    sim, _ch, nm_a, _nm_b, _rx = managed
    nm_a.run_init(0)
    nm_a.execute_action("event_flag", {"value": "ready", "params": [1]})
    events = _records(nm_a.collect_run(0)["events"])
    assert events[-1]["name"] == "ready" and events[-1]["params"] == [1]


def test_generic_action_records_params(managed):
    _sim, _ch, nm_a, _nm_b, _rx = managed
    nm_a.run_init(0)
    nm_a.execute_action("generic", {"b": 2, "a": 1})
    events = _records(nm_a.collect_run(0)["events"])
    assert events[-1]["name"] == "generic_executed"
    assert events[-1]["params"] == ["a=1", "b=2"]


def test_fault_handlers_wired(managed):
    sim, _ch, nm_a, _nm_b, _rx = managed
    nm_a.run_init(0)
    fid = nm_a.execute_action("msg_loss_start", {"probability": 0.5})
    assert fid >= 1
    assert len(nm_a.node.interface.filters) == 1
    assert nm_a.execute_action("msg_loss_stop", {})
    assert len(nm_a.node.interface.filters) == 0


def test_traffic_start_stop(managed):
    sim, _ch, nm_a, nm_b, _rx = managed
    nm_a.run_init(0)
    nm_a.traffic_start(
        [{"peer_addr": nm_b.node.address, "rate_kbps": 200.0, "packet_size": 200}]
    )
    sim.run(until=1.0)
    assert nm_a.traffic_stop() == 1
    sent = [r for r in nm_a.node.capture.records if r["direction"] == "tx"]
    assert sent


def test_traffic_unknown_peer_raises(managed):
    _sim, _ch, nm_a, _nm_b, _rx = managed
    with pytest.raises(LookupError):
        nm_a.traffic_start([{"peer_addr": "10.9.9.9", "rate_kbps": 10}])


def test_drop_all_blocks_experiment_flow_only(managed):
    sim, _ch, nm_a, nm_b, _rx = managed
    got = []
    nm_b.node.bind(9, lambda pl, pkt, n: got.append(pkt.flow))
    nm_a.drop_all_start()
    nm_a.node.send_datagram("x", nm_b.node.address, 9, flow="experiment")
    nm_a.node.send_datagram("x", nm_b.node.address, 9, flow="generated-load")
    sim.run(until=0.5)
    assert got == ["generated-load"]
    nm_a.drop_all_stop()
    nm_a.node.send_datagram("x", nm_b.node.address, 9, flow="experiment")
    sim.run(until=1.0)
    assert "experiment" in got


def test_drop_all_idempotent(managed):
    _sim, _ch, nm_a, _nm_b, _rx = managed
    nm_a.drop_all_start()
    nm_a.drop_all_start()
    assert len(nm_a.node.interface.filters) == 1
    nm_a.drop_all_stop()
    nm_a.drop_all_stop()
    assert len(nm_a.node.interface.filters) == 0


def test_reset_environment_clears_everything(managed):
    sim, _ch, nm_a, nm_b, _rx = managed
    nm_a.run_init(0)
    nm_a.execute_action("msg_delay_start", {"delay": 0.1})
    nm_a.drop_all_start()
    nm_a.traffic_start([{"peer_addr": nm_b.node.address, "rate_kbps": 10}])
    nm_a.reset_environment()
    assert nm_a.node.interface.filters == []
    assert nm_a._flows == []


def test_set_address_emits_event(managed):
    sim, _ch, nm_a, _nm_b, _rx = managed
    nm_a.run_init(0)
    nm_a.set_address("10.1.0.99")
    assert nm_a.node.address == "10.1.0.99"
    events = _records(nm_a.collect_run(0)["events"])
    assert events[-1]["name"] == "address_changed"
    assert events[-1]["params"] == ["10.1.0.1", "10.1.0.99"]


def test_experiment_init_clears_prior_state(managed):
    sim, _ch, nm_a, _nm_b, _rx = managed
    nm_a.run_init(0)
    nm_a.emit("leftover")
    nm_a.experiment_init("fresh")
    assert nm_a.collect_run(0)["events"] == ""
    assert nm_a.current_run is None
    assert nm_a.node.tagger.tagged_count == 0
