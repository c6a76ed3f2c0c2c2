"""Unit tests for the XML-RPC control channel."""

import pytest

from repro.core.errors import RpcError, RpcFault
from repro.core.rpc import ControlChannel, RpcServer


def _server(name="node"):
    server = RpcServer(name)
    server.register_function(lambda x, y: x + y, "add")
    server.register_function(lambda: {"k": [1, 2.5, "s", None]}, "blob")

    def fail():
        raise ValueError("remote boom")

    server.register_function(fail, "fail")
    return server


def _call(sim, channel, node, method, *args):
    """Drive one RPC to completion; returns (result, completion_time)."""
    box = {}

    def proc():
        box["result"] = yield from channel.call(node, method, *args)
        box["time"] = sim.now

    p = sim.process(proc())
    sim.run(until_event=p)
    return box.get("result"), box.get("time")


def test_roundtrip_result(sim):
    channel = ControlChannel(sim, latency=0.001)
    channel.add_node("n", _server())
    result, t = _call(sim, channel, "n", "add", 2, 3)
    assert result == 5
    assert t == pytest.approx(0.002)  # two one-way latencies


def test_complex_values_cross_the_wire(sim):
    channel = ControlChannel(sim, latency=0.0)
    channel.add_node("n", _server())
    result, _ = _call(sim, channel, "n", "blob")
    assert result == {"k": [1, 2.5, "s", None]}


def test_remote_exception_becomes_fault(sim):
    channel = ControlChannel(sim, latency=0.0)
    channel.add_node("n", _server())

    def proc():
        yield from channel.call("n", "fail")

    sim.process(proc())
    with pytest.raises(Exception) as info:
        sim.run()
    assert "remote boom" in str(info.value)


def test_unknown_method_is_fault(sim):
    channel = ControlChannel(sim, latency=0.0)
    channel.add_node("n", _server())

    box = {}

    def proc():
        try:
            yield from channel.call("n", "nosuch")
        except RpcFault as exc:
            box["fault"] = exc.fault_code

    p = sim.process(proc())
    sim.run(until_event=p)
    assert box["fault"] == 404


def test_unknown_node_raises_transport_error(sim):
    channel = ControlChannel(sim)
    gen = channel.call("ghost", "x")
    with pytest.raises(RpcError):
        next(gen)


def test_duplicate_node_rejected(sim):
    channel = ControlChannel(sim)
    channel.add_node("n", _server())
    with pytest.raises(RpcError):
        channel.add_node("n", _server())


def test_per_node_locking_serializes_calls(sim):
    """Two concurrent callers to one node are served strictly in request
    arrival order (the paper's per-node lock)."""
    order = []
    server = RpcServer("n")
    server.register_function(lambda tag: order.append(tag) or tag, "mark")
    channel = ControlChannel(sim, latency=0.001)
    channel.add_node("n", server)

    def caller(tag, start_delay):
        yield sim.timeout(start_delay)
        yield from channel.call("n", "mark", tag)

    sim.process(caller("first", 0.0))
    sim.process(caller("second", 0.0001))
    sim.run()
    assert order == ["first", "second"]


def test_calls_to_different_nodes_parallel(sim):
    channel = ControlChannel(sim, latency=0.01)
    channel.add_node("a", _server("a"))
    channel.add_node("b", _server("b"))
    times = {}

    def caller(node):
        yield from channel.call(node, "add", 1, 1)
        times[node] = sim.now

    sim.process(caller("a"))
    sim.process(caller("b"))
    sim.run()
    # Both complete after one RTT; not 2 RTT as strict serialization would.
    assert times["a"] == pytest.approx(0.02)
    assert times["b"] == pytest.approx(0.02)


def test_jitter_requires_rng(sim):
    with pytest.raises(ValueError):
        ControlChannel(sim, jitter=0.1)


def test_jitter_varies_latency(sim, rngs):
    channel = ControlChannel(sim, latency=0.001, jitter=0.005, rng=rngs.stream("j"))
    channel.add_node("n", _server())
    times = []
    for _ in range(5):
        _, t0 = None, sim.now
        _, t = _call(sim, channel, "n", "add", 1, 1)
        times.append(t - t0)
    assert len({round(t, 9) for t in times}) > 1


def test_cast_to_master_delivers_decoded_payload(sim):
    channel = ControlChannel(sim, latency=0.001)
    received = []
    channel.set_master_handler(received.append)
    channel.cast_to_master({"name": "ev", "params": [1, "a", None]})
    sim.run()
    assert received == [{"name": "ev", "params": [1, "a", None]}]


def test_cast_to_master_carries_what_a_level2_line_carries(sim):
    """The upcall is the record's level-2 line: what an XML-RPC struct
    rejected (ints >= 2**31) or normalised (``\\r``, control characters)
    arrives as sent."""
    channel = ControlChannel(sim, latency=0.001)
    received = []
    channel.set_master_handler(received.append)
    payload = {"name": "ev", "params": [2**40, "a\r\nb", "\x01"], "local_time": 0.1 + 0.2}
    channel.cast_to_master(payload)
    sim.run()
    assert received == [payload]


def test_cast_to_master_refuses_an_unencodable_payload_at_the_node(sim):
    channel = ControlChannel(sim, latency=0.001)
    channel.set_master_handler(lambda payload: None)
    with pytest.raises(TypeError):
        channel.cast_to_master({"name": "ev", "params": [object()]})
    assert sim.run() is None and sim.executed_callbacks == 0  # nothing was sent


def test_cast_without_master_handler_raises(sim):
    channel = ControlChannel(sim)
    with pytest.raises(RpcError):
        channel.cast_to_master({})


def test_unserializable_argument_fails_loudly(sim):
    channel = ControlChannel(sim, latency=0.0)
    channel.add_node("n", _server())
    gen = channel.call("n", "add", object(), 1)
    with pytest.raises(TypeError):
        next(gen)


def test_completed_calls_counter(sim):
    channel = ControlChannel(sim, latency=0.0)
    channel.add_node("n", _server())
    _call(sim, channel, "n", "add", 1, 2)
    _call(sim, channel, "n", "add", 3, 4)
    assert channel.completed_calls == 2
