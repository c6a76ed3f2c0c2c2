"""Framework overheads (Sec. VI feasibility).

Measures the machinery the prototype section describes, in isolation:

* XML-RPC control-channel round trips (marshalling + per-node locking),
* event bus registration + watcher matching throughput,
* simulation kernel callback throughput,
* conditioning throughput over a large synthetic run,
* packet tagger throughput.
"""


from repro.core.events import EventBus, EventPattern, ExEvent
from repro.core.rpc import ControlChannel, RetryPolicy, RpcServer
from repro.net.packet import Packet
from repro.net.tagger import PacketTagger
from repro.sim.kernel import Simulator
from repro.storage.conditioning import _condition_stream, _merge_streams


def _hundred_calls(**channel_kw):
    """100 sequential echo calls on a fresh kernel; returns the kernel."""
    sim = Simulator()
    channel = ControlChannel(sim, latency=0.0001, **channel_kw)
    server = RpcServer("n")
    server.register_function(lambda x: x, "echo")
    channel.add_node("n", server)

    def caller():
        for i in range(100):
            yield from channel.call("n", "echo", i)

    proc = sim.process(caller())
    sim.run(until_event=proc)
    assert channel.completed_calls == 100
    return sim


def test_rpc_roundtrip_throughput(benchmark):
    sim = benchmark(_hundred_calls)
    # Per call: request, reply, unlock, resume (plus the caller's start).
    assert sim.executed_callbacks == 1 + 4 * 100


def test_rpc_roundtrip_with_deadline_throughput(benchmark):
    """The path every simulated platform takes: a 30 s deadline and a
    retry policy.  The deadline adds one relay hop per call; its own
    kernel entry is still pending when the call returns."""
    sim = benchmark(_hundred_calls, call_timeout=30.0, retry=RetryPolicy(seed=0))
    assert sim.executed_callbacks == 1 + 5 * 100
    assert sim.pending == 100


def test_event_bus_throughput(benchmark):
    sim = Simulator()

    def register_thousand():
        bus = EventBus(sim)
        # A realistic mix: some waiters armed, most events uninteresting.
        for i in range(10):
            bus.watch(EventPattern(name=f"target{i}", run_id=0))
        for i in range(1000):
            bus.register(ExEvent(name=f"e{i % 50}", node="n", local_time=float(i),
                                 run_id=0))
        return bus

    bus = benchmark(register_thousand)
    assert len(bus.log) == 1000


def test_kernel_callback_throughput(benchmark):
    def schedule_and_drain():
        sim = Simulator()
        for i in range(5000):
            sim.call_later(i * 0.001, lambda: None)
        sim.run()
        return sim

    sim = benchmark(schedule_and_drain)
    assert sim.executed_callbacks == 5000


def test_kernel_trigger_throughput(benchmark):
    """The (fn, args) heap-entry fast path: scheduling a trigger and its
    waiter resumption allocates no per-event lambdas.  ``executed_callbacks``
    counts both the trigger and the callback delivery per event."""

    def trigger_and_deliver():
        sim = Simulator()
        sink = []
        for i in range(5000):
            ev = sim.event(name="bench")
            ev.add_callback(sink.append)
            sim._schedule_trigger(ev, i * 0.001, i)
        sim.run()
        assert len(sink) == 5000
        return sim

    sim = benchmark(trigger_and_deliver)
    # One heap pop for each trigger and one for each callback delivery.
    assert sim.executed_callbacks == 10_000


def test_conditioning_throughput(benchmark):
    records = [
        {"name": f"e{i}", "node": f"n{i % 8}", "local_time": i * 0.01,
         "run_id": 0, "seq": i}
        for i in range(10_000)
    ]
    offsets = {f"n{i}": (i - 4) * 0.123 for i in range(8)}

    # Conditioning works in place; a second pass over the same dicts
    # recomputes the same common times, so every round does the same work.
    out = benchmark(lambda: _merge_streams([_condition_stream(records, offsets, 0)]))
    assert len(out) == len(records)
    times = [r["common_time"] for r in out]
    assert times == sorted(times)


def test_tagger_throughput(benchmark):
    tagger = PacketTagger("n")

    def tag_many():
        for _ in range(10_000):
            packet = Packet(src_addr="a", dst_addr="b", src_port=1,
                            dst_port=2, payload=None)
            tagger.tag(packet)
        return tagger

    tagger = benchmark(tag_many)
    assert tagger.tagged_count >= 10_000
