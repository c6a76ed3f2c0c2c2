"""Unit tests for the framed socket transport and shipping codec."""

import base64
import socket
import socketserver
import threading
import time

import pytest

from repro.core.errors import RpcError, RpcFault, RpcTimeout
from repro.core.rpc import RpcServer
from repro.fabric.shipping import decode_payload, encode_payload
from repro.fabric.wire import FleetChannel, FleetServer, parse_address


def _server(methods):
    rpc = RpcServer("test")
    for name, fn in methods.items():
        rpc.register_function(fn, name)
    return FleetServer("127.0.0.1", 0, rpc)


def test_parse_address():
    assert parse_address("127.0.0.1:8080") == ("127.0.0.1", 8080)
    with pytest.raises(RpcError):
        parse_address("no-port")
    with pytest.raises(RpcError):
        parse_address(":123")


def test_roundtrip_and_remote_fault():
    def boom():
        raise ValueError("kaput")

    with _server({"echo": lambda x: x, "boom": boom}) as server:
        address = "%s:%d" % server.address
        with FleetChannel(address) as channel:
            assert channel.call("echo", "hello") == "hello"
            assert channel.call("echo", 41) == 41
            with pytest.raises(RpcFault):
                channel.call("boom")
            # The connection survives a fault and keeps serving.
            assert channel.call("echo", "still-up") == "still-up"


def test_concurrent_clients_are_isolated():
    with _server({"echo": lambda x: x}) as server:
        address = "%s:%d" % server.address
        results = {}

        def hammer(tag):
            with FleetChannel(address) as channel:
                results[tag] = [channel.call("echo", f"{tag}-{i}") for i in range(20)]

        threads = [threading.Thread(target=hammer, args=(t,)) for t in ("a", "b", "c")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for tag, replies in results.items():
            assert replies == [f"{tag}-{i}" for i in range(20)]


def test_stop_does_not_wait_out_a_poll(monkeypatch):
    # A stop wakes the serving loop: even a 5 s select poll, were the loop
    # still socketserver's, would not hold it.
    serve_forever = socketserver.BaseServer.serve_forever
    monkeypatch.setattr(
        socketserver.BaseServer,
        "serve_forever",
        lambda self, poll_interval=0.5: serve_forever(self, poll_interval=5.0),
    )
    server = _server({"echo": lambda x: x}).start()
    with FleetChannel("%s:%d" % server.address) as channel:
        assert channel.call("echo", "up") == "up"
    started = time.monotonic()
    server.stop()
    assert time.monotonic() - started < 1.0
    with pytest.raises(OSError):
        socket.create_connection(server.address, timeout=1.0)


def test_timeout_raises_after_retry_budget():
    lock = threading.Lock()
    lock.acquire()

    def wedge():
        with lock:  # blocks until the test releases it
            return True

    with _server({"wedge": wedge}) as server:
        address = "%s:%d" % server.address
        slept = []
        channel = FleetChannel(address, call_timeout=0.2, sleep=slept.append)
        with pytest.raises(RpcTimeout):
            channel.call("wedge")
        # The final attempt raises instead of sleeping again.
        assert len(slept) == channel.retry.max_attempts - 1
        lock.release()
        channel.close()


def test_reconnect_budget_rides_out_a_restart():
    # Nothing listens on this port yet: the first call keeps retrying
    # connection refusals until the server appears (coordinator restart).
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    address = f"127.0.0.1:{port}"

    server = _server({"echo": lambda x: x})._server  # not started
    server.server_close()

    started = threading.Event()

    def come_up_late():
        started.wait()
        with FleetServer("127.0.0.1", port, _late_rpc()) as late:
            done.wait(5.0)

    def _late_rpc():
        rpc = RpcServer("late")
        rpc.register_function(lambda x: x, "echo")
        return rpc

    done = threading.Event()
    thread = threading.Thread(target=come_up_late, daemon=True)
    thread.start()

    channel = FleetChannel(address, call_timeout=1.0, reconnect_budget=10.0)
    started.set()
    try:
        assert channel.call("echo", "survived") == "survived"
    finally:
        done.set()
        channel.close()
        thread.join(timeout=5.0)


def test_unreachable_past_budget_raises_rpc_error():
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    channel = FleetChannel(
        f"127.0.0.1:{port}",
        call_timeout=0.2,
        reconnect_budget=0.3,
        sleep=lambda s: None,
    )
    with pytest.raises(RpcError):
        channel.call("echo", 1)


def test_payload_codec_roundtrips_bytes_and_floats():
    payload = {
        "image": base64.b64encode(b"\x00\xff\x80").decode("ascii"),  # bytes ride as text
        "duration": 1.5,
        "floats": [0.1 + 0.2, 1e-9],  # bit-exact through repr
        "big": 1 << 40,  # would overflow plain XML-RPC i4 marshalling
    }
    assert decode_payload(encode_payload(payload)) == payload


def test_payload_codec_rejects_unshippable_values():
    with pytest.raises(TypeError):
        encode_payload({"bad": object()})


# ----------------------------------------------------------------------
# Decorrelated-jitter reconnect backoff
# ----------------------------------------------------------------------
def test_backoff_every_delay_within_bounds():
    from repro.fabric.wire import ReconnectBackoff

    backoff = ReconnectBackoff(base=0.05, cap=2.0, seed=7)
    delays = [backoff.next() for _ in range(500)]
    assert all(0.05 <= d <= 2.0 for d in delays)
    # The jitter actually spreads (not a constant schedule) and reaches
    # the cap region under sustained failure.
    assert len({round(d, 6) for d in delays}) > 100
    assert max(delays) > 1.0


def test_backoff_seeded_determinism_and_decorrelation():
    from repro.fabric.wire import ReconnectBackoff

    a_gen, b_gen, c_gen = (
        ReconnectBackoff(seed=42),
        ReconnectBackoff(seed=42),
        ReconnectBackoff(seed=43),
    )
    a = [a_gen.next() for _ in range(50)]
    b = [b_gen.next() for _ in range(50)]
    c = [c_gen.next() for _ in range(50)]
    assert a == b  # same seed, same schedule — reproducible chaos drills
    assert a != c  # different workers de-phase


def test_backoff_reset_returns_to_base():
    from repro.fabric.wire import ReconnectBackoff

    backoff = ReconnectBackoff(base=0.1, cap=5.0, seed=1)
    for _ in range(20):
        backoff.next()
    backoff.reset()
    # First post-reset delay is drawn from [base, 3*base].
    assert 0.1 <= backoff.next() <= 0.3


def test_channel_backoff_is_the_same_in_every_process():
    """A worker's reconnect jitter derives from its label alone, not from
    the per-process salt of ``str`` hashes."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    script = (
        "from repro.fabric.wire import FleetChannel\n"
        "backoff = FleetChannel('127.0.0.1:1', label='w0').backoff\n"
        "print([round(backoff.next(), 6) for _ in range(4)])\n"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    outputs = {
        subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
            capture_output=True, text=True, check=True,
        ).stdout
        for seed in ("1", "2")
    }
    assert len(outputs) == 1, outputs


def test_backoff_rejects_bad_bounds():
    from repro.fabric.wire import ReconnectBackoff

    with pytest.raises(RpcError):
        ReconnectBackoff(base=0.0)
    with pytest.raises(RpcError):
        ReconnectBackoff(base=1.0, cap=0.5)


# ----------------------------------------------------------------------
# Partition gate
# ----------------------------------------------------------------------
def test_partition_gate_directional_and_wildcards():
    from repro.fabric.wire import PartitionGate

    gate = PartitionGate()
    gate.partition("w1", "10.0.0.1:9")
    assert gate.blocked("w1", "10.0.0.1:9")
    assert not gate.blocked("w2", "10.0.0.1:9")  # asymmetric: only w1 cut
    assert not gate.blocked("w1", "10.0.0.2:9")
    gate.partition("*", "10.0.0.9:9")
    assert gate.blocked("anyone", "10.0.0.9:9")
    gate.heal(dst="10.0.0.9:9")
    assert not gate.blocked("anyone", "10.0.0.9:9")
    assert gate.blocked("w1", "10.0.0.1:9")  # unrelated rule survives
    gate.heal()
    assert not gate.blocked("w1", "10.0.0.1:9")


def test_partition_gate_blocks_channel_and_heals(tmp_path):
    from repro.fabric.wire import (
        PartitionGate,
        clear_partition_gate,
        install_partition_gate,
    )

    with _server({"echo": lambda x: x}) as server:
        address = "%s:%d" % server.address
        gate = install_partition_gate(PartitionGate())
        try:
            gate.partition("w1", address)
            cut = FleetChannel(
                address, label="w1", call_timeout=1.0,
                reconnect_budget=0.2, sleep=lambda s: None,
            )
            with pytest.raises(RpcError):
                cut.call("echo", 1)
            # Another worker's traffic flows: the cut is per-source.
            with FleetChannel(address, label="w2") as open_channel:
                assert open_channel.call("echo", 2) == 2
            gate.heal(src="w1")
            assert cut.call("echo", 3) == 3
            cut.close()
        finally:
            clear_partition_gate()
