"""Unit tests for the control-plane resilience layer (DESIGN.md §10):
retry policy determinism, and per-call deadlines and their kernel
schedule.
"""

import gc

import pytest

from repro.core.errors import (
    RpcError,
    RpcFault,
    RpcTimeout,
    extract_node_id,
    node_token,
)
from repro.core.rpc import (
    IDEMPOTENT_METHODS,
    ControlChannel,
    RetryPolicy,
    RpcServer,
)
from repro.sim.events import AnyOf, Timeout
from repro.sim.process import Interrupt


# ----------------------------------------------------------------------
# RetryPolicy
# ----------------------------------------------------------------------
def test_backoff_deterministic_across_constructions():
    a = RetryPolicy(max_attempts=6, seed=42)
    b = RetryPolicy(max_attempts=6, seed=42)
    assert a.delays() == b.delays()


def test_backoff_differs_across_seeds():
    a = RetryPolicy(max_attempts=6, seed=1)
    b = RetryPolicy(max_attempts=6, seed=2)
    assert a.delays() != b.delays()


def test_reseed_replays_the_jitter_stream():
    policy = RetryPolicy(max_attempts=5, seed=7)
    first = policy.delays()
    policy.reseed(7)
    assert policy.delays() == first


def test_backoff_grows_and_caps():
    policy = RetryPolicy(
        max_attempts=10,
        base_delay=0.1,
        multiplier=2.0,
        max_delay=0.5,
        jitter_fraction=0.0,
        seed=0,
    )
    delays = policy.delays()
    assert delays[0] == pytest.approx(0.1)
    assert delays[1] == pytest.approx(0.2)
    assert max(delays) == pytest.approx(0.5)  # capped, not 0.1 * 2**8


def test_jitter_bounded_by_fraction():
    policy = RetryPolicy(
        max_attempts=50,
        base_delay=1.0,
        multiplier=1.0,
        max_delay=1.0,
        jitter_fraction=0.5,
        seed=3,
    )
    for d in policy.delays():
        assert 1.0 <= d <= 1.5


def test_zero_attempts_rejected():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)


# ----------------------------------------------------------------------
# Node tokens
# ----------------------------------------------------------------------
def test_node_token_roundtrip():
    assert extract_node_id(f"boom: {node_token('t9-105')} gone") == "t9-105"
    assert extract_node_id("no token here") is None
    assert extract_node_id("") is None


# ----------------------------------------------------------------------
# Deadlines and retries on the channel
# ----------------------------------------------------------------------
def _node(name="n"):
    server = RpcServer(name)
    server.register_function(lambda: 1, "ping")
    server.register_function(lambda: {"node_id": name}, "hostinfo")
    server.register_function(lambda name, params: 0, "execute_action")
    return server


def _drive(sim, gen):
    """Run one channel call to completion; returns (result, error)."""
    box = {}

    def proc():
        try:
            box["result"] = yield from gen
        except RpcError as exc:
            box["error"] = exc

    p = sim.process(proc())
    sim.run(until_event=p)
    return box.get("result"), box.get("error")


def test_hung_node_times_out_with_node_token(sim):
    channel = ControlChannel(
        sim, latency=0.001, call_timeout=0.05, retry=RetryPolicy(max_attempts=3, seed=0)
    )
    channel.add_node("n", _node())
    channel.set_node_down("n", "hang")
    _, error = _drive(sim, channel.call("n", "ping"))
    assert isinstance(error, RpcTimeout)
    assert extract_node_id(str(error)) == "n"
    assert channel.timed_out_calls == 3
    assert channel.retried_calls == 2


def test_dropped_reply_recovered_by_retry(sim):
    channel = ControlChannel(
        sim, latency=0.001, call_timeout=0.05, retry=RetryPolicy(max_attempts=3, seed=0)
    )
    channel.add_node("n", _node())
    channel.add_call_fault("n", "drop_reply", method="ping", count=1)
    result, error = _drive(sim, channel.call("n", "ping"))
    assert error is None and result == 1
    assert channel.timed_out_calls == 1
    assert channel.retried_calls == 1
    assert channel.completed_calls == 1


def test_non_idempotent_method_never_retried(sim):
    assert "execute_action" not in IDEMPOTENT_METHODS
    channel = ControlChannel(
        sim, latency=0.001, call_timeout=0.05, retry=RetryPolicy(max_attempts=3, seed=0)
    )
    channel.add_node("n", _node())
    channel.add_call_fault("n", "drop_reply", method="execute_action", count=1)
    _, error = _drive(sim, channel.call("n", "execute_action", "x", {}))
    assert isinstance(error, RpcTimeout)
    assert channel.retried_calls == 0


def test_refused_node_fails_with_transport_fault_after_retries(sim):
    channel = ControlChannel(
        sim, latency=0.001, call_timeout=0.05, retry=RetryPolicy(max_attempts=2, seed=0)
    )
    channel.add_node("n", _node())
    channel.set_node_down("n", "refuse")
    _, error = _drive(sim, channel.call("n", "ping"))
    assert isinstance(error, RpcFault)
    assert error.fault_code == 503
    assert extract_node_id(str(error)) == "n"
    assert channel.retried_calls == 1


def test_restore_node_lifts_the_fault(sim):
    channel = ControlChannel(
        sim, latency=0.001, call_timeout=0.05, retry=RetryPolicy(max_attempts=2, seed=0)
    )
    channel.add_node("n", _node())
    channel.set_node_down("n", "hang")
    channel.restore_node("n")
    result, error = _drive(sim, channel.call("n", "ping"))
    assert error is None and result == 1


def test_zero_timeout_keeps_historical_behavior(sim):
    """Deadline 0 = the pre-resilience channel: no extra events, no
    retries, identical completion time."""
    channel = ControlChannel(sim, latency=0.001)
    channel.add_node("n", _node())
    result, error = _drive(sim, channel.call("n", "ping"))
    assert error is None and result == 1
    assert sim.now == pytest.approx(0.002)
    assert channel.timed_out_calls == 0


# ----------------------------------------------------------------------
# Schedule pins: what a call pushes into the kernel, per fault shape
# ----------------------------------------------------------------------
def _refuse_then_restore(sim, channel, proc):
    channel.set_node_down("n", "refuse")
    sim.call_later(0.01, channel.restore_node, "n")


def _partition_replies_then_heal(sim, channel, proc):
    channel.partition_node("n", "reply")
    sim.call_later(0.08, channel.heal_partition, "n")


#: case -> (one-way latency, fault set-up).  The deadline is 0.05 s: a
#: 0.03 s latency answers after it expires, a 0.025 s one in its instant.
SCHEDULE_CASES = {
    "clean": (0.001, lambda sim, channel, proc: None),
    "hang": (0.001, lambda sim, channel, proc: channel.set_node_down("n", "hang")),
    "refuse": (0.001, _refuse_then_restore),
    "drop_request": (0.001, lambda sim, ch, proc: ch.add_call_fault("n", "drop_request")),
    "drop_reply": (0.001, lambda sim, ch, proc: ch.add_call_fault("n", "drop_reply")),
    "late_reply": (0.03, lambda sim, channel, proc: None),
    "same_instant": (0.025, lambda sim, channel, proc: None),
    "reply_partition": (0.001, _partition_replies_then_heal),
    "interrupt": (0.001, lambda sim, ch, proc: sim.call_later(0.0015, proc.interrupt, "wd")),
}

#: (case, deadline) -> (outcome, sim.now, executed_callbacks, pending,
#: timed_out_calls, retried_calls) when the caller settles, then
#: (sim.now, executed_callbacks) once the kernel drained.  Recorded on the
#: ``Timeout`` + ``AnyOf`` channel; the call path must keep every entry.
SCHEDULE_PINS = {
    ("clean", True): ("ok", 0.002, 6, 1, 0, 0, 0.05, 7),
    ("clean", False): ("ok", 0.002, 5, 0, 0, 0, 0.002, 5),
    ("hang", True): ("timeout", 0.359008266, 17, 0, 3, 2, 0.359008266, 17),
    ("hang", False): ("blocked", 0.001, 2, 0, 0, 0, 0.001, 2),
    ("refuse", True): ("ok", 0.074110546, 13, 1, 0, 1, 0.122110546, 14),
    ("refuse", False): ("fault 503", 0.001, 3, 1, 0, 0, 0.01, 4),
    ("drop_request", True): ("ok", 0.123110546, 12, 1, 1, 1, 0.171110546, 13),
    ("drop_request", False): ("blocked", 0.001, 2, 0, 0, 0, 0.001, 2),
    ("drop_reply", True): ("ok", 0.123110546, 13, 1, 1, 1, 0.171110546, 14),
    ("drop_reply", False): ("blocked", 0.001, 3, 0, 0, 0, 0.001, 3),
    ("late_reply", True): ("timeout", 0.359008266, 22, 1, 3, 2, 0.369008266, 23),
    ("late_reply", False): ("ok", 0.06, 5, 0, 0, 0, 0.06, 5),
    ("same_instant", True): ("ok", 0.05, 8, 0, 0, 0, 0.05, 8),
    ("same_instant", False): ("ok", 0.05, 5, 0, 0, 0, 0.05, 5),
    ("reply_partition", True): ("ok", 0.123110546, 14, 1, 1, 1, 0.171110546, 15),
    ("reply_partition", False): ("blocked", 0.08, 4, 0, 0, 0, 0.08, 4),
    ("interrupt", True): ("interrupted", 0.0015, 5, 2, 0, 0, 0.05, 8),
    ("interrupt", False): ("interrupted", 0.0015, 5, 1, 0, 0, 0.002, 6),
}


@pytest.mark.parametrize("case, deadline", sorted(SCHEDULE_PINS))
def test_call_schedule_is_pinned(sim, case, deadline):
    latency, arm = SCHEDULE_CASES[case]
    channel = ControlChannel(
        sim,
        latency=latency,
        call_timeout=0.05 if deadline else 0.0,
        retry=RetryPolicy(max_attempts=3, seed=0),
    )
    channel.add_node("n", _node())
    box = {"outcome": "blocked"}

    def caller():
        try:
            assert (yield from channel.call("n", "ping")) == 1
            box["outcome"] = "ok"
        except RpcTimeout:
            box["outcome"] = "timeout"
        except RpcFault as exc:
            box["outcome"] = f"fault {exc.fault_code}"
        except Interrupt:
            box["outcome"] = "interrupted"

    proc = sim.process(caller())
    arm(sim, channel, proc)
    sim.run(until_event=proc)
    row = (box["outcome"], round(sim.now, 9), sim.executed_callbacks, sim.pending)
    row += (channel.timed_out_calls, channel.retried_calls)
    sim.run()
    assert row + (round(sim.now, 9), sim.executed_callbacks) == SCHEDULE_PINS[case, deadline]


def test_clean_call_with_deadline_builds_no_timeout_or_any_of(sim, monkeypatch):
    built = []
    for cls in (Timeout, AnyOf):
        init = cls.__init__
        monkeypatch.setattr(
            cls,
            "__init__",
            lambda self, *a, _init=init, **kw: built.append(type(self)) or _init(self, *a, **kw),
        )
    channel = ControlChannel(sim, latency=0.001, call_timeout=30.0, retry=RetryPolicy(seed=0))
    channel.add_node("n", _node())
    assert _drive(sim, channel.call("n", "ping")) == (1, None)
    assert built == []


def test_deadline_entry_keeps_no_reply_alive(sim):
    """The deadline stays pending in the kernel after the call returns;
    the reply must not stay alive with it."""
    replies = []
    server = _node()
    handle = server.handle_request
    server.handle_request = lambda request_xml: replies.append(handle(request_xml)) or replies[-1]
    channel = ControlChannel(sim, latency=0.001, call_timeout=30.0)
    channel.add_node("n", server)
    assert _drive(sim, channel.call("n", "hostinfo")) == ({"node_id": "n"}, None)
    assert sim.pending == 1  # the deadline
    gc.collect()
    assert [ref for ref in gc.get_referrers(replies[0]) if ref is not replies] == []


def test_bad_down_mode_rejected(sim):
    channel = ControlChannel(sim)
    with pytest.raises(RpcError):
        channel.set_node_down("n", "explode")
    with pytest.raises(RpcError):
        channel.add_call_fault("n", "drop_everything")
