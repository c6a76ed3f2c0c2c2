"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim.kernel import SimulationError, Simulator


def test_time_starts_at_zero(sim):
    assert sim.now == 0.0


def test_custom_start_time():
    assert Simulator(start_time=42.5).now == 42.5


def test_call_later_advances_time(sim):
    seen = []
    sim.call_later(1.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [1.5]


def test_call_at_absolute(sim):
    seen = []
    sim.call_later(1.0, lambda: sim.call_at(5.0, lambda: seen.append(sim.now)))
    sim.run()
    assert seen == [5.0]


def test_call_at_past_rejected(sim):
    sim.call_later(2.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.call_at(1.0, lambda: None)


def test_negative_delay_rejected(sim):
    with pytest.raises(SimulationError):
        sim.call_later(-0.1, lambda: None)


def test_call_later_passes_args(sim):
    seen = []
    sim.call_later(0.5, lambda *a: seen.append(a), "x", 7)
    sim.run()
    assert seen == [("x", 7)]


def test_call_at_passes_args(sim):
    seen = []
    sim.call_at(0.5, lambda *a: seen.append(a), "y", 8)
    sim.run()
    assert seen == [("y", 8)]


def test_args_survive_mixed_ordering(sim):
    # Args-carrying and closure-style events interleave deterministically.
    order = []
    sim.call_later(1.0, order.append, "args-a")
    sim.call_later(1.0, lambda: order.append("closure"))
    sim.call_later(1.0, order.append, "args-b")
    sim.run()
    assert order == ["args-a", "closure", "args-b"]


def test_fifo_order_at_same_instant(sim):
    order = []
    for i in range(5):
        sim.call_later(1.0, lambda i=i: order.append(i))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_time_order_across_instants(sim):
    order = []
    sim.call_later(3.0, lambda: order.append("c"))
    sim.call_later(1.0, lambda: order.append("a"))
    sim.call_later(2.0, lambda: order.append("b"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_run_until_horizon(sim):
    seen = []
    sim.call_later(1.0, lambda: seen.append("early"))
    sim.call_later(10.0, lambda: seen.append("late"))
    sim.run(until=5.0)
    assert seen == ["early"]
    assert sim.now == 5.0
    assert sim.pending == 1


def test_run_until_advances_clock_even_with_empty_queue(sim):
    sim.run(until=7.0)
    assert sim.now == 7.0


def test_run_until_event_returns_value(sim):
    ev = sim.event()
    sim.call_later(2.0, lambda: ev.trigger("payload"))
    sim.call_later(50.0, lambda: None)
    assert sim.run(until_event=ev) == "payload"
    assert sim.now == pytest.approx(2.0)


def test_step_returns_false_when_empty(sim):
    assert sim.step() is False


def test_executed_callbacks_counter(sim):
    for _ in range(3):
        sim.call_later(0.1, lambda: None)
    sim.run()
    assert sim.executed_callbacks == 3


def test_crash_raises_simulation_error(sim):
    def boom():
        yield sim.timeout(1.0)
        raise RuntimeError("bang")

    sim.process(boom())
    with pytest.raises(SimulationError, match="bang"):
        sim.run()


def test_realtime_factor_paces_wall_clock():
    import time

    sim = Simulator()
    seen = []
    sim.call_later(0.05, lambda: seen.append(sim.now))
    t0 = time.monotonic()
    sim.run(realtime_factor=1.0)
    elapsed = time.monotonic() - t0
    assert seen == [0.05]
    assert elapsed >= 0.04  # paced, not instantaneous


def test_realtime_factor_speedup_is_faster():
    import time

    sim = Simulator()
    sim.call_later(0.2, lambda: None)
    t0 = time.monotonic()
    sim.run(realtime_factor=10.0)
    assert time.monotonic() - t0 < 0.15


@pytest.mark.parametrize(
    "fire_at, last_at, expected_now, expected_value",
    [
        (2.0, 9.0, 2.0, "fired"),  # the event fires first: the clock stays
        (8.0, 9.0, 5.0, None),  # the horizon comes first
        (None, 3.0, 5.0, None),  # the queue drains first
    ],
    ids=["event-first", "horizon-first", "drain-first"],
)
def test_run_until_with_until_event_endings(
    sim, fire_at, last_at, expected_now, expected_value
):
    ev = sim.event()
    if fire_at is not None:
        sim.call_later(fire_at, ev.trigger, "fired")
    sim.call_later(last_at, lambda: None)
    assert sim.run(until=5.0, until_event=ev) == expected_value
    assert sim.now == expected_now


@pytest.mark.parametrize("with_event", [False, True])
def test_run_until_a_past_horizon_keeps_the_clock(sim, with_event):
    sim.call_later(5.0, lambda: None)
    sim.call_later(9.0, lambda: None)
    sim.run(until=5.0)
    sim.run(until=3.0, until_event=sim.event() if with_event else None)
    assert sim.now == 5.0
    assert sim.pending == 1
