"""Unit tests for the waitable event primitives."""

import pytest

from repro.sim.events import EventAlreadyTriggered, ensure_waitable


def test_trigger_sets_state_and_value(sim):
    ev = sim.event("e")
    assert not ev.triggered and ev.value is None
    ev.trigger(41)
    assert ev.triggered and ev.value == 41


def test_double_trigger_rejected(sim):
    ev = sim.event()
    ev.trigger()
    with pytest.raises(EventAlreadyTriggered):
        ev.trigger()


def test_callbacks_run_asynchronously(sim):
    ev = sim.event()
    seen = []
    ev.add_callback(lambda e: seen.append(e.value))
    ev.trigger("v")
    assert seen == []  # not re-entrant
    sim.run()
    assert seen == ["v"]


def test_callback_after_trigger_still_fires(sim):
    ev = sim.event()
    ev.trigger("v")
    seen = []
    ev.add_callback(lambda e: seen.append(e.value))
    sim.run()
    assert seen == ["v"]


def test_discard_callback(sim):
    ev = sim.event()
    seen = []
    cb = lambda e: seen.append(1)  # noqa: E731
    ev.add_callback(cb)
    ev.discard_callback(cb)
    ev.trigger()
    sim.run()
    assert seen == []


def test_timeout_delivers_delay_as_value(sim):
    results = []

    def proc():
        value = yield sim.timeout(2.5)
        results.append((sim.now, value))

    sim.process(proc())
    sim.run()
    assert results == [(2.5, 2.5)]


def test_timeout_custom_value(sim):
    results = []

    def proc():
        value = yield sim.timeout(1.0, value="custom")
        results.append(value)

    sim.process(proc())
    sim.run()
    assert results == ["custom"]


def test_negative_timeout_rejected(sim):
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_any_of_first_wins(sim):
    results = []

    def proc():
        fast = sim.timeout(1.0, value="fast")
        slow = sim.timeout(5.0, value="slow")
        fired, value = yield sim.any_of(slow, fast)
        results.append((fired is fast, value, sim.now))

    sim.process(proc())
    sim.run()
    assert results == [(True, "fast", 1.0)]


def test_any_of_with_pretriggered_child(sim):
    ev = sim.event()
    ev.trigger("early")
    results = []

    def proc():
        fired, value = yield sim.any_of(ev, sim.timeout(10.0))
        results.append((fired is ev, value))

    sim.process(proc())
    sim.run(until=1.0)
    assert results == [(True, "early")]


def test_all_of_collects_values_in_order(sim):
    results = []

    def proc():
        a = sim.timeout(3.0, value="a")
        b = sim.timeout(1.0, value="b")
        values = yield sim.all_of(a, b)
        results.append((values, sim.now))

    sim.process(proc())
    sim.run()
    assert results == [(["a", "b"], 3.0)]


def test_all_of_with_already_triggered(sim):
    ev = sim.event()
    ev.trigger("pre")
    results = []

    def proc():
        values = yield sim.all_of(ev, sim.timeout(1.0, value="t"))
        results.append(values)

    sim.process(proc())
    sim.run()
    assert results == [["pre", 1.0 if False else "t"]] or results == [["pre", "t"]]


def test_condition_requires_children(sim):
    with pytest.raises(ValueError):
        sim.any_of()
    with pytest.raises(ValueError):
        sim.all_of()


def test_ensure_waitable_rejects_non_events(sim):
    with pytest.raises(TypeError):
        ensure_waitable(42)
    assert ensure_waitable(sim.event()) is not None


def test_uid_is_creation_ordered(sim):
    a, b = sim.event(), sim.event()
    assert a.uid < b.uid
