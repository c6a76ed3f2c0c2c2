"""Unit tests for the ExCovery event model, bus and dependency matching."""

import pytest

from repro.core.events import EventBus, EventPattern, ExEvent


def _ev(name="e", node="n1", t=1.0, params=(), run_id=0):
    return ExEvent(name=name, node=node, local_time=t, params=tuple(params), run_id=run_id)


@pytest.fixture
def bus(sim):
    return EventBus(sim)


# ----------------------------------------------------------------------
# ExEvent
# ----------------------------------------------------------------------
def test_event_record_roundtrip():
    ev = _ev(params=("a", 1))
    rec = ev.as_record()
    back = ExEvent.from_record(rec)
    assert back.name == ev.name and back.params == ("a", 1)
    assert back.run_id == 0


def test_with_seq_is_functional():
    ev = _ev()
    stamped = ev.with_seq(5)
    assert stamped.seq == 5 and ev.seq == -1


# ----------------------------------------------------------------------
# Bus registration
# ----------------------------------------------------------------------
def test_register_assigns_sequences(bus):
    a = bus.register(_ev("a"))
    b = bus.register(_ev("b"))
    assert (a.seq, b.seq) == (0, 1)
    assert [e.name for e in bus.log] == ["a", "b"]


def test_clear_resets_sequence(bus):
    bus.register(_ev())
    bus.clear()
    assert bus.register(_ev()).seq == 0


# ----------------------------------------------------------------------
# Pattern matching
# ----------------------------------------------------------------------
def test_pattern_name_and_run_scope():
    pat = EventPattern(name="x", run_id=1)
    assert pat.matches(_ev("x", run_id=1).with_seq(0))
    assert not pat.matches(_ev("y", run_id=1).with_seq(0))
    assert not pat.matches(_ev("x", run_id=2).with_seq(0))


def test_pattern_experiment_scope_event_matches_any_run():
    # Events with run_id None (experiment scope) pass run-scoped patterns.
    pat = EventPattern(name="x", run_id=3)
    assert pat.matches(_ev("x", run_id=None).with_seq(0))


def test_pattern_node_set():
    pat = EventPattern(name="x", nodes=frozenset({"n1", "n2"}), run_id=0)
    assert pat.matches(_ev("x", node="n1").with_seq(0))
    assert not pat.matches(_ev("x", node="n9").with_seq(0))


def test_pattern_params_any_of_set():
    pat = EventPattern(name="x", params=frozenset({"p1", "p2"}), run_id=0)
    assert pat.matches(_ev("x", params=("other", "p2")).with_seq(0))
    assert not pat.matches(_ev("x", params=("other",)).with_seq(0))


def test_pattern_marker_excludes_earlier(bus):
    pat = EventPattern(name="x", after_seq=0, run_id=0)
    first = bus.register(_ev("x"))
    second = bus.register(_ev("x"))
    assert not pat.matches(first)
    assert pat.matches(second)


# ----------------------------------------------------------------------
# Waiting semantics
# ----------------------------------------------------------------------
def test_watch_simple_any(sim, bus):
    signal = bus.watch(EventPattern(name="go", run_id=0))
    assert not signal.triggered
    bus.register(_ev("go"))
    assert signal.triggered


def test_watch_matches_already_logged_event(sim, bus):
    bus.register(_ev("go"))
    signal = bus.watch(EventPattern(name="go", run_id=0))
    assert signal.triggered


def test_watch_require_all_nodes(sim, bus):
    pat = EventPattern(
        name="pub", nodes=frozenset({"a", "b"}), require_all_nodes=True, run_id=0
    )
    signal = bus.watch(pat)
    bus.register(_ev("pub", node="a"))
    assert not signal.triggered
    bus.register(_ev("pub", node="a"))  # duplicate does not help
    assert not signal.triggered
    bus.register(_ev("pub", node="b"))
    assert signal.triggered


def test_watch_require_all_params(sim, bus):
    pat = EventPattern(
        name="add", params=frozenset({"sm1", "sm2"}), require_all_params=True,
        run_id=0,
    )
    signal = bus.watch(pat)
    bus.register(_ev("add", params=("svc@sm1", "sm1")))
    assert not signal.triggered
    bus.register(_ev("add", params=("svc@sm2", "sm2")))
    assert signal.triggered


def test_watch_all_nodes_and_all_params_cross_product(sim, bus):
    # Fig. 10 with 2 SUs and 2 SMs: every SU must report every SM.
    pat = EventPattern(
        name="add",
        nodes=frozenset({"su1", "su2"}),
        require_all_nodes=True,
        params=frozenset({"sm1", "sm2"}),
        require_all_params=True,
        run_id=0,
    )
    signal = bus.watch(pat)
    bus.register(_ev("add", node="su1", params=("sm1",)))
    bus.register(_ev("add", node="su1", params=("sm2",)))
    bus.register(_ev("add", node="su2", params=("sm1",)))
    assert not signal.triggered
    bus.register(_ev("add", node="su2", params=("sm2",)))
    assert signal.triggered


def test_watch_marker_semantics(sim, bus):
    bus.register(_ev("x"))
    marker = bus.marker()
    signal = bus.watch(EventPattern(name="x", after_seq=marker, run_id=0))
    assert not signal.triggered  # the earlier event is before the marker
    bus.register(_ev("x"))
    assert signal.triggered


def test_cancel_removes_watcher(sim, bus):
    signal = bus.watch(EventPattern(name="never", run_id=0))
    assert len(bus._watchers) == 1
    bus.cancel(signal)
    assert len(bus._watchers) == 0
    bus.register(_ev("never"))
    assert not signal.triggered


def test_completed_watcher_removed(sim, bus):
    bus.watch(EventPattern(name="go", run_id=0))
    assert len(bus._watchers) == 1
    bus.register(_ev("go"))
    assert len(bus._watchers) == 0


def test_watch_delivers_triggering_event(sim, bus):
    signal = bus.watch(EventPattern(name="go", run_id=0))
    bus.register(_ev("go", node="n7"))
    assert signal.value.node == "n7"
