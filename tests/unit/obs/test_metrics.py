"""Unit tests for the metrics registry and its exports."""

import json
import sys
from pathlib import Path

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    diff_snapshots,
    get_registry,
    render_prometheus,
    set_registry,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[3] / "tools"))
from check_prom import check_prometheus_text  # noqa: E402


def test_counter_inc_and_labels():
    reg = MetricsRegistry()
    c = reg.counter("repro_rpc_retries_total", "retries", labels=("method",))
    c.inc(method="run_init")
    c.inc(2, method="run_init")
    c.inc(method="run_exit")
    assert c.value(method="run_init") == 3
    assert c.value(method="run_exit") == 1
    assert c.value(method="never") == 0
    with pytest.raises(ValueError):
        c.inc(-1, method="run_init")
    with pytest.raises(ValueError):
        c.inc(node="x")  # undeclared label name


def test_label_keys_are_the_same_json_first_time_and_every_time_after():
    """The key is ``json.dumps([str(value), ...])`` in declared order — what
    the exposition parses — whether it was just built or remembered."""
    reg = MetricsRegistry()
    c = reg.counter("repro_pairs_total", "pairs", labels=("a", "b"))
    for _ in range(2):  # the second round meets the remembered keys
        c.inc(a="x", b='y"\n')
        c.inc(b='y"\n', a="x")
        c.inc(a=1, b=True)
        c.inc(a=1.0, b=1)  # equal to and hashing like (1, True), spelled differently
        c.inc(a=[1], b=None)  # unhashable
        for wrong in ({"a": "x"}, {"a": "x", "b": 'y"\n', "c": "z"}, {"a": "x", "z": 'y"\n'}, {}):
            with pytest.raises(ValueError, match="do not match declared"):
                c.inc(**wrong)
            with pytest.raises(ValueError, match="do not match declared"):
                c.value(**wrong)
    assert c._values == {
        json.dumps(["x", 'y"\n']): 4,
        json.dumps(["1", "True"]): 2,
        json.dumps(["1.0", "1"]): 2,
        json.dumps(["[1]", "None"]): 2,
    }
    assert c.value(b='y"\n', a="x") == 4
    assert check_prometheus_text(render_prometheus(reg.snapshot())) == []


def test_declaration_is_idempotent_but_typed():
    reg = MetricsRegistry()
    a = reg.counter("repro_x_total", "x")
    b = reg.counter("repro_x_total", "different help ignored")
    assert a is b
    with pytest.raises(ValueError):
        reg.gauge("repro_x_total", "x")


def test_gauge_set_add():
    reg = MetricsRegistry()
    g = reg.gauge("repro_busy_seconds", "busy", labels=("worker",))
    g.set(1.5, worker="w0")
    g.add(0.5, worker="w0")
    assert g.value(worker="w0") == 2.0


def test_histogram_buckets_and_count():
    reg = MetricsRegistry()
    h = reg.histogram("repro_dur_seconds", "dur", buckets=(0.1, 1.0))
    for v in (0.05, 0.5, 0.5, 5.0):
        h.observe(v)
    assert h.count() == 4
    snap = reg.snapshot()
    cell = snap["repro_dur_seconds"]["values"][json.dumps([])]
    assert cell["counts"] == [1, 2, 1]
    assert cell["sum"] == pytest.approx(6.05)


def test_snapshot_roundtrips_through_json():
    reg = MetricsRegistry()
    reg.counter("repro_a_total", "a", labels=("k",)).inc(k="v")
    reg.histogram("repro_b_seconds", "b").observe(0.01)
    snap = reg.snapshot()
    assert json.loads(json.dumps(snap)) == snap


def test_merge_adds_counters_and_histograms_takes_gauges():
    a = MetricsRegistry()
    a.counter("repro_n_total", "n").inc(3)
    a.gauge("repro_g", "g").set(1.0)
    a.histogram("repro_h_seconds", "h", buckets=(1.0,)).observe(0.5)
    b = MetricsRegistry()
    b.counter("repro_n_total", "n").inc(4)
    b.gauge("repro_g", "g").set(9.0)
    b.histogram("repro_h_seconds", "h", buckets=(1.0,)).observe(2.0)
    a.merge(b.snapshot())
    assert a.counter("repro_n_total").value() == 7
    assert a.gauge("repro_g").value() == 9.0
    assert a.histogram("repro_h_seconds").count() == 2


def test_diff_snapshots_is_the_per_run_delta():
    reg = MetricsRegistry()
    c = reg.counter("repro_n_total", "n")
    h = reg.histogram("repro_h_seconds", "h", buckets=(1.0,))
    c.inc(5)
    h.observe(0.5)
    before = reg.snapshot()
    c.inc(2)
    h.observe(2.0)
    delta = diff_snapshots(reg.snapshot(), before)
    key = json.dumps([])
    assert delta["repro_n_total"]["values"][key] == 2
    assert delta["repro_h_seconds"]["values"][key]["counts"] == [0, 1]
    # Folding the delta into a fresh registry reproduces only the new work.
    other = MetricsRegistry()
    other.merge(delta)
    assert other.counter("repro_n_total").value() == 2


def test_diff_snapshots_drops_unchanged_metrics():
    reg = MetricsRegistry()
    reg.counter("repro_n_total", "n").inc()
    before = reg.snapshot()
    assert diff_snapshots(reg.snapshot(), before) == {}


def test_render_prometheus_is_valid_exposition():
    reg = MetricsRegistry()
    reg.counter("repro_rpc_retries_total", "RPC retries", labels=("method",)).inc(
        method='weird"method\\name',
    )
    reg.gauge("repro_busy_seconds", "busy", labels=("worker",)).set(1.25, worker="w0")
    h = reg.histogram("repro_dur_seconds", "durations", buckets=DEFAULT_BUCKETS)
    for v in (0.002, 0.3, 500.0):
        h.observe(v)
    text = render_prometheus(reg.snapshot())
    assert check_prometheus_text(text) == []
    assert "# TYPE repro_dur_seconds histogram" in text
    assert 'le="+Inf"' in text
    assert 'worker="w0"' in text


def test_render_prometheus_escapes_labels():
    reg = MetricsRegistry()
    reg.counter("repro_x_total", "x", labels=("k",)).inc(k='a"b\\c\nd')
    text = render_prometheus(reg.snapshot())
    assert '\\"' in text and "\\\\" in text and "\\n" in text
    assert check_prometheus_text(text) == []


def test_global_registry_swap():
    original = get_registry()
    try:
        mine = MetricsRegistry()
        set_registry(mine)
        assert get_registry() is mine
    finally:
        set_registry(original)
    assert get_registry() is original
