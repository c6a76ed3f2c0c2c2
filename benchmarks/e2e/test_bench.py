"""Self-tests of the benchmark (``pytest benchmarks/e2e -q``; not tier-1)."""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
for _path in (str(HERE), str(REPO / "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import layers  # noqa: E402
import metrics  # noqa: E402
from tracer import ROOT, Target, Tracer  # noqa: E402


class FakeClock:
    """Deterministic clock: spans advance it by calling ``tick``."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def tick(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture()
def traced():
    clock = FakeClock()
    return Tracer(clock=clock), clock


# ----------------------------------------------------------------------
# Self-time arithmetic
# ----------------------------------------------------------------------
def test_nested_spans_subtract_child_time(traced):
    tracer, clock = traced
    with tracer.span("outer"):
        clock.tick(1.0)
        with tracer.span("inner"):
            clock.tick(2.0)
        clock.tick(0.5)
    assert tracer.self_times() == {"outer": 1.5, "inner": 2.0}
    assert tracer.total_times() == {"outer": 3.5, "inner": 2.0}


def test_sibling_spans_both_count_against_the_parent(traced):
    tracer, clock = traced
    with tracer.span("outer"):
        for seconds in (1.0, 3.0):
            with tracer.span("child"):
                clock.tick(seconds)
        clock.tick(0.25)
    assert tracer.self_times() == {"outer": 0.25, "child": 4.0}
    assert tracer.span_counts() == {"outer": 1, "child": 2}


def test_recursive_spans_do_not_count_time_twice(traced):
    tracer, clock = traced

    def recurse(depth: int) -> None:
        with tracer.span("rec"):
            clock.tick(1.0)
            if depth:
                recurse(depth - 1)

    with tracer.span(ROOT):
        recurse(2)
    assert tracer.self_times() == {ROOT: 0.0, "rec": 3.0}
    # Inclusive time of the outermost call only.
    assert tracer.total_times()["rec"] == 3.0


def test_span_closes_when_the_wrapped_call_raises(traced):
    tracer, clock = traced

    def boom():
        clock.tick(2.0)
        raise ValueError("boom")

    wrapped = tracer.wrap_call("layer:boom", boom)
    with tracer.span(ROOT):
        clock.tick(1.0)
        with pytest.raises(ValueError):
            wrapped()
        clock.tick(1.0)
    assert tracer.self_times() == {ROOT: 2.0, "layer:boom": 2.0}
    assert tracer._state().cur is None


def test_generator_is_billed_per_slice_not_for_its_waits(traced):
    tracer, clock = traced

    def gen(n):
        total = 0
        for _ in range(n):
            clock.tick(1.0)          # the generator's own work
            total += yield "wait"    # suspended: someone else's time
        return total

    wrapped = tracer.wrap_gen("layer:gen", gen)
    with tracer.span(ROOT):
        it = wrapped(2)
        assert next(it) == "wait"
        clock.tick(10.0)             # time passing while suspended
        assert it.send(5) == "wait"
        clock.tick(10.0)
        with pytest.raises(StopIteration) as stop:
            it.send(7)
        assert stop.value.value == 12
    assert tracer.self_times() == {ROOT: 20.0, "layer:gen": 2.0}


def test_generator_wrapper_forwards_throw(traced):
    tracer, _clock = traced

    def gen():
        try:
            yield 1
        except KeyError:
            yield "caught"

    it = tracer.wrap_gen("layer:gen", gen)()
    assert next(it) == 1
    assert it.throw(KeyError("x")) == "caught"


def test_wait_is_shared_over_other_threads_work():
    import threading

    tracer = Tracer()

    def work():
        with tracer.span("layer:a"):
            time.sleep(0.03)
        with tracer.span("layer:b"):
            time.sleep(0.01)
        with tracer.span("layer:idle"):
            time.sleep(0.02)

    with tracer.span(ROOT):
        with tracer.span("layer:wait"):
            thread = threading.Thread(target=work)
            thread.start()
            thread.join()
    rows = tracer.table(wait_spans=("layer:wait",), idle_spans=("layer:idle",))
    root_wall = tracer.total_times()[ROOT]
    assert sum(rows.values()) == pytest.approx(root_wall, rel=1e-6)
    assert "layer:wait" not in rows and "layer:idle" not in rows
    assert rows["layer:a"] > rows["layer:b"] > 0


# ----------------------------------------------------------------------
# Patching
# ----------------------------------------------------------------------
def _patched_bindings():
    """(owner, key) -> object for everything the table touches."""
    tracer = Tracer()
    tracer.install(layers.targets())
    keys = [(owner, key) for owner, key, _orig, _wrap in tracer.patches]
    tracer.uninstall()
    return keys


def _lookup(owner, key):
    return owner.__dict__[key] if isinstance(owner, type) else getattr(owner, key)


def test_every_wrapper_is_restored_by_identity():
    keys = _patched_bindings()
    before = {(id(o), k): _lookup(o, k) for o, k in keys}
    tracer = Tracer()
    with tracer.installed(layers.targets()):
        during = {(id(o), k): _lookup(o, k) for o, k in keys}
    after = {(id(o), k): _lookup(o, k) for o, k in keys}
    assert len(keys) > 80
    assert all(during[k] is not before[k] for k in before)
    assert all(after[k] is before[k] for k in before)
    assert tracer.patches == []


def test_private_bindings_of_module_functions_are_patched():
    import repro.campaign.engine as engine
    import repro.core.plan as plan

    original = plan.generate_plan
    assert engine.generate_plan is original
    tracer = Tracer()
    with tracer.installed([Target("core.plan:generate", "repro.core.plan:generate_plan")]):
        assert engine.generate_plan is plan.generate_plan is not original
    assert engine.generate_plan is plan.generate_plan is original


# ----------------------------------------------------------------------
# The contract file and the whole suite at smoke scale
# ----------------------------------------------------------------------
def test_benchmark_json_matches_the_metric_table():
    committed = json.loads((REPO / "BENCHMARK.json").read_text())
    assert committed == metrics.benchmark_json()
    names = [m["name"] for m in committed["end_to_end"] + committed["per_layer"]]
    assert len(names) == len(set(names))
    assert "setup_s" in names
    assert all(m["bound"] <= 0.25 for m in committed["end_to_end"])


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True, text=True, cwd=str(REPO), timeout=120,
    )


@pytest.fixture(scope="module")
def smoke_results(tmp_path_factory):
    """All four workloads at smoke scale, timed and traced, in <30 s."""
    out = tmp_path_factory.mktemp("smoke") / "results.json"
    started = time.monotonic()
    proc = _run("--scale", "smoke", "--seconds", "2", "--json", str(out))
    elapsed = time.monotonic() - started
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert elapsed < 30.0
    return json.loads(out.read_text()), proc.stdout


def test_smoke_emits_every_metric_and_fails_no_op(smoke_results):
    results, stdout = smoke_results
    committed = json.loads((REPO / "BENCHMARK.json").read_text())
    listed = {m["name"] for m in committed["end_to_end"] + committed["per_layer"]}
    assert [r["workload"] for r in results] == [w["name"] for w in committed["workloads"]]
    for result in results:
        assert result["failed"] == 0, result["failures"]
        assert result["attempted"] >= 1
        assert set(result["contract"]) == listed
        for name in (m["name"] for m in committed["end_to_end"]):
            assert result["contract"][name]["value"] > 0, (result["workload"], name)
    last = json.loads(stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True


def test_smoke_rows_sum_to_the_traced_wall(smoke_results):
    results, _stdout = smoke_results
    for result in results:
        wall = result["values"]["bench.traced_wall_s"]
        rows = sum(result["breakdown_s"].values())
        assert rows == pytest.approx(wall, rel=0.01), result["workload"]


def test_contract_modes_emit_exactly_their_metric_sets():
    committed = json.loads((REPO / "BENCHMARK.json").read_text())
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        proc = _run("--workload", "mesh_storm", "--scale", "smoke", "--seed", "7",
                    "--seconds", "1", "--trace", trace)
        assert proc.returncode == 0, proc.stderr[-2000:]
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(last["metrics"]) == {m["name"] for m in committed[key]}
        assert last["failed"] == 0 and last["attempted"] >= 1


def test_seed_changes_the_generated_inputs():
    counts = []
    for seed in ("7", "8"):
        proc = _run("--workload", "mesh_storm", "--scale", "smoke", "--seed", seed,
                    "--seconds", "1", "--trace", "1")
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        counts.append(last["metrics"]["net.transmissions"]["value"])
        assert f"seed {seed}" in proc.stdout
    assert counts[0] != counts[1]
