"""Unit tests for time-base conditioning."""

import pytest

from repro.core.errors import StorageError
from repro.storage.conditioning import condition_experiment, condition_run
from repro.storage.level2 import Level2Store


@pytest.fixture
def store(tmp_path):
    s = Level2Store(tmp_path / "l2")
    s.write_description('<experiment name="c" seed="1"/>')
    s.write_plan([{"run_id": 0, "treatment": {}}])
    return s


def _seed_run(store, run_id=0, offsets=None):
    offsets = offsets or {"n1": 0.5, "n2": -0.25}
    store.write_timesync(
        run_id,
        {n: {"offset": o, "rtt": 0.001, "error_bound": 0.0005, "probes": 5}
         for n, o in offsets.items()},
    )
    store.write_run_info(run_id, {"run_id": run_id, "start_time": 10.0,
                                  "treatment": {"f": 1}})
    # True event times 11.0 on both nodes — locals differ by the offsets.
    store.write_run_data(
        "n1", run_id,
        [{"name": "x", "node": "n1", "local_time": 11.0 + offsets["n1"],
          "params": [], "run_id": run_id}],
        [{"node": "n1", "local_time": 11.2 + offsets["n1"], "uid": 1,
          "src": "a", "direction": "tx"}],
    )
    store.write_run_data(
        "n2", run_id,
        [{"name": "y", "node": "n2", "local_time": 11.0 + offsets["n2"],
          "params": [], "run_id": run_id}],
        [],
    )


def test_offsets_inverted_onto_common_base(store):
    _seed_run(store)
    run = condition_run(store, 0)
    times = {e["name"]: e["common_time"] for e in run.events}
    assert times["x"] == pytest.approx(11.0)
    assert times["y"] == pytest.approx(11.0)
    assert run.packets[0]["common_time"] == pytest.approx(11.2)


def test_events_sorted_by_common_time(store):
    _seed_run(store)
    run = condition_run(store, 0)
    times = [e["common_time"] for e in run.events]
    assert times == sorted(times)


def test_master_offset_is_zero(store):
    _seed_run(store)
    store.write_run_data(
        "master", 0,
        [{"name": "m", "node": "master", "local_time": 10.5, "params": [],
          "run_id": 0}],
        [],
    )
    run = condition_run(store, 0)
    m = next(e for e in run.events if e["name"] == "m")
    assert m["common_time"] == 10.5
    assert run.offsets["master"] == 0.0


def test_causal_order_restored_across_skewed_clocks(store):
    # n1's clock is 2 s ahead; an effect on n1 at true 5.1 must sort
    # after its cause on n2 at true 5.0 despite a larger local timestamp
    # difference in raw data.
    store.write_timesync(0, {
        "n1": {"offset": 2.0, "rtt": 0.001, "error_bound": 0.0005, "probes": 1},
        "n2": {"offset": 0.0, "rtt": 0.001, "error_bound": 0.0005, "probes": 1},
    })
    store.write_run_info(0, {"run_id": 0, "start_time": 0.0, "treatment": {}})
    store.write_run_data("n1", 0, [
        {"name": "effect", "node": "n1", "local_time": 7.1, "params": [],
         "run_id": 0}], [])
    store.write_run_data("n2", 0, [
        {"name": "cause", "node": "n2", "local_time": 5.0, "params": [],
         "run_id": 0}], [])
    run = condition_run(store, 0)
    assert [e["name"] for e in run.events] == ["cause", "effect"]


def test_missing_run_info_raises(store):
    store.write_run_data("n1", 0, [], [])
    store.write_timesync(0, {})
    with pytest.raises(StorageError):
        condition_run(store, 0)


def test_condition_experiment_aggregates(store):
    _seed_run(store, 0)
    _seed_run(store, 1)
    store.write_node_collections({"n1": "log!"}, {})
    store.write_eefile("VERSION", "v")
    data = condition_experiment(store)
    assert [r.run_id for r in data.runs] == [0, 1]
    assert data.node_logs["n1"] == "log!"
    assert data.eefiles["VERSION"] == "v"
    assert data.plan[0]["run_id"] == 0


def test_extra_measurements_carried(store):
    _seed_run(store)
    store.write_extra_measurement("n1", 0, "plug", {"v": 2})
    run = condition_run(store, 0)
    assert run.extra_measurements == {"n1": {"plug": {"v": 2}}}
