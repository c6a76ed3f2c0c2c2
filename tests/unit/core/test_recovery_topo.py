"""Unit tests for the recovery journal and topology measurement."""

import networkx as nx
import pytest

from repro.core.errors import RecoveryError
from repro.core.recovery import Journal
from repro.core.topomeasure import (
    compare_snapshots,
    measure_hop_counts,
    snapshot_topology,
)
from repro.net.topology import grid_topology
from repro.sd.processlib import build_two_party_description
from repro.storage.level2 import Level2Store


@pytest.fixture
def store(tmp_path):
    return Level2Store(tmp_path / "l2")


# ----------------------------------------------------------------------
# Journal
# ----------------------------------------------------------------------
def test_journal_lifecycle(store):
    j = Journal(store)
    assert not j.started() and not j.finished()
    j.record_start("fp", 1, 10)
    j.record_run_complete(0)
    j.record_run_complete(1)
    assert j.started() and not j.finished()
    assert j.completed_runs() == {0, 1}
    j.record_experiment_complete()
    assert j.finished()


def test_prepare_resume_happy_path(store):
    desc = build_two_party_description(replications=4, seed=3)
    total = desc.factors.total_runs()
    j = Journal(store)
    j.record_start(desc.fingerprint(), desc.seed, total)
    j.record_run_complete(0)
    assert j.prepare_resume(desc, total) == {0}


def test_prepare_resume_requires_start(store):
    desc = build_two_party_description(replications=1)
    with pytest.raises(RecoveryError, match="nothing to resume"):
        Journal(store).prepare_resume(desc, 1)


def test_prepare_resume_refuses_finished(store):
    desc = build_two_party_description(replications=1)
    j = Journal(store)
    j.record_start(desc.fingerprint(), desc.seed, 1)
    j.record_experiment_complete()
    with pytest.raises(RecoveryError, match="already completed"):
        j.prepare_resume(desc, 1)


def test_prepare_resume_detects_description_change(store):
    desc = build_two_party_description(replications=2, seed=3)
    j = Journal(store)
    j.record_start(desc.fingerprint(), desc.seed, 2)
    changed = build_two_party_description(replications=2, seed=3, deadline=10.0)
    with pytest.raises(RecoveryError, match="description changed"):
        j.prepare_resume(changed, 2)


def test_prepare_resume_detects_seed_change(store):
    desc = build_two_party_description(replications=2, seed=3)
    j = Journal(store)
    j.record_start(desc.fingerprint(), 999, 2)
    with pytest.raises(RecoveryError, match="seed changed"):
        j.prepare_resume(desc, 2)


def test_prepare_resume_purges_partial_runs(store):
    desc = build_two_party_description(replications=3, seed=3)
    total = desc.factors.total_runs()
    j = Journal(store)
    j.record_start(desc.fingerprint(), desc.seed, total)
    j.record_run_complete(0)
    # Run 1 aborted mid-way: partial data on disk, no journal entry.
    store.write_run_data("nodeX", 0, [{"name": "ok", "local_time": 0.0, "node": "nodeX"}], [])
    store.write_run_data("nodeX", 1, [{"name": "partial", "local_time": 0.0, "node": "nodeX"}], [])
    store.write_timesync(1, {})
    completed = j.prepare_resume(desc, total)
    assert completed == {0}
    assert "nodeX" not in store.read_run_stream(1, "events.jsonl")
    assert store.read_run_stream(0, "events.jsonl")["nodeX"] != []


# ----------------------------------------------------------------------
# Topology measurement
# ----------------------------------------------------------------------
def test_measure_hop_counts_keys_and_values():
    topo = grid_topology(2, 2)
    out = measure_hop_counts(topo, ["n0", "n3"])
    assert out == {"names": ["n0", "n3"], "hops": [[0, 2], [2, 0]]}
    # Names come back sorted; unknown or unreachable nodes read None.
    topo.graph.add_node("island")
    topo.invalidate_cache()
    out = measure_hop_counts(topo, ["n3", "island", "n0"])
    assert out["names"] == ["island", "n0", "n3"]
    assert out["hops"] == [[0, None, None], [None, 0, 2], [None, 2, 0]]
    lengths = dict(nx.all_pairs_shortest_path_length(topo.graph))
    for i, a in enumerate(out["names"]):
        for j, b in enumerate(out["names"]):
            assert out["hops"][i][j] == lengths[a].get(b)


def test_snapshot_and_compare_stable():
    topo = grid_topology(2, 2)
    before = snapshot_topology(topo)
    after = snapshot_topology(topo)
    diff = compare_snapshots(before, after)
    assert diff["stable"]


def test_compare_detects_link_change():
    topo = grid_topology(2, 2)
    before = snapshot_topology(topo)
    topo.graph.remove_edge("n0", "n1")
    after = snapshot_topology(topo)
    diff = compare_snapshots(before, after)
    assert not diff["stable"]
    assert ("n0", "n1") in diff["links_removed"]


def test_snapshot_serializable():
    import json

    snap = snapshot_topology(grid_topology(3, 3))
    assert json.loads(json.dumps(snap))["nodes"]
