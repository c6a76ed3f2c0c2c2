"""Unit tests for the recovery journal and topology measurement."""

import networkx as nx
import pytest

from repro.campaign.journal import CampaignJournal
from repro.campaign.merge import ShardWriter
from repro.core.errors import RecoveryError
from repro.core.topomeasure import (
    compare_snapshots,
    measure_hop_counts,
    snapshot_topology,
)
from repro.net.topology import Topology, grid_topology
from repro.sd.processlib import build_two_party_description

from tests.conftest import execute_run
from tests.oracles.net_reference import to_nx_graph


@pytest.fixture
def journal(tmp_path):
    return CampaignJournal(tmp_path)


# ----------------------------------------------------------------------
# Journal
# ----------------------------------------------------------------------
def test_journal_lifecycle(journal):
    assert not journal.state().starts and not journal.state().complete
    journal.record_start("fp", 1, 10, "pfp")
    journal.record_run_complete(0, "w", "shards/w.db")
    journal.record_run_complete(1, "w", "shards/w.db")
    assert journal.state().starts and not journal.state().complete
    assert set(journal.state().completed) == {0, 1}
    journal.record_complete()
    assert journal.state().complete


def test_prepare_resume_happy_path(journal, tmp_path):
    desc = build_two_party_description(replications=4, seed=3)
    total = desc.factors.total_runs()
    result = execute_run(desc, tmp_path / "l2")
    with ShardWriter(tmp_path / "shards" / "w.db") as shard:
        shard.stage_run(result.store, 0)
    journal.record_start(desc.fingerprint(), desc.seed, total, "pfp")
    journal.record_run_complete(0, "w", "shards/w.db")
    journal.record_run_complete(1, "w", "shards/w.db")  # the shard lacks run 1
    assert set(journal.prepare_resume(desc, total, "pfp")) == {0}


def test_prepare_resume_requires_start(journal):
    desc = build_two_party_description(replications=1)
    with pytest.raises(RecoveryError, match="nothing to resume"):
        journal.prepare_resume(desc, 1, "pfp")


def test_prepare_resume_refuses_finished(journal):
    desc = build_two_party_description(replications=1)
    journal.record_start(desc.fingerprint(), desc.seed, 1, "pfp")
    journal.record_complete()
    with pytest.raises(RecoveryError, match="already completed"):
        journal.prepare_resume(desc, 1, "pfp")


def test_prepare_resume_detects_description_change(journal):
    desc = build_two_party_description(replications=2, seed=3)
    journal.record_start(desc.fingerprint(), desc.seed, 2, "pfp")
    changed = build_two_party_description(replications=2, seed=3, deadline=10.0)
    with pytest.raises(RecoveryError, match="description changed"):
        journal.prepare_resume(changed, 2, "pfp")


def test_prepare_resume_detects_seed_change(journal):
    desc = build_two_party_description(replications=2, seed=3)
    journal.record_start(desc.fingerprint(), 999, 2, "pfp")
    with pytest.raises(RecoveryError, match="seed changed"):
        journal.prepare_resume(desc, 2, "pfp")


# ----------------------------------------------------------------------
# Topology measurement
# ----------------------------------------------------------------------
def test_measure_hop_counts_keys_and_values():
    topo = grid_topology(2, 2)
    out = measure_hop_counts(topo, ["n0", "n3"])
    assert out == {"names": ["n0", "n3"], "hops": [[0, 2], [2, 0]]}
    # Names come back sorted; unknown or unreachable nodes read None.
    topo = Topology({**topo.adj, "island": {}})
    out = measure_hop_counts(topo, ["n3", "island", "n0"])
    assert out["names"] == ["island", "n0", "n3"]
    assert out["hops"] == [[0, None, None], [None, 0, 2], [None, 2, 0]]
    lengths = dict(nx.all_pairs_shortest_path_length(to_nx_graph(topo)))
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
    adj = {v: {w: link for w, link in row.items() if {v, w} != {"n0", "n1"}}
           for v, row in topo.adj.items()}
    after = snapshot_topology(Topology(adj))
    diff = compare_snapshots(before, after)
    assert not diff["stable"]
    assert ("n0", "n1") in diff["links_removed"]


def test_snapshot_serializable():
    import json

    snap = snapshot_topology(grid_topology(3, 3))
    assert json.loads(json.dumps(snap))["nodes"]
