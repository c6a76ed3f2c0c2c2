"""Integration: the paper's verbatim experiment, end to end.

XML description → validation → plan → execution on the emulated testbed →
level-2 collection → conditioning → level-3 SQLite → analysis.
"""

import json

import pytest

from repro import run_experiment
from repro.analysis.responsiveness import run_outcomes
from repro.analysis.timeline import build_run_timeline
from repro.core.xmlio import description_from_xml
from repro.paper import full_paper_experiment_xml
from repro.storage.level3 import ExperimentDatabase

from tests.conftest import staging_store


@pytest.fixture(scope="module")
def executed(tmp_path_factory):
    """Execute the paper experiment once; share across this module."""
    desc = description_from_xml(full_paper_experiment_xml(replications=1, seed=5))
    root = tmp_path_factory.mktemp("paper-exec")
    result = run_experiment(desc, root / "c")
    return desc, result, result.db_path


def test_all_runs_execute(executed):
    _desc, result, _db = executed
    assert result.summary()["executed"] == 6  # 2 pairs x 3 bw x 1 replication
    assert result.timed_out_runs == []


def test_sd_discovery_succeeds_every_run(executed):
    _desc, _result, db_path = executed
    with ExperimentDatabase(db_path) as db:
        outcomes = run_outcomes(db)
        assert len(outcomes) == 6  # one SU per run
        assert all(o.complete for o in outcomes)
        assert all(0.0 < o.t_r < 30.0 for o in outcomes)


def test_event_protocol_per_run(executed):
    """Each run shows the exact Fig. 9/10 event choreography."""
    _desc, _result, db_path = executed
    with ExperimentDatabase(db_path) as db:
        for run_id in db.run_ids():
            names_su = [
                e["name"] for e in db.events(run_id=run_id, node_id="t9-108")
            ]
            for expected in (
                "run_init", "sd_init_done", "sd_start_search",
                "sd_service_add", "done", "sd_stop_search", "sd_exit_done",
                "run_exit",
            ):
                assert expected in names_su, (run_id, expected, names_su)
            names_sm = [
                e["name"] for e in db.events(run_id=run_id, node_id="t9-105")
            ]
            assert names_sm.index("sd_start_publish") < names_sm.index("sd_stop_publish")


def test_causal_order_on_common_time_base(executed):
    """Despite node clocks skewed by up to ±0.5 s, the conditioned event
    order is causal: publish before add, search before add, add before
    done."""
    _desc, _result, db_path = executed
    with ExperimentDatabase(db_path) as db:
        for run_id in db.run_ids():
            t = {
                e["name"]: e["common_time"]
                for e in db.events(run_id=run_id)
                if e["name"] in ("sd_start_publish", "sd_start_search",
                                 "sd_service_add", "done")
            }
            assert t["sd_start_publish"] < t["sd_service_add"]
            assert t["sd_start_search"] < t["sd_service_add"]
            assert t["sd_service_add"] < t["done"]


def test_raw_local_timestamps_are_actually_skewed(executed):
    """The clock problem must be real: per-node TimeDiff values differ."""
    _desc, _result, db_path = executed
    with ExperimentDatabase(db_path) as db:
        diffs = {r["NodeID"]: r["TimeDiff"] for r in db.run_infos(0)}
        node_diffs = [v for k, v in diffs.items() if k != "master"]
        assert len({round(v, 6) for v in node_diffs}) > 1
        assert any(abs(v) > 0.01 for v in node_diffs)


def test_traffic_generator_ran(executed):
    _desc, _result, db_path = executed
    with ExperimentDatabase(db_path) as db:
        started = db.events(event_type="env_traffic_started")
        stopped = db.events(event_type="env_traffic_stopped")
        assert len(started) == 6 and len(stopped) == 6
        # Load packets appear in the captures of the higher-bandwidth
        # treatments (at 10 kbit/s the first CBR packet may fall after the
        # sub-second discovery already completed the run).
        flows = set()
        for run_id in db.run_ids():
            flows |= {p.get("flow") for p in db.packets(run_id=run_id)}
        assert "generated-load" in flows and "experiment" in flows


def test_timeline_reconstructs_phases(executed):
    _desc, _result, db_path = executed
    with ExperimentDatabase(db_path) as db:
        tl = build_run_timeline(db.events(run_id=0), 0)
        assert tl.t_r is not None
        d = tl.durations()
        assert d["preparation"] > 0 and d["execution"] > 0


def test_topology_measured_before_and_after(executed):
    _desc, result, _db = executed
    master = staging_store(result.campaign_dir, 0).root / "master"
    before = json.loads((master / "topology_before.json").read_text())
    after = json.loads((master / "topology_after.json").read_text())
    assert before["hop_counts"] and after["hop_counts"]
    assert before["snapshot"] == after["snapshot"]


def test_journal_complete(executed):
    from repro.campaign import CampaignJournal

    _desc, result, _db = executed
    journal = CampaignJournal(result.campaign_dir)
    assert journal.state().complete
    assert set(journal.state().completed) == set(range(6))


def test_logs_collected(executed):
    _desc, result, _db = executed
    log = staging_store(result.campaign_dir, 0).read_node_logs()["t9-105"]
    assert "run_init: 0" in log
    assert "action: sd_start_publish" in log
