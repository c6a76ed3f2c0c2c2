"""Unit tests for run timelines and tag-based packet statistics."""

import pytest

from repro.analysis.packetstats import (
    packet_stats_for_run,
    tag_loss_between,
    tagged_observations,
)
from repro.analysis.timeline import build_run_timeline
from repro.net.tagger import TAG_NODE_OPTION, TAG_OPTION


def _events():
    mk = lambda name, t, node="su", params=(): {  # noqa: E731
        "name": name, "node": node, "common_time": t,
        "params": list(params), "run_id": 0,
    }
    return [
        mk("run_init", 0.0, node="master"),
        mk("sd_init_done", 0.4, node="sm"),
        mk("sd_start_search", 1.0),
        mk("sd_service_add", 1.8, params=("svc", "sm")),
        mk("done", 1.9),
        mk("run_exit", 2.5, node="master"),
    ]


# ----------------------------------------------------------------------
# Timeline
# ----------------------------------------------------------------------
def test_timeline_phases_and_t_r():
    tl = build_run_timeline(_events(), 0)
    assert tl.exec_begin == pytest.approx(1.0)
    assert tl.exec_end == pytest.approx(1.9)  # the done flag
    assert tl.t_r == pytest.approx(0.8)
    d = tl.durations()
    assert d["preparation"] == pytest.approx(1.0)
    assert d["execution"] == pytest.approx(0.9)
    assert d["cleanup"] == pytest.approx(0.6)
    assert d["total"] == pytest.approx(2.5)


def test_timeline_phase_classification():
    tl = build_run_timeline(_events(), 0)
    phases = {e.name: e.phase for e in tl.entries}
    assert phases["sd_init_done"] == "preparation"
    assert phases["sd_service_add"] == "execution"
    assert phases["run_exit"] == "cleanup"


def test_timeline_empty_run():
    tl = build_run_timeline(_events(), 99)
    assert tl.entries == [] and tl.t_r is None


def test_timeline_without_discovery():
    events = [e for e in _events() if e["name"] != "sd_service_add"]
    tl = build_run_timeline(events, 0)
    assert tl.t_r is None


def test_timeline_nodes_and_relative_time():
    tl = build_run_timeline(_events(), 0)
    assert tl.nodes() == ["master", "sm", "su"]
    add = next(e for e in tl.entries if e.name == "sd_service_add")
    assert tl.relative_time(add) == pytest.approx(1.8)


def test_phase_duration_summary():
    from repro.analysis.timeline import phase_duration_summary

    events = _events()
    # A second run, twice as long in every phase.
    events += [
        {**e, "run_id": 1, "common_time": e["common_time"] * 2} for e in _events()
    ]
    summary = phase_duration_summary(events, [0, 1])
    assert summary["total"]["runs"] == 2.0
    assert summary["total"]["min"] == pytest.approx(2.5)
    assert summary["total"]["max"] == pytest.approx(5.0)
    assert summary["preparation"]["mean"] == pytest.approx(1.5)
    # Unknown runs contribute nothing.
    assert phase_duration_summary(events, [99]) == {}


def test_phase_summary_in_report(tmp_path):
    from repro import run_experiment
    from repro.sd.processlib import build_two_party_description
    from repro.storage.level3 import ExperimentDatabase
    from repro.viz.report import experiment_report

    desc = build_two_party_description(replications=2, seed=45, env_count=0)
    result = run_experiment(desc, tmp_path / "c")
    with ExperimentDatabase(result.db_path) as db:
        text = experiment_report(db)
    assert "## Run phase durations" in text
    assert "| preparation |" in text


# ----------------------------------------------------------------------
# Packet stats
# ----------------------------------------------------------------------
def _packets():
    def obs(node, direction, tag, t, origin="a"):
        return {
            "node": node, "direction": direction, "common_time": t,
            "options": {TAG_OPTION: tag, TAG_NODE_OPTION: origin},
            "src": "10.0.0.1", "uid": tag,
        }

    return [
        obs("a", "tx", 0, 1.00),
        obs("a", "tx", 1, 1.10),
        obs("a", "tx", 2, 1.20),
        obs("b", "rx", 0, 1.02),
        obs("b", "rx", 2, 1.25),  # tag 1 lost
        # An untagged packet must be ignored entirely.
        {"node": "b", "direction": "rx", "common_time": 1.5, "options": {},
         "src": "x", "uid": 99},
    ]


def test_tagged_observations_split_by_observer():
    obs = tagged_observations(_packets(), "a")
    assert set(obs) == {"a", "b"}
    assert set(obs["a"]) == {0, 1, 2}
    assert set(obs["b"]) == {0, 2}


def test_tag_loss_between_counts_and_delay():
    out = tag_loss_between(_packets(), "a", "b")
    assert out["sent"] == 3 and out["received"] == 2
    assert out["loss_rate"] == pytest.approx(1 / 3)
    assert out["delay"]["n"] == 2
    assert out["delay"]["mean"] == pytest.approx((0.02 + 0.05) / 2)


def test_tag_loss_no_observations():
    out = tag_loss_between(_packets(), "a", "ghost")
    assert out["received"] == 0 and out["loss_rate"] == 1.0


def test_packet_stats_for_run_rows():
    rows = packet_stats_for_run(_packets())
    assert len(rows) == 1
    assert rows[0]["origin"] == "a" and rows[0]["observer"] == "b"


def test_packet_stats_node_filter():
    assert packet_stats_for_run(_packets(), nodes=["a"]) == []
    rows = packet_stats_for_run(_packets(), nodes=["a", "b"])
    assert rows and rows[0]["observer"] == "b"
