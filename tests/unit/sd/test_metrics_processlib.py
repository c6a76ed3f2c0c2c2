"""Unit tests for SD metrics extraction and the process-library builders."""

import pytest

from repro.core.validation import validate_description
from repro.sd.metrics import (
    extract_run_discovery,
    responsiveness,
    summarize_runs,
)
from repro.sd.processlib import (
    build_three_party_description,
    build_two_party_description,
    sm_actions,
    su_actions,
)


def _events(run_id=0):
    """A synthetic run: search at t=1, finds sm1 at 2.5, sm2 at 4.0."""
    mk = lambda name, t, params=(), node="su1": {  # noqa: E731
        "name": name, "node": node, "common_time": t,
        "params": list(params), "run_id": run_id,
    }
    return [
        mk("run_init", 0.0, node="master"),
        mk("sd_start_search", 1.0),
        mk("sd_service_add", 2.5, ("svc@sm1", "sm1")),
        mk("sd_service_add", 4.0, ("svc@sm2", "sm2")),
        mk("run_exit", 5.0, node="master"),
    ]


def test_extract_complete_discovery():
    out = extract_run_discovery(_events(), 0, "su1", ["sm1", "sm2"])
    assert out.complete
    assert out.t_r == pytest.approx(3.0)
    assert out.search_started == 1.0 and out.found_at == {"sm1": 2.5, "sm2": 4.0}


def test_extract_partial_discovery():
    events = [e for e in _events() if "sm2" not in e["params"]]
    out = extract_run_discovery(events, 0, "su1", ["sm1", "sm2"])
    assert not out.complete and out.t_r is None
    assert out.found_at == {"sm1": 2.5}


def test_extract_wrong_run_or_node_ignored():
    out = extract_run_discovery(_events(run_id=7), 0, "su1", ["sm1"])
    assert out.search_started is None


def test_extract_uses_first_matching_param_only_once():
    events = _events() + [
        {"name": "sd_service_add", "node": "su1", "common_time": 9.0,
         "params": ["svc@sm1", "sm1"], "run_id": 0}
    ]
    out = extract_run_discovery(events, 0, "su1", ["sm1", "sm2"])
    assert out.found_at["sm1"] == pytest.approx(2.5)  # first win


def test_responsiveness_deadlines():
    outcomes = [
        extract_run_discovery(_events(run_id=i), i, "su1", ["sm1", "sm2"])
        for i in range(4)
    ]
    assert responsiveness(outcomes, deadline=3.0) == 1.0
    assert responsiveness(outcomes, deadline=2.0) == 0.0
    with pytest.raises(ValueError):
        responsiveness([], 1.0)


def test_summarize_runs_fields():
    outcomes = [extract_run_discovery(_events(), 0, "su1", ["sm1", "sm2"])]
    s = summarize_runs(outcomes)
    assert s["runs"] == 1 and s["complete"] == 1
    assert s["success_rate"] == 1.0
    assert s["t_r_median"] == pytest.approx(3.0)


def test_summarize_empty():
    s = summarize_runs([])
    assert s["runs"] == 0 and s["t_r_median"] is None


# ----------------------------------------------------------------------
# Process library builders
# ----------------------------------------------------------------------
def test_sm_su_action_shapes():
    assert [type(a).__name__ for a in sm_actions()] == [
        "DomainAction", "DomainAction", "WaitForEvent", "DomainAction",
        "DomainAction",
    ]
    su = su_actions(deadline=12.0)
    waits = [a for a in su if type(a).__name__ == "WaitForEvent"]
    assert waits[-1].timeout == 12.0


def test_two_party_description_validates():
    desc = build_two_party_description(sm_count=2, su_count=2, replications=2)
    report = validate_description(desc)
    assert report.ok, report.errors
    assert len(desc.abstract_nodes) == 4
    assert desc.factors.total_runs() == 2


def test_two_party_with_traffic_has_fig5_factors():
    desc = build_two_party_description(traffic=True, replications=1)
    assert "fact_pairs" in desc.factors
    assert "fact_bw" in desc.factors
    assert desc.factors.get("fact_pairs").level_values == [5, 20]
    assert desc.factors.get("fact_bw").level_values == [10, 50, 100]
    assert validate_description(desc).ok


def test_two_party_settle_inserts_wait():
    desc = build_two_party_description(settle_after_publish=2.0)
    su = desc.actor("actor1")
    assert any(type(a).__name__ == "WaitForTime" for a in su.actions)


def test_three_party_adds_scm_actor():
    desc = build_three_party_description(replications=1)
    assert "actor2" in desc.actor_ids()
    assert "SCM0" in desc.abstract_nodes
    report = validate_description(desc)
    assert report.ok, report.errors
    # The platform spec covers the SCM node too.
    assert desc.platform.for_abstract("SCM0") is not None


def test_descriptions_roundtrip_xml():
    from repro.core.xmlio import description_from_xml, description_to_xml

    for desc in (
        build_two_party_description(traffic=True, replications=2),
        build_three_party_description(replications=1),
    ):
        xml = description_to_xml(desc)
        again = description_from_xml(xml)
        assert description_to_xml(again) == xml
