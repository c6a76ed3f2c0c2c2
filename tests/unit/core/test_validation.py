"""Unit tests for description validation."""

import pytest

from repro.core.description import (
    ActorDescription,
    EnvironmentProcess,
    ExperimentDescription,
    ManipulationProcess,
    PlatformNode,
    PlatformSpec,
)
from repro.core.errors import ValidationError
from repro.core.factors import Factor, Level, Usage
from repro.core.processes import (
    DomainAction,
    EventFlag,
    FactorRef,
    NodeSelector,
    WaitForEvent,
    WaitForTime,
)
from repro.core.validation import validate_description
from repro.paper import full_paper_experiment_xml
from repro.core.xmlio import description_from_xml


def _minimal() -> ExperimentDescription:
    desc = ExperimentDescription(name="v", seed=1)
    desc.abstract_nodes = ["A", "B"]
    desc.factors.add(
        Factor(
            id="fact_nodes", type="actor_node_map", usage=Usage.BLOCKING,
            levels=[Level({"a0": {"0": "A"}, "a1": {"0": "B"}})],
        )
    )
    desc.actors = [
        ActorDescription("a0", actions=[DomainAction(name="sd_init")]),
        ActorDescription("a1", actions=[DomainAction(name="sd_init")]),
    ]
    desc.platform = PlatformSpec(
        [
            PlatformNode("h0", "10.0.0.1", abstract_id="A"),
            PlatformNode("h1", "10.0.0.2", abstract_id="B"),
        ]
    )
    return desc


def test_minimal_description_valid():
    report = validate_description(_minimal())
    assert report.ok, report.errors


def test_paper_experiment_valid():
    desc = description_from_xml(full_paper_experiment_xml(replications=1))
    report = validate_description(desc)
    assert report.ok, report.errors
    assert report.warnings == []


def test_duplicate_actor_ids():
    desc = _minimal()
    desc.actors.append(ActorDescription("a0"))
    assert any("duplicate actor" in e for e in validate_description(desc).errors)


def test_duplicate_abstract_nodes():
    desc = _minimal()
    desc.abstract_nodes.append("A")
    assert any("duplicate abstract" in e for e in validate_description(desc).errors)


def test_map_level_unknown_actor():
    desc = _minimal()
    desc.factors.get("fact_nodes").levels[0].value["ghost"] = {"0": "A"}
    errors = validate_description(desc).errors
    assert any("unknown actor 'ghost'" in e for e in errors)


def test_map_level_undeclared_abstract_node():
    desc = _minimal()
    desc.factors.get("fact_nodes").levels[0].value["a0"] = {"0": "Z"}
    errors = validate_description(desc).errors
    assert any("undeclared abstract node 'Z'" in e for e in errors)


def test_map_level_double_assignment():
    desc = _minimal()
    desc.factors.get("fact_nodes").levels[0].value["a1"] = {"0": "A"}
    errors = validate_description(desc).errors
    assert any("assigned to multiple" in e for e in errors)


def test_map_level_missing_actor_assignment():
    desc = _minimal()
    del desc.factors.get("fact_nodes").levels[0].value["a1"]
    errors = validate_description(desc).errors
    assert any("no node assignment" in e for e in errors)


def test_actors_without_map_factor():
    desc = _minimal()
    from repro.core.factors import FactorList

    desc.factors = FactorList()
    errors = validate_description(desc).errors
    assert any("no actor_node_map" in e for e in errors)


def test_two_actor_map_factors_are_a_validation_error():
    desc = _minimal()
    desc.factors.add(
        Factor(
            id="fact_nodes_2", type="actor_node_map", usage=Usage.BLOCKING,
            levels=[Level({"a0": {"0": "B"}, "a1": {"0": "A"}})],
        )
    )
    report = validate_description(desc)
    assert "at most one actor_node_map factor is allowed" in report.errors
    with pytest.raises(ValidationError):
        report.raise_if_failed()


def test_unmapped_abstract_node():
    desc = _minimal()
    desc.platform = PlatformSpec([PlatformNode("h0", "10.0.0.1", abstract_id="A")])
    errors = validate_description(desc).errors
    assert any("'B' not mapped" in e for e in errors)


def test_unknown_action_name():
    desc = _minimal()
    desc.actors[0].actions.append(DomainAction(name="sd_frobnicate"))
    errors = validate_description(desc).errors
    assert any("unknown action 'sd_frobnicate'" in e for e in errors)


def test_environment_action_in_node_process():
    desc = _minimal()
    desc.actors[0].actions.append(DomainAction(name="env_traffic_start"))
    errors = validate_description(desc).errors
    assert any("environment action" in e for e in errors)


def test_node_action_in_env_process():
    desc = _minimal()
    desc.environment_processes.append(
        EnvironmentProcess(actions=[DomainAction(name="sd_init")])
    )
    errors = validate_description(desc).errors
    assert any("node action" in e for e in errors)


def test_factorref_to_unknown_factor():
    desc = _minimal()
    desc.actors[0].actions.append(WaitForTime(seconds=FactorRef("ghost")))
    errors = validate_description(desc).errors
    assert any("unknown factor 'ghost'" in e for e in errors)


def test_selector_to_unknown_actor():
    desc = _minimal()
    desc.actors[0].actions.append(
        WaitForEvent(event="run_init", from_nodes=NodeSelector(actor="nobody"))
    )
    errors = validate_description(desc).errors
    assert any("unknown actor 'nobody'" in e for e in errors)


def test_negative_timeout():
    desc = _minimal()
    desc.actors[0].actions.append(WaitForEvent(event="run_init", timeout=-5))
    errors = validate_description(desc).errors
    assert any("negative wait_for_event timeout" in e for e in errors)


def test_manipulation_target_checked():
    desc = _minimal()
    desc.manipulations.append(
        ManipulationProcess(actor_id="ghost", actions=[])
    )
    errors = validate_description(desc).errors
    assert any("targets unknown actor" in e for e in errors)


def test_unemitted_event_is_warning_not_error():
    desc = _minimal()
    desc.actors[0].actions.append(WaitForEvent(event="mystery_event"))
    report = validate_description(desc)
    assert report.ok
    assert any("mystery_event" in w for w in report.warnings)


def test_flagged_event_silences_warning():
    desc = _minimal()
    desc.actors[0].actions.append(WaitForEvent(event="custom"))
    desc.actors[1].actions.append(EventFlag(value="custom"))
    report = validate_description(desc)
    assert not any("custom" in w for w in report.warnings)


def test_unknown_special_param_warns():
    desc = _minimal()
    desc.special_params["quantum_flux"] = 3
    report = validate_description(desc)
    assert report.ok
    assert any("quantum_flux" in w for w in report.warnings)


def test_malformed_special_param_is_an_error():
    """A known key whose value does not coerce would silently run with the
    default (``get`` falls back); validation names it instead."""
    desc = _minimal()
    desc.special_params.update(
        max_run_duration="12O",  # letter O: read as 120 s before
        sync_probes="five",
        run_spacing="0.25",  # coerces: fine
        service_type=7,  # str() takes anything
        collect_packets="nope",  # bools read any value
    )
    report = validate_description(desc)
    assert report.errors == [
        "special parameter 'max_run_duration': '12O' is not a valid float",
        "special parameter 'sync_probes': 'five' is not a valid int",
    ]
    with pytest.raises(ValidationError):
        report.raise_if_failed()


def test_raise_if_failed():
    desc = _minimal()
    desc.actors.append(ActorDescription("a0"))
    report = validate_description(desc)
    with pytest.raises(ValidationError) as info:
        report.raise_if_failed()
    assert info.value.problems
