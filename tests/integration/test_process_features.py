"""Integration: description-language features beyond the happy path.

Covers the run-duration backstop, factor-referenced delays, node-targeted
manipulation processes, drop-all environments, windowed (duration x rate)
faults, path faults with node selectors, and publication updates.
"""


from repro import run_experiment
from repro.analysis.responsiveness import run_outcomes
from repro.core.description import EnvironmentProcess, ManipulationProcess
from repro.core.factors import Factor, Level, Usage
from repro.core.processes import (
    DomainAction,
    EventFlag,
    FactorRef,
    NodeSelector,
    WaitForEvent,
    WaitForTime,
)
from repro.platforms.simulated import PlatformConfig
from repro.sd.processlib import build_two_party_description
from repro.storage.level3 import ExperimentDatabase


def _db(result):
    return ExperimentDatabase(result.db_path)


def test_run_backstop_interrupts_hung_actor(tmp_path):
    desc = build_two_party_description(replications=2, seed=61, env_count=0)
    # The SM waits for an event nobody ever raises (no timeout) — without
    # the backstop the run would hang forever.
    desc.actor("actor0").actions.insert(
        2, WaitForEvent(event="never_raised")
    )
    # And the SU never raises done either (it waits for the SM's flag).
    desc.special_params["max_run_duration"] = 3.0
    desc.special_params["run_spacing"] = 0.0
    result = run_experiment(desc, tmp_path / "hang")
    assert result.timed_out_runs == [0, 1]
    assert len(result.executed_runs) == 2  # the series still completes
    with _db(result) as db:
        assert len(db.events(event_type="run_timeout")) == 2
        # Both runs were still collected and conditioned.
        assert db.run_ids() == [0, 1]


def test_wait_for_time_factor_reference(tmp_path):
    desc = build_two_party_description(replications=1, seed=62, env_count=0)
    desc.factors.add(
        Factor(id="fact_delay", type="float", usage=Usage.CONSTANT,
               levels=[Level(1.5)])
    )
    su = desc.actor("actor1")
    # Delay the search by the factor's value.
    idx = next(i for i, a in enumerate(su.actions)
               if isinstance(a, DomainAction) and a.name == "sd_start_search")
    su.actions.insert(idx, WaitForTime(seconds=FactorRef("fact_delay")))
    result = run_experiment(desc, tmp_path / "delay")
    with _db(result) as db:
        events = {e["name"]: e["common_time"] for e in db.events(run_id=0)}
        assert events["sd_start_search"] - events["sd_init_done"] >= 1.5


def test_manipulation_targeting_abstract_node(tmp_path):
    desc = build_two_party_description(replications=1, seed=63, env_count=0)
    # Target by abstract node id rather than actor role.
    desc.manipulations.append(
        ManipulationProcess(
            node_id="SU0",
            actions=[DomainAction(name="msg_delay_start", params={"delay": 0.2})],
        )
    )
    result = run_experiment(desc, tmp_path / "nid")
    with _db(result) as db:
        started = db.events(event_type="fault_msg_delay_started")
        assert len(started) == 1
        # The SU's platform node (second actor node) carries the fault.
        assert started[0]["node"] == desc.platform.for_abstract("SU0").node_id


def test_drop_all_environment_blocks_discovery(tmp_path):
    desc = build_two_party_description(
        replications=1, seed=64, env_count=2, deadline=2.0,
    )
    desc.environment_processes = [
        EnvironmentProcess(actions=[
            DomainAction(name="env_drop_all_start"),
            EventFlag(value="ready_to_init"),
            WaitForEvent(event="done"),
            DomainAction(name="env_drop_all_stop"),
        ])
    ]
    result = run_experiment(desc, tmp_path / "dropall")
    with _db(result) as db:
        outcomes = run_outcomes(db)
        assert all(not o.complete for o in outcomes)
        assert db.events(event_type="env_drop_all_started")
        assert db.events(event_type="env_drop_all_stopped")


def test_windowed_fault_delays_discovery_until_window_ends(tmp_path):
    """An interface fault with duration=4, rate=1.0 silences the SU for
    the first 4 s of the run; discovery succeeds right after."""
    desc = build_two_party_description(
        replications=2, seed=65, env_count=0, deadline=20.0,
    )
    desc.manipulations.append(
        ManipulationProcess(
            actor_id="actor1",
            actions=[DomainAction(
                name="iface_fault_start",
                params={"direction": "both", "duration": 4.0, "rate": 1.0},
            )],
        )
    )
    result = run_experiment(desc, tmp_path / "window")
    with _db(result) as db:
        for run_id in db.run_ids():
            events = {e["name"]: e["common_time"] for e in db.events(run_id=run_id)}
            fault_start = next(
                e["common_time"]
                for e in db.events(run_id=run_id, event_type="fault_iface_fault_started")
            )
            add = events.get("sd_service_add")
            assert add is not None, "discovery must succeed after the window"
            assert add > fault_start + 3.5
            assert "fault_iface_fault_stopped" in events


def test_path_loss_with_node_selector_peer(tmp_path):
    """A path fault whose peer parameter is a node selector resolving to
    the SM: SU<->SM traffic dies, but the SU still hears third parties."""
    desc = build_two_party_description(
        sm_count=2, replications=1, seed=66, env_count=0, deadline=3.0,
    )
    desc.manipulations.append(
        ManipulationProcess(
            actor_id="actor1",
            actions=[DomainAction(
                name="path_loss_start",
                params={
                    "peer": NodeSelector(actor="actor0", instance="0"),
                    "probability": 1.0,
                },
            )],
        )
    )
    config = PlatformConfig(topology="full", sd_config={"announce_count": 0})
    result = run_experiment(desc, tmp_path / "path", config=config)
    with _db(result) as db:
        outcomes = run_outcomes(db)
        assert len(outcomes) == 1
        outcome = outcomes[0]
        # Multicast queries still reach SM1 (instance "1"), whose responses
        # are multicast from a different source address -> they pass.
        sm0 = desc.platform.for_abstract("SM0").node_id
        sm1 = desc.platform.for_abstract("SM1").node_id
        assert sm1 in outcome.found_at
        assert sm0 not in outcome.found_at


def test_update_publication_emits_upd_events(tmp_path):
    desc = build_two_party_description(replications=1, seed=67, env_count=0)
    sm = desc.actor("actor0")
    # Publish, wait a moment, update the description, then proceed.
    idx = next(i for i, a in enumerate(sm.actions)
               if isinstance(a, DomainAction) and a.name == "sd_start_publish")
    sm.actions.insert(idx + 1, WaitForTime(seconds=0.5))
    sm.actions.insert(
        idx + 2, DomainAction(name="sd_update_publication", params={})
    )
    result = run_experiment(desc, tmp_path / "upd")
    with _db(result) as db:
        upd = db.events(event_type="sd_service_upd")
        assert upd, "the SM must emit sd_service_upd"
        # The SU sees the new version arriving after its add.
        su_events = [e["name"] for e in db.events(
            run_id=0, node_id=desc.platform.for_abstract("SU0").node_id)]
        assert "sd_service_add" in su_events


def test_event_flag_params_travel_to_bus(tmp_path):
    desc = build_two_party_description(replications=1, seed=68, env_count=0)
    su = desc.actor("actor1")
    done_idx = next(i for i, a in enumerate(su.actions)
                    if isinstance(a, EventFlag))
    su.actions.insert(done_idx, EventFlag(value="checkpoint", params=(7, "tag")))
    result = run_experiment(desc, tmp_path / "flag")
    with _db(result) as db:
        flags = db.events(event_type="checkpoint")
        assert flags and flags[0]["params"] == [7, "tag"]


def test_role_rotation_across_treatments(tmp_path):
    """The actor_node_map factor can carry several levels, rotating which
    physical node plays SM vs SU per treatment — role placement as a
    studied factor.  Analysis infers roles per run, so it follows."""
    desc = build_two_party_description(replications=1, seed=73, env_count=0)
    map_factor = desc.factors.actor_map_factor()
    swapped = {
        "actor0": {"0": "SU0"},  # the SM role lands on the other node
        "actor1": {"0": "SM0"},
    }
    map_factor.levels.append(type(map_factor.levels[0])(swapped))
    result = run_experiment(desc, tmp_path / "rot")
    assert len(result.executed_runs) == 2
    with _db(result) as db:
        from repro.analysis.responsiveness import discover_roles

        sm_node = desc.platform.for_abstract("SM0").node_id
        su_node = desc.platform.for_abstract("SU0").node_id
        sus0, sms0 = discover_roles(db, 0)
        sus1, sms1 = discover_roles(db, 1)
        assert sms0 == [sm_node] and sus0 == [su_node]
        assert sms1 == [su_node] and sus1 == [sm_node]  # swapped
        # Both placements succeed.
        outcomes = run_outcomes(db)
        assert all(o.complete for o in outcomes)


def test_multi_instance_actor_role(tmp_path):
    """One actor role instantiated on several abstract nodes: the same
    prototype runs on each instance (Sec. IV-C: 'multiple abstract nodes
    can instantiate the same actor description')."""
    desc = build_two_party_description(
        sm_count=3, su_count=1, replications=1, seed=74, env_count=0,
    )
    result = run_experiment(desc, tmp_path / "multi")
    with _db(result) as db:
        publishes = db.events(event_type="sd_start_publish", run_id=0)
        assert len(publishes) == 3  # one per instance of actor0
        outcomes = run_outcomes(db)
        assert outcomes[0].complete and len(outcomes[0].required) == 3


def test_replication_factor_addressable_in_actions(tmp_path):
    """Fig. 7 references fact_replication_id as a factor; any action can."""
    desc = build_two_party_description(replications=3, seed=69, env_count=0)
    su = desc.actor("actor1")
    su.actions.append(
        DomainAction(name="generic",
                     params={"rep": FactorRef("fact_replication_id")})
    )
    result = run_experiment(desc, tmp_path / "repref")
    with _db(result) as db:
        generics = db.events(event_type="generic_executed")
        reps = sorted(p for e in generics for p in e["params"] if p.startswith("rep="))
        assert reps == ["rep=0", "rep=1", "rep=2"]
