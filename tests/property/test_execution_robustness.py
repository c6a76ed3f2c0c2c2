"""Property test: random (terminating) descriptions execute end to end.

Hypothesis generates small arbitrary process descriptions from a
terminating action vocabulary (bounded waits, flags, generic actions,
timed-out event waits, fault start/stop pairs); every generated
experiment must validate, execute to completion on the platform, collect
all runs, and condition into a consistent level-3 database.  This is the
broadest robustness net over the interpreter/master/storage stack.
"""

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import run_experiment
from repro.core.description import (
    ActorDescription,
    EnvironmentProcess,
    ExperimentDescription,
    ManipulationProcess,
    PlatformNode,
    PlatformSpec,
)
from repro.core.factors import Factor, FactorList, Level, ReplicationFactor, Usage
from repro.core.processes import (
    DomainAction,
    EventFlag,
    WaitForEvent,
    WaitForTime,
    WaitMarker,
)
from repro.core.validation import validate_description
from repro.platforms.simulated import PlatformConfig
from repro.storage.level3 import ExperimentDatabase

_flag_names = st.sampled_from(["alpha", "beta", "gamma"])


@st.composite
def terminating_actions(draw, max_len=5):
    """A short action sequence guaranteed to finish in bounded time."""
    n = draw(st.integers(min_value=0, max_value=max_len))
    actions = []
    for _ in range(n):
        kind = draw(st.integers(min_value=0, max_value=5))
        if kind == 0:
            actions.append(WaitForTime(seconds=draw(
                st.floats(min_value=0.0, max_value=0.3))))
        elif kind == 1:
            actions.append(EventFlag(value=draw(_flag_names)))
        elif kind == 2:
            actions.append(WaitMarker())
        elif kind == 3:
            # Every event wait carries a timeout -> cannot hang.
            actions.append(WaitForEvent(
                event=draw(_flag_names),
                timeout=draw(st.floats(min_value=0.05, max_value=0.5)),
            ))
        elif kind == 4:
            actions.append(DomainAction(
                name="generic",
                params={"k": draw(st.integers(min_value=0, max_value=9))},
            ))
        else:
            actions.append(DomainAction(
                name="msg_loss_start",
                params={
                    "probability": draw(st.floats(min_value=0.0, max_value=1.0)),
                    "duration": draw(st.floats(min_value=0.05, max_value=0.5)),
                },
            ))
    return actions


@st.composite
def random_descriptions(draw):
    desc = ExperimentDescription(
        name="fuzz", seed=draw(st.integers(min_value=0, max_value=2**20)),
    )
    desc.abstract_nodes = ["A", "B"]
    desc.factors = FactorList(
        [
            Factor(id="fact_nodes", type="actor_node_map", usage=Usage.BLOCKING,
                   levels=[Level({"a0": {"0": "A"}, "a1": {"0": "B"}})]),
            Factor(id="knob", type="int", usage=Usage.RANDOM,
                   levels=[Level(1), Level(2)]),
        ],
        ReplicationFactor(count=draw(st.integers(min_value=1, max_value=2))),
    )
    desc.actors = [
        ActorDescription("a0", actions=draw(terminating_actions())),
        ActorDescription("a1", actions=draw(terminating_actions())),
    ]
    if draw(st.booleans()):
        desc.manipulations.append(
            ManipulationProcess(actor_id="a0", actions=draw(terminating_actions(3)))
        )
    if draw(st.booleans()):
        desc.environment_processes.append(
            EnvironmentProcess(actions=[
                EventFlag(value="ready"),
                *draw(terminating_actions(2)),
            ])
        )
        # Keep env sequences node-action-free.
        desc.environment_processes[0].actions = [
            a for a in desc.environment_processes[0].actions
            if not isinstance(a, DomainAction)
        ]
    desc.platform = PlatformSpec([
        PlatformNode("f0", "10.0.0.1", abstract_id="A"),
        PlatformNode("f1", "10.0.0.2", abstract_id="B"),
    ])
    desc.special_params = {"max_run_duration": 30.0, "run_spacing": 0.0,
                           "run_settle_time": 0.0}
    return desc


@given(desc=random_descriptions())
@settings(
    max_examples=15, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_random_descriptions_execute_and_store(tmp_path_factory, desc):
    report = validate_description(desc)
    assert report.ok, report.errors

    root = tmp_path_factory.mktemp("fuzz")
    result = run_experiment(desc, root / "c", config=PlatformConfig(topology="full"))
    assert len(result.executed_runs) == desc.factors.total_runs()
    assert result.timed_out_runs == []  # terminating vocabulary

    with ExperimentDatabase(result.db_path) as db:
        # Every run has run_init/run_exit bracketing on the master lane.
        for run_id in db.run_ids():
            names = [e["name"] for e in db.events(run_id=run_id, node_id="master")]
            assert names[0] == "run_init" and names[-1] == "run_exit"
        # Events are JSON-clean and time-ordered per run.
        for run_id in db.run_ids():
            events = db.events(run_id=run_id)
            json.dumps(events)
            times = [e["common_time"] for e in events]
            assert times == sorted(times)
