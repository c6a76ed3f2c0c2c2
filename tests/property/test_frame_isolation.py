"""The testbed frame is shared between runs; a run's data is not.

DESIGN.md §8 claims *a run's data is a pure function of (description,
run id)* while the mesh, its route tables and its measurement are built
once per worker process and reused (:mod:`repro.platforms.frame`).  These
tests defend the claim instead of assuming it: whatever the order of runs
and whichever of them find the frame memo warm, cold or holding another
description's frame, every staged byte equals the all-miss execution;
the frame itself hashes the same before and after runs that inject
faults and churn; threads arriving cold build it once; and it offers no
way to change it in place.
"""

import hashlib
import itertools
import json
import sqlite3
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.description import ManipulationProcess
from repro.core.master import build_run_spec, execute_spec_run
from repro.core.processes import DomainAction, NodeSelector
from repro.core.topomeasure import measure_hop_counts, snapshot_topology
from repro.core.xmlio import description_to_xml
from repro.net.topology import from_edges
from repro.obs.metrics import get_registry
from repro.platforms import frame as frame_module
from repro.platforms.simulated import PlatformConfig, SimulatedPlatform
from repro.sd.processlib import build_registry_description, build_two_party_description
from repro.storage.level2 import encode_json
from repro.storage.level3 import RUN_TABLES

RUNS = 4


def _faulty(seed=77):
    """Two-party discovery on a mesh with an interface and a path fault."""
    desc = build_two_party_description(
        name="frame-faults", seed=seed, replications=RUNS, env_count=6, deadline=3.0
    )
    desc.manipulations.append(
        ManipulationProcess(
            actor_id="actor1",
            actions=[
                DomainAction(
                    name="iface_fault_start", params={"direction": "both", "duration": 0.7}
                ),
                DomainAction(
                    name="path_loss_start",
                    params={
                        "peer": NodeSelector(actor="actor0", instance="0"),
                        "probability": 0.5,
                    },
                ),
            ],
        )
    )
    return desc, None


def _churning():
    desc = build_registry_description(
        name="frame-churn",
        seed=78,
        replications=2,
        env_count=1,
        broker_count=1,
        churn=True,
        churn_interval_levels=(1.5,),
        population=True,
        population_levels=(20,),
        hold_time=3.0,
    )
    return desc, PlatformConfig(protocol="registry", topology="full", base_loss=0.0)


def _drop_frame():
    frame_module._memo = None


def _frames(outcome):
    counter = get_registry().counter("repro_testbed_frames_total", labels=("outcome",))
    return counter.value(outcome=outcome)


def _execute(root, xml, config, run_id, worker="w0"):
    """One run the way a campaign worker executes it; returns what it
    staged: the pinned level-2 files and the run's Table-I shard rows."""
    res = execute_spec_run(build_run_spec(root, xml, run_id, worker, config=config))
    store = root / res["store"]
    staged = {
        str(path.relative_to(store)): path.read_bytes()
        for pattern in ("runs/*/events.jsonl", "runs/*/packets.jsonl", "master/topology_*.json")
        for path in sorted(store.glob(pattern))
    }
    assert len(staged) == 4, sorted(staged)
    conn = sqlite3.connect(str(root / res["shard"]))
    try:
        staged["shard"] = {
            table: conn.execute(
                f"SELECT * FROM {table} WHERE RunID = ? ORDER BY rowid", (run_id,)
            ).fetchall()
            for table in RUN_TABLES
        }
    finally:
        conn.close()
    assert staged["shard"]["RunInfos"] and staged["shard"]["Events"]
    return staged


@pytest.fixture(scope="module")
def faulty(tmp_path_factory):
    """``(xml, config, {run id: staged})`` of the all-miss execution."""
    desc, config = _faulty()
    xml = description_to_xml(desc)
    root = tmp_path_factory.mktemp("all-miss")
    expect = {}
    for run_id in range(RUNS):
        _drop_frame()
        expect[run_id] = _execute(root, xml, config, run_id)
    assert expect[0] != expect[1]  # the runs differ, so equality below means something
    return xml, config, expect


_example = itertools.count()


# ----------------------------------------------------------------------
# (a) order, hits and misses are invisible in the staged data
# ----------------------------------------------------------------------
@given(
    order=st.permutations(range(RUNS)),
    cold=st.sets(st.integers(0, RUNS - 1)),
    evicted=st.sets(st.integers(0, RUNS - 1)),
)
@settings(max_examples=20, deadline=None)
def test_any_order_and_any_memo_state_stage_the_all_miss_bytes(
    faulty, tmp_path_factory, order, cold, evicted
):
    xml, config, expect = faulty
    other = description_to_xml(_faulty(seed=5)[0])  # same nodes, another mesh
    root = tmp_path_factory.mktemp(f"example{next(_example)}")
    for position, run_id in enumerate(order):
        if position in cold:
            _drop_frame()
        if position in evicted:
            _execute(root / "other", other, config, 0)
        assert _execute(root, xml, config, run_id) == expect[run_id], (order, cold, evicted)


def test_the_memo_holds_one_frame_and_counts_what_it_did(faulty, tmp_path):
    xml, config, expect = faulty
    other = description_to_xml(_faulty(seed=5)[0])
    _drop_frame()
    built, reused = _frames("built"), _frames("reused")
    assert _execute(tmp_path, xml, config, 2) == expect[2]
    assert _execute(tmp_path, xml, config, 0) == expect[0]
    assert (_frames("built"), _frames("reused")) == (built + 1, reused + 1)
    first = frame_module._memo[1]
    _execute(tmp_path / "other", other, config, 0)  # evicts
    assert frame_module._memo[1] is not first
    assert _execute(tmp_path, xml, config, 3) == expect[3]
    assert (_frames("built"), _frames("reused")) == (built + 3, reused + 1)


# ----------------------------------------------------------------------
# (b) a run leaves the frame as it found it
# ----------------------------------------------------------------------
def _frame_hash(frame):
    topo = frame.topology
    content = (
        # Node order decides the interned ids, neighbour order the routes.
        [(v, list(row.items())) for v, row in topo.adj.items()],
        topo.intern_ids(),
        topo._adj_ids,
        topo._ring_table,
        sorted(topo._route_rows.items()),
        frame.measurement_json,
    )
    return hashlib.sha256(repr(content).encode()).hexdigest()


@pytest.mark.parametrize(
    "build, wanted",
    [
        (_faulty, {"fault_iface_fault_started", "fault_path_loss_started"}),
        (_churning, {"env_churn_event", "env_population_started"}),
    ],
    ids=["faults", "churn"],
)
def test_runs_with_faults_and_churn_leave_the_frame_unchanged(build, wanted, tmp_path):
    desc, config = build()
    xml = description_to_xml(desc)
    _drop_frame()
    frame = SimulatedPlatform(desc, config).frame
    nodes = len(desc.platform.nodes)
    assert len(frame.topology._ring_table) == nodes
    before = _frame_hash(frame)
    for run_id in (1, 0):
        staged = _execute(tmp_path, xml, config, run_id)
        assert frame_module._memo[1] is frame  # reused, not rebuilt
        assert _frame_hash(frame) == before
    # ... and the manipulations did act during those runs.
    event_types = {row[3] for row in staged["shard"]["Events"]}  # EventType
    assert wanted <= event_types, sorted(event_types)


# ----------------------------------------------------------------------
# (c) threads arriving cold build once and stage the serial bytes
# ----------------------------------------------------------------------
def test_two_cold_threads_build_one_frame_and_stage_serial_bytes(faulty, tmp_path, monkeypatch):
    xml, config, expect = faulty
    builds = []
    build = frame_module._build_topology

    def counting(*args):
        builds.append(args)
        return build(*args)

    monkeypatch.setattr(frame_module, "_build_topology", counting)
    staged, errors = {}, []
    barrier = threading.Barrier(2)

    def work(run_id):
        try:
            barrier.wait(timeout=10)
            staged[run_id] = _execute(tmp_path, xml, config, run_id, worker=f"w{run_id}")
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(repr(exc))

    _drop_frame()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(run_id,)) for run_id in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert len(builds) == 1
    assert staged == {0: expect[0], 1: expect[1]}


# ----------------------------------------------------------------------
# (d) no change in place; a changed mesh is measured again
# ----------------------------------------------------------------------
def test_a_frame_topology_refuses_mutation():
    desc, config = _faulty()
    _drop_frame()
    platform = SimulatedPlatform(desc, config)
    topo = platform.topology
    assert topo is platform.frame.topology
    assert len(topo._ring_table) == len(desc.platform.nodes)  # published warm
    for mutator in ("graph", "freeze", "invalidate_cache", "add_edge", "remove_node"):
        assert not hasattr(topo, mutator)
    assert platform.topology_measurement() is platform.frame.measurement_json


def test_a_callers_topology_is_used_as_given_and_remeasured_when_it_moves():
    desc = build_two_party_description(name="own-mesh", seed=3, replications=1, env_count=2)
    names = sorted(n.node_id for n in desc.platform.nodes)
    square = [(names[0], names[1]), (names[0], names[2]), (names[1], names[3]), (names[2], names[3])]
    topo = from_edges(square)  # grid_topology(2, 2), named after the platform
    moved = from_edges(square[1:])  # the same square without its first link
    platform = SimulatedPlatform(desc, PlatformConfig(topology=topo))
    assert platform.topology is topo and platform.frame is None

    def fresh(mesh):
        return encode_json(
            {"hop_counts": measure_hop_counts(mesh, names), "snapshot": snapshot_topology(mesh)}
        )

    before = platform.topology_measurement()
    assert before == fresh(topo)
    assert platform.topology_measurement() is before  # unchanged mesh: not measured again
    platform.topology = moved
    after = platform.topology_measurement()
    assert after != before and after == fresh(moved)
    assert json.loads(after)["hop_counts"]["hops"][0][1] == 3
