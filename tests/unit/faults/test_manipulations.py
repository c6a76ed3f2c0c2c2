"""Unit tests for environment manipulations (pair selection, controller)."""

import json

import pytest

from repro.core.nodemanager import NodeManager
from repro.core.rpc import ControlChannel
from repro.faults.manipulations import (
    EnvContext,
    EnvironmentController,
    select_traffic_pairs,
)


# ----------------------------------------------------------------------
# Pair selection
# ----------------------------------------------------------------------
POOL = [f"e{i}" for i in range(8)]


def test_pairs_deterministic():
    a = select_traffic_pairs(POOL, 4, seed=1, switch_amount=0, switch_seed=0)
    b = select_traffic_pairs(POOL, 4, seed=1, switch_amount=0, switch_seed=0)
    assert a == b


def test_pairs_distinct():
    pairs = select_traffic_pairs(POOL, 6, seed=2, switch_amount=0, switch_seed=0)
    assert len({tuple(sorted(p)) for p in pairs}) == 6


def test_switch_replaces_exactly_n_pairs():
    base = select_traffic_pairs(POOL, 4, seed=1, switch_amount=0, switch_seed=0)
    switched = select_traffic_pairs(POOL, 4, seed=1, switch_amount=1, switch_seed=9)
    diffs = sum(1 for a, b in zip(base, switched) if a != b)
    assert diffs == 1


def test_switch_seed_controls_replacement():
    s1 = select_traffic_pairs(POOL, 4, seed=1, switch_amount=1, switch_seed=5)
    s2 = select_traffic_pairs(POOL, 4, seed=1, switch_amount=1, switch_seed=5)
    s3 = select_traffic_pairs(POOL, 4, seed=1, switch_amount=1, switch_seed=6)
    assert s1 == s2
    assert s1 != s3  # overwhelmingly likely with 28 possible pairs


def test_switch_amount_capped_at_count():
    pairs = select_traffic_pairs(POOL, 2, seed=1, switch_amount=10, switch_seed=3)
    assert len(pairs) == 2
    assert len({tuple(sorted(p)) for p in pairs}) == 2


def test_overdraw_rejected():
    with pytest.raises(ValueError):
        select_traffic_pairs(["a", "b"], 2, seed=1, switch_amount=0, switch_seed=0)


# ----------------------------------------------------------------------
# Environment controller (against real NodeManagers)
# ----------------------------------------------------------------------
@pytest.fixture
def env_setup(grid_net, rngs):
    sim, topo, medium, nodes = grid_net
    channel = ControlChannel(sim, latency=0.0)
    channel.set_master_handler(lambda rec: None)
    managers = {
        name: NodeManager(sim, node, channel, rngs)
        for name, node in nodes.items()
    }
    for nm in managers.values():
        nm.run_init(0)
    events = []
    ctrl = EnvironmentController(
        sim, channel, emit=lambda name, params=(): events.append((name, params))
    )
    ctx = EnvContext(
        run_id=0,
        replication=0,
        acting_nodes=["n0", "n8"],
        env_nodes=[n for n in nodes if n not in ("n0", "n8")],
        addr_of=lambda nid: nodes[nid].address,
    )
    return sim, ctrl, ctx, managers, events


def _drive(sim, gen):
    p = sim.process(gen)
    sim.run(until_event=p)


def test_candidates_by_choice(env_setup):
    _sim, _ctrl, ctx, _managers, _events = env_setup
    assert ctx.candidates(1) == ["n0", "n8"]
    assert "n0" not in ctx.candidates(0)
    assert len(ctx.candidates(2)) == 9
    with pytest.raises(ValueError):
        ctx.candidates(7)


def test_traffic_start_and_stop(env_setup):
    sim, ctrl, ctx, managers, events = env_setup
    _drive(sim, ctrl.execute("env_traffic_start", {"bw": 100, "random_pairs": 2,
                                                   "choice": 0, "random_seed": 1}, ctx))
    assert events[0][0] == "env_traffic_started"
    assert len(ctrl.last_pairs) == 2
    # "Each pair bidirectionally communicates at a given data rate": one
    # flow per direction of every selected pair, and no other flow.
    flows = [flow for nm in managers.values() for flow in nm._flows]
    assert sorted((f.src.name, f.dst.name) for f in flows) == sorted(
        (src, dst) for a, b in ctrl.last_pairs for src, dst in ((a, b), (b, a))
    )
    assert {f.rate_kbps for f in flows} == {100.0}
    sim.run(until=sim.now + 1.0)
    total = sum(
        len(nm.node.capture.filter(flow="generated-load"))
        for nm in managers.values()
    )
    assert total > 0
    _drive(sim, ctrl.execute("env_traffic_stop", {}, ctx))
    assert events[-1][0] == "env_traffic_stopped"
    assert all(nm._flows == [] for nm in managers.values())


def test_traffic_pair_clamp_recorded(env_setup):
    sim, ctrl, ctx, _managers, events = env_setup
    _drive(sim, ctrl.execute(
        "env_traffic_start",
        {"bw": 10, "random_pairs": 999, "choice": 1, "random_seed": 1}, ctx,
    ))
    _name, params = events[0]
    rate, actual, requested, _pairs = params
    assert requested == 999 and actual == 1  # C(2,2)=1 for two acting nodes


def test_drop_all_roundtrip(env_setup):
    sim, ctrl, ctx, managers, events = env_setup
    _drive(sim, ctrl.execute("env_drop_all_start", {}, ctx))
    assert all(len(nm.node.interface.filters) == 1 for nm in managers.values())
    _drive(sim, ctrl.execute("env_drop_all_stop", {}, ctx))
    assert all(nm.node.interface.filters == [] for nm in managers.values())
    assert [e[0] for e in events] == ["env_drop_all_started", "env_drop_all_stopped"]


def test_generic_fans_out_to_acting_nodes(env_setup):
    sim, ctrl, ctx, managers, events = env_setup
    _drive(sim, ctrl.execute("generic", {"command": "sync"}, ctx))
    for name in ("n0", "n8"):
        block = managers[name].collect_run(0)["events"]
        assert any(json.loads(line)["name"] == "generic_executed" for line in block.split("\n"))
    assert events[-1][0] == "env_generic_executed"


def test_cleanup_stops_leftovers(env_setup):
    sim, ctrl, ctx, managers, _events = env_setup
    _drive(sim, ctrl.execute("env_traffic_start", {"bw": 10, "random_pairs": 1,
                                                   "choice": 0, "random_seed": 1}, ctx))
    _drive(sim, ctrl.execute("env_drop_all_start", {}, ctx))
    _drive(sim, ctrl.cleanup())
    assert all(nm._flows == [] for nm in managers.values())
    assert all(nm.node.interface.filters == [] for nm in managers.values())


def test_cleanup_is_idempotent(env_setup):
    sim, ctrl, ctx, _managers, events = env_setup
    _drive(sim, ctrl.execute("env_traffic_start", {"bw": 10, "random_pairs": 1,
                                                   "choice": 0, "random_seed": 1}, ctx))
    _drive(sim, ctrl.cleanup())
    assert ctrl.last_cleanup_errors == []
    n_events = len(events)
    # A second sweep (e.g. a reconciliation racing run-exit) finds the
    # pending lists already detached: no RPCs, no duplicate stop events.
    _drive(sim, ctrl.cleanup())
    assert len(events) == n_events
    assert ctrl.last_cleanup_errors == []


def test_cleanup_collects_errors_and_keeps_sweeping(env_setup):
    sim, ctrl, ctx, managers, _events = env_setup
    _drive(sim, ctrl.execute("env_traffic_start", {"bw": 10, "random_pairs": 2,
                                                   "choice": 2, "random_seed": 1}, ctx))
    _drive(sim, ctrl.execute("env_drop_all_start", {}, ctx))
    victim = ctrl._traffic_nodes[0]
    original = ctrl.channel.call

    def failing_call(node_id, method, *args, **kwargs):
        if node_id == victim and method == "traffic_stop":
            raise RuntimeError("node unreachable")
        return original(node_id, method, *args, **kwargs)

    ctrl.channel.call = failing_call
    _drive(sim, ctrl.cleanup())
    assert len(ctrl.last_cleanup_errors) == 1
    assert victim in ctrl.last_cleanup_errors[0]
    # The failure did not abort the sweep: every other node's traffic and
    # all drop-all filters were still stopped.
    assert all(nm._flows == [] for name, nm in managers.items() if name != victim)
    assert all(nm.node.interface.filters == [] for nm in managers.values())
    # And the controller converged: nothing left pending.
    assert ctrl._traffic_nodes == [] and ctrl._drop_all_nodes == []


def test_unknown_action_rejected(env_setup):
    _sim, ctrl, ctx, _managers, _events = env_setup
    with pytest.raises(ValueError):
        next(ctrl.execute("env_earthquake", {}, ctx))
