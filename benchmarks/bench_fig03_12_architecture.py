"""Figs. 3 + 12 — the ExCovery workflow and execution components.

Fig. 3 shows the experiment workflow: preparation (design + platform
setup) → execution by the experiment master (runs = actions + faults,
monitored and recorded to temporary storage) → collection & conditioning
(common time base) → a single results database.  Fig. 12 shows the
execution components: the ExperiMaster holding one object per active
node, XML-RPC between master and NodeManagers, per-node locking, the
event generator, the SD implementation behind the process actions, and
the packet tagger running on every node.

These benches regenerate both *structurally*: they walk one experiment
through every workflow stage, asserting each stage's artefact exists, and
inventory the live component graph of a constructed platform.
"""

from conftest import print_table, run_once

from repro import Level2Store, run_experiment
from repro.platforms.simulated import SimulatedPlatform
from repro.sd.processlib import build_two_party_description
from repro.storage.level3 import ExperimentDatabase


def test_fig03_workflow_stages(benchmark, workdir):
    desc = build_two_party_description(
        name="fig3-workflow", seed=3, replications=2, env_count=2,
    )

    def full_workflow():
        # platform setup, execution, condition + store: one per run
        result = run_experiment(desc, workdir / "campaign")
        return result, result.db_path

    result, db_path = run_once(benchmark, full_workflow)

    stages = []
    # 1. Experiment design: the description + generated plan.
    stages.append(("experiment design", f"{result.plan.treatment_count} treatments, "
                   f"{len(result.plan)} runs planned"))
    # 2. Execution with monitoring: runs completed, events recorded.
    stages.append(("execution", f"{len(result.executed_runs)} runs executed"))
    # 3. Temporary (level-2) storage per node and run: one store per run.
    stores = [Level2Store(p) for p in sorted(result.campaign_dir.glob("staging/*/run_*"))]
    l2_nodes = stores[0].node_ids()
    l2_runs = sorted(run_id for store in stores for run_id in store.run_ids())
    assert l2_nodes and l2_runs == [0, 1]
    stages.append(("temporary storage", f"{len(l2_nodes)} nodes x "
                   f"{len(l2_runs)} run stores"))
    # 4. Collection & conditioning: sync measurements present per run.
    for store in stores:
        for run_id in store.run_ids():
            assert store.read_timesync(run_id)
    stages.append(("collect + condition", "per-run clock offsets applied"))
    # 5. The single results database.
    with ExperimentDatabase(db_path) as db:
        counts = db.row_counts()
        assert counts["ExperimentInfo"] == 1
        assert counts["Events"] > 0
    stages.append(("results database", f"{counts['Events']} events, "
                   f"{counts['Packets']} packets"))

    print_table(
        "Fig. 3: experiment workflow stages",
        "stage                 artefact",
        [f"{name:<21} {artefact}" for name, artefact in stages],
    )


def test_fig12_execution_components(benchmark):
    desc = build_two_party_description(
        name="fig12-components", seed=12, replications=1, env_count=4,
        # Deterministic symmetric latencies so the lock-ordering assertions
        # below are exact (jittered channels are exercised elsewhere).
        special_params={"rpc_jitter": 0.0},
    )
    platform = run_once(benchmark, SimulatedPlatform, desc)

    node_ids = sorted(platform.node_managers)
    # One controlling master-side channel, one controlled entity per node.
    assert sorted(platform.channel.node_ids()) == node_ids
    rows = []
    rows.append(f"ExperiMaster side    XML-RPC channel to {len(node_ids)} nodes "
                f"(latency {platform.channel.latency * 1000:.2f} ms)")
    for node_id in node_ids:
        manager = platform.node_managers[node_id]
        agent = platform.agents[node_id]
        # RPC surface (the paper's 'node object presents the functions').
        methods = manager.server.methods()
        for required in ("ping", "run_init", "run_exit", "execute_action",
                         "collect_run"):
            assert required in methods
        # SD implementation behind the process actions (the Avahi role).
        assert manager._handlers["sd_init"].__self__ is agent
        # Event generator and packet tagger per node.
        assert manager.node.tagger.enabled
        rows.append(
            f"NodeManager {node_id:<9} {len(methods)} RPC procedures, "
            f"agent={type(agent).__name__}, tagger on"
        )
    print_table("Fig. 12: execution components", "component            detail", rows)

    # Per-node locking: concurrent calls to one node serialize (the lock),
    # calls to two nodes overlap.
    sim = platform.sim
    order = []

    def call(node, tag):
        yield from platform.channel.call(node, "ping")
        order.append((tag, sim.now))

    sim.process(call(node_ids[0], "n0-first"))
    sim.process(call(node_ids[0], "n0-second"))
    sim.process(call(node_ids[1], "n1-parallel"))
    sim.run(until=1.0)
    finish = {tag: t for tag, t in order}
    assert finish["n0-first"] <= finish["n0-second"]
    assert finish["n1-parallel"] <= finish["n0-second"]
