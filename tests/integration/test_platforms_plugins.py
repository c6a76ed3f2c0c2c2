"""Integration: platform adapters, plugins, and the packet tagger pipeline."""

import pytest

from repro import ExperiMaster, Level2Store, store_level3
from repro.analysis.packetstats import packet_stats_for_run
from repro.core.errors import PlatformError
from repro.core.plugins import MediumStatsPlugin, PluginManager
from repro.platforms.base import PlatformCapabilities
from repro.platforms.localhost import LocalhostPlatform
from repro.platforms.simulated import PlatformConfig, SimulatedPlatform
from repro.sd.processlib import build_two_party_description
from repro.storage.conditioning import condition_run
from repro.storage.level3 import ExperimentDatabase

from tests.conftest import execute_run


def _small_desc(seed=41, **kw):
    kw.setdefault("replications", 1)
    kw.setdefault("env_count", 2)
    return build_two_party_description(seed=seed, **kw)


# ----------------------------------------------------------------------
# Platforms
# ----------------------------------------------------------------------
def test_platform_capabilities_complete():
    platform = SimulatedPlatform(_small_desc())
    assert platform.capabilities().missing() == []
    assert isinstance(platform.capabilities(), PlatformCapabilities)


def test_platform_rejects_unknown_protocol():
    with pytest.raises(PlatformError, match="unknown SD protocol"):
        SimulatedPlatform(_small_desc(), PlatformConfig(protocol="carrier-pigeon"))


def test_platform_rejects_unknown_topology():
    with pytest.raises(PlatformError, match="unknown topology"):
        SimulatedPlatform(_small_desc(), PlatformConfig(topology="moebius"))


def test_platform_topology_covers_all_platform_nodes():
    for shape in ("mesh", "grid", "line", "full"):
        platform = SimulatedPlatform(_small_desc(), PlatformConfig(topology=shape))
        ids = {n.node_id for n in platform.description.platform.nodes}
        assert set(platform.topology.node_names) == ids


def test_platform_custom_topology():
    from repro.net.topology import from_edges

    desc = _small_desc(env_count=0)  # two nodes: t9-100, t9-101
    topo = from_edges([("t9-100", "t9-101")])
    platform = SimulatedPlatform(desc, PlatformConfig(topology=topo))
    assert platform.topology is topo


def test_platform_custom_topology_must_cover_nodes():
    from repro.net.topology import from_edges

    desc = _small_desc(env_count=2)
    topo = from_edges([("t9-100", "t9-101")])
    with pytest.raises(PlatformError, match="misses platform nodes"):
        SimulatedPlatform(desc, PlatformConfig(topology=topo))


def test_path_fault_peer_must_name_a_platform_node():
    platform = SimulatedPlatform(_small_desc())
    platform.channel.set_master_handler(lambda record: None)
    faults = platform.node_managers["t9-101"].faults
    with pytest.raises(ValueError, match="'t9-199' is no platform node"):
        faults.start("path_loss", {"peer": "t9-199", "probability": 1.0})
    assert faults.node.interface.filters == []
    sm_addr = platform.description.platform.by_id("t9-100").address
    for peer in ("t9-100", sm_addr):  # a node id or its address
        fault_id = faults.start("path_loss", {"peer": peer, "probability": 1.0})
        assert faults.node.interface.filters[-1].peer_addr == sm_addr
        faults.stop(fault_id)


def test_check_nodes_detects_missing():
    platform = SimulatedPlatform(_small_desc())
    with pytest.raises(PlatformError, match="no nodes"):
        platform.check_nodes(["ghost-node"])


def test_localhost_platform_realtime_pacing(tmp_path):
    import time

    desc = _small_desc(env_count=0)
    desc.special_params.update({"run_spacing": 0.0, "run_settle_time": 0.01})
    platform = LocalhostPlatform(desc, realtime_factor=200.0)
    master = ExperiMaster(platform, desc, Level2Store(tmp_path / "rt"), 0)
    t0 = time.monotonic()
    result = master.execute()
    wall = time.monotonic() - t0
    assert (result.run_id, result.timed_out) == (0, False)
    # Simulated duration / 200 must roughly lower-bound the wall time.
    assert wall >= result.duration / 200.0 * 0.5


def test_localhost_rejects_bad_factor():
    with pytest.raises(ValueError):
        LocalhostPlatform(_small_desc(), realtime_factor=0.0)


# ----------------------------------------------------------------------
# Plugins
# ----------------------------------------------------------------------
def test_medium_stats_plugin_records_per_run(tmp_path):
    desc = _small_desc(replications=2)
    for run_id in (0, 1):
        platform = SimulatedPlatform(desc)
        plugins = PluginManager(measurement=[MediumStatsPlugin(platform.medium)])
        execute_run(desc, tmp_path / "pl", run_id, platform=platform, plugins=plugins)
    db_path = store_level3(Level2Store(tmp_path / "pl"), tmp_path / "pl.db")
    with ExperimentDatabase(db_path) as db:
        for run_id in db.run_ids():
            extras = db.extra_measurements(run_id)
            medium = extras["master"]["medium_stats"]["medium"]
            assert medium["transmissions"] > 0
            assert medium["deliveries"] > 0


def test_custom_measurement_and_action_plugin(tmp_path):
    from repro.core.actions import ActionKind, ActionSpec
    from repro.core.plugins import ActionPlugin, MeasurementPlugin
    from repro.core.processes import DomainAction

    class CountingPlugin(MeasurementPlugin):
        name = "counter"

        def __init__(self):
            self.inits = 0

        def on_run_init(self, master, run):
            self.inits += 1

        def on_run_exit(self, master, run):
            return {"runs_seen": self.inits}

        def on_experiment_exit(self, master):
            return {"total": self.inits}

    class BeepAction(ActionPlugin):
        name = "beeper"

        def action_specs(self):
            return [ActionSpec("beep", ActionKind.NODE, emits=("beeped",))]

        def node_handlers(self):
            # handler(node_manager, params): installed on every node by
            # the master — the complete plugin extension path.
            return {"beep": lambda nm, params: nm.emit("beeped")}

    desc = _small_desc()
    desc.actors[0].actions.insert(1, DomainAction(name="beep"))
    platform = SimulatedPlatform(desc)
    counting = CountingPlugin()
    plugins = PluginManager(measurement=[counting], action=[BeepAction()])
    result = execute_run(desc, tmp_path / "cp", platform=platform, plugins=plugins)
    assert counting.inits == 1
    db_path = store_level3(result.store, tmp_path / "cp.db")
    with ExperimentDatabase(db_path) as db:
        assert db.events(event_type="beeped")
        extras = db.extra_measurements(0)
        assert extras["master"]["counter"]["runs_seen"] == 1
    meas = result.store.experiment_measurements()
    assert meas["counter"]["total"] == 1


def test_duplicate_plugin_names_rejected():
    from repro.core.plugins import MeasurementPlugin

    class P(MeasurementPlugin):
        name = "same"

    with pytest.raises(ValueError):
        PluginManager(measurement=[P(), P()])


# ----------------------------------------------------------------------
# Tagger end-to-end
# ----------------------------------------------------------------------
def test_tagged_packets_enable_loss_delay_analysis(tmp_path):
    result = execute_run(_small_desc(), tmp_path / "tag")
    run = condition_run(result.store, 0)
    rows = packet_stats_for_run(run.packets)
    assert rows, "tagged experiment packets must produce loss/delay rows"
    for row in rows:
        assert 0.0 <= row["loss_rate"] <= 1.0
        if row["delay"]["n"]:
            assert row["delay"]["mean"] > 0.0
