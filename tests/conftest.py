"""Shared fixtures for the ExCovery reproduction test suite."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.campaign.journal import CampaignJournal
from repro.core.master import ExperiMaster
from repro.core.plan import generate_plan
from repro.net.medium import WirelessMedium
from repro.net.node import NetNode
from repro.net.topology import grid_topology, line_topology
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.platforms.simulated import SimulatedPlatform
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry
from repro.storage.level2 import Level2Store


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def rngs():
    return RngRegistry(1234)


@pytest.fixture
def grid_net(sim, rngs):
    """A 3x3 lossless grid with nine attached nodes, keyed n0..n8."""
    topo = grid_topology(3, 3, base_loss=0.0)
    medium = WirelessMedium(sim, topo, rngs.stream("medium"))
    nodes = {}
    for i, name in enumerate(topo.node_names):
        node = NetNode(sim, name, f"10.0.0.{i + 1}")
        medium.attach(node)
        nodes[name] = node
    return sim, topo, medium, nodes


@pytest.fixture
def pair_net(sim, rngs):
    """Two directly connected lossless nodes a, b."""
    topo = line_topology(2, base_loss=0.0, prefix="h")
    medium = WirelessMedium(sim, topo, rngs.stream("medium"))
    a = NetNode(sim, "h0", "10.1.0.1")
    b = NetNode(sim, "h1", "10.1.0.2")
    medium.attach(a)
    medium.attach(b)
    return sim, medium, a, b


@pytest.fixture
def suppressed():
    """``repro_suppressed_errors_total`` of a fresh process registry."""
    registry = MetricsRegistry()
    set_registry(registry)
    try:
        yield registry.counter("repro_suppressed_errors_total", labels=("site",))
    finally:
        set_registry(None)


def drive(sim, until=10.0):
    """Run a simulation for the given horizon (helper, not fixture)."""
    sim.run(until=until)
    return sim.now


def execute_run(desc, root, run_id=0, config=None, platform=None, **kwargs):
    """Execute run *run_id* of *desc* with one ExperiMaster into the level-2
    store at *root* — a campaign worker's run, minus the shard (helper, not
    fixture).  *kwargs* go to :class:`ExperiMaster`."""
    platform = platform or SimulatedPlatform(desc, config)
    return ExperiMaster(platform, desc, Level2Store(root), run_id, **kwargs).execute()


def execute_plan(desc, root, config=None, **kwargs):
    """Execute every run of *desc*, one ExperiMaster and platform each, into
    the one level-2 store at *root*; returns the runs' platforms (helper)."""
    platforms = []
    for run in generate_plan(desc.factors, desc.seed, kwargs.get("custom_treatments")):
        platforms.append(SimulatedPlatform(desc, config))
        execute_run(desc, root, run.run_id, platform=platforms[-1], **kwargs)
    return platforms


def staging_store(campaign_dir, run_id):
    """The level-2 staging store of *run_id*'s committed attempt (helper)."""
    worker = CampaignJournal(campaign_dir).state().completed[run_id]["worker"]
    return Level2Store(Path(campaign_dir) / "staging" / worker / f"run_{run_id:06d}")
