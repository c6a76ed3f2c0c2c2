"""Shared fixtures for the ExCovery reproduction test suite."""

from __future__ import annotations

import pytest

from repro.net.medium import WirelessMedium
from repro.net.node import NetNode
from repro.net.topology import grid_topology, line_topology
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry


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
