"""The simulator fast path is provably invisible in the science.

The O(1) medium hot loop and the copy-avoiding data plane are
performance work; the experiment data must not know they
exist.  These tests run the *same full 100-node experiment* twice — once
on the production fast path and once on the frozen pre-optimization
stack (``ReferenceSimulator`` + ``ReferenceMedium`` +
``ReferenceNetNode``, swapped in through the platform's module-level
names) — and require:

* byte-identical level-3 Table-I digests,
* identical ``MediumStats`` (transmissions, deliveries, losses, MAC
  retries),
* identical kernel callback counts and RNG end states.

A 100-node packet storm — floods and multi-hop pings on kernel, medium
and nodes alone, no control plane — is held to the same standard down to
the capture records.
"""

import dataclasses
import hashlib
import json
import random

import pytest

from repro.campaign import database_digest
from repro.net.medium import CongestionModel, WirelessMedium
from repro.net.node import NetNode
from repro.net.packet import MULTICAST_SD_GROUP, reset_uid_counter
from repro.net.topology import random_geometric_topology
from repro.platforms.simulated import PlatformConfig, SimulatedPlatform
from repro.sd.processlib import build_two_party_description
from repro.sim.kernel import Simulator
from repro.storage.level2 import Level2Store
from repro.storage.level3 import store_level3
from tests.conftest import execute_plan
from tests.oracles.net_reference import ReferenceMedium, ReferenceNetNode
from tests.oracles.sim_reference import ReferenceSimulator

NODES = 100


def _description():
    return build_two_party_description(
        name="fastpath-equiv",
        seed=1009,
        sm_count=2,
        su_count=2,
        env_count=NODES - 4,
        replications=2,
        deadline=30.0,
        special_params={"run_spacing": 0.0},
    )


def _execute(tmp_path, label):
    desc = _description()
    config = PlatformConfig(topology="mesh", mesh_radius=0.22, base_loss=0.03)
    platforms = execute_plan(desc, tmp_path / label / "l2", config)
    db_path = store_level3(Level2Store(tmp_path / label / "l2"), tmp_path / label / "exp.db")
    return {
        "digest": database_digest(db_path),
        "stats": [
            (p.medium.stats.transmissions, p.medium.stats.deliveries,
             p.medium.stats.losses, p.medium.stats.mac_retries)
            for p in platforms
        ],
        "callbacks": [p.sim.executed_callbacks for p in platforms],
        "medium_rng": [p.medium.rng.getstate() for p in platforms],
        "runs": len(platforms),
    }


@pytest.fixture
def reference_data_plane(monkeypatch):
    """Swap the whole pre-optimization stack into the simulated platform."""
    monkeypatch.setattr("repro.platforms.simulated.Simulator", ReferenceSimulator)
    monkeypatch.setattr("repro.platforms.simulated.WirelessMedium", ReferenceMedium)
    monkeypatch.setattr("repro.platforms.simulated.NetNode", ReferenceNetNode)


def test_level3_digest_identical_at_paper_scale(tmp_path, monkeypatch):
    fast = _execute(tmp_path, "fast")

    monkeypatch.setattr("repro.platforms.simulated.Simulator", ReferenceSimulator)
    monkeypatch.setattr("repro.platforms.simulated.WirelessMedium", ReferenceMedium)
    monkeypatch.setattr("repro.platforms.simulated.NetNode", ReferenceNetNode)
    ref = _execute(tmp_path, "reference")

    assert fast["runs"] == ref["runs"] > 0
    # The headline claim: the fast path changes nothing the paper's
    # tables are built from.
    assert fast["digest"] == ref["digest"]
    assert fast["stats"] == ref["stats"]
    assert fast["callbacks"] == ref["callbacks"]
    # Identical RNG end state proves neither flavour drew a single
    # extra random number anywhere in the run.
    assert fast["medium_rng"] == ref["medium_rng"]


def test_reference_stack_actually_swapped(tmp_path, reference_data_plane):
    # Guard against the monkeypatch silently missing its target: the
    # platform built under the fixture must really carry reference parts.
    desc = _description()
    config = PlatformConfig(topology="mesh", mesh_radius=0.22, base_loss=0.03)
    platform = SimulatedPlatform(desc, config)
    assert isinstance(platform.sim, ReferenceSimulator)
    assert isinstance(platform.medium, ReferenceMedium)
    assert not isinstance(platform.medium, WirelessMedium)
    node = next(iter(platform.node_managers.values())).node
    assert isinstance(node, ReferenceNetNode)
    assert type(node) is not NetNode


# ----------------------------------------------------------------------
# Packet storm (pure data plane)
# ----------------------------------------------------------------------
STORM_SEED = 7
FLOOD_PORT, PING_PORT, PONG_PORT = 5353, 7, 8


def _noop(payload, packet, node):
    pass


def _pong(payload, packet, node):
    node.send_datagram(
        {"r": payload["n"]},
        dst_addr=packet.src_addr,
        dst_port=PONG_PORT,
        src_port=PING_PORT,
        size=64,
        flow="load",
    )


def _tick(sim, node, dst_addr, port, size, interval, seq, remaining):
    node.send_datagram(
        {"n": seq}, dst_addr=dst_addr, dst_port=port, src_port=port, size=size, flow="load"
    )
    if remaining > 1:
        sim.call_later(
            interval, _tick, sim, node, dst_addr, port, size, interval, seq + 1, remaining - 1
        )


def _storm(sim_cls, medium_cls, node_cls):
    """4 nodes flood the mesh and 50 ping their farthest peer, 10 ticks each."""
    reset_uid_counter(1)  # uids are process-global: both flavours start at 1
    topo = random_geometric_topology(NODES, 0.22, seed=STORM_SEED)
    names = topo.node_names
    sim = sim_cls()
    medium = medium_cls(
        sim,
        topo,
        random.Random(STORM_SEED * 7 + 1),
        congestion=CongestionModel(capacity_bps=2e6),
    )
    nodes = []
    for i, name in enumerate(names):
        node = node_cls(sim, name, f"10.0.{i >> 8}.{i & 255}")
        node.join_group(MULTICAST_SD_GROUP)
        node.bind(FLOOD_PORT, _noop)
        node.bind(PING_PORT, _pong)
        node.bind(PONG_PORT, _noop)
        medium.attach(node)
        nodes.append(node)
    for i in range(4):
        flooder = nodes[i * NODES // 4]
        sim.call_later(
            0.01 * i, _tick, sim, flooder, MULTICAST_SD_GROUP, FLOOD_PORT, 192, 0.5, 0, 10
        )
    # Farthest peers come from a throwaway topology: the one under test
    # starts with cold route tables in both flavours.
    hops = random_geometric_topology(NODES, 0.22, seed=STORM_SEED).hop_rows(names)
    for i in range(50):
        far = max(range(NODES), key=lambda j: (hops[i][j], -j))
        sim.call_later(
            0.05 + i * 0.001, _tick, sim, nodes[i], nodes[far].address, PING_PORT, 64, 0.5, 0, 10
        )
    sim.run(until=5.0)
    capture = hashlib.sha256()
    for node in nodes:
        for rec in node.capture.records:
            capture.update(json.dumps(rec, sort_keys=True).encode())
    return {
        "stats": dataclasses.asdict(medium.stats),
        "callbacks": sim.executed_callbacks,
        "captured": sum(len(node.capture) for node in nodes),
        "capture_digest": capture.hexdigest(),
        "medium_rng": medium.rng.getstate(),
    }


def test_packet_storm_identical_down_to_the_capture_records():
    fast = _storm(Simulator, WirelessMedium, NetNode)
    ref = _storm(ReferenceSimulator, ReferenceMedium, ReferenceNetNode)
    assert fast["stats"]["deliveries"] > 10_000 and fast["captured"] > 10_000
    assert fast == ref
