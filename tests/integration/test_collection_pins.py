"""Pinned level-2 bytes and level-3 digests of small experiments, one or
more per SD family.

The literals were recorded on the commit *before* run measurements started
crossing the control channel as node-encoded record blocks (PR 14, parent
208534b), with the struct-per-record collection path.  Whatever carries a
record from a node to level 2 must keep every byte of the run streams and
of the ``nodes/`` files, and with them the level-3 Table-I digest.

``topology_before`` was recorded on the commit before the topology
measurement started to be encoded once per testbed frame (PR 20, parent
a5057d2); ``master/topology_after.json`` holds the same bytes, nothing
having changed the mesh.

``wire`` — sha256 over every ``handle_request`` request and response, in
order — and the whole 31-node traffic case were recorded on the commit
before the control channel got its own reader/writer for the XML-RPC
grammar (PR 23, parent f5a8d0b): whatever encodes a call must emit the
stdlib marshaller's bytes.  The same runs must never need the stdlib codec
(``repro_rpc_codec_fallback_total`` stays put), so a new RPC shape that
silently drops to the slow path is noticed here.  The three ``wire``
literals were re-recorded once, when the fault-lease ledger was deleted:
``run_init`` no longer replies ``{"reconciled": []}``, so its response is
the empty reply every other void procedure sends.  No other literal moved.

The SLP, hybrid and direct-polling registry cases were recorded on commit
bb8123a, before the four agent families started to share their sender,
transaction, announcer, responder and record intake in ``SDAgent``: every
family's wire bytes, RNG draws and events must survive that sharing.

The ``node-faults`` case was recorded on commit 8063bc0, before the six
communication fault kinds and drop-all became one data-parameterised
``FaultFilter`` built from one kind table: every fault kind, a random
direction, a rate-gated window, path scoping and drop-all run in it, so
each kind's RNG draws, verdicts and events must survive that merge.

The experiments execute as one-worker campaigns, each run in its own
kernel and level-2 staging store; the level-2 hashes run over the plan's
stores in run order.  The one-run traffic case kept every literal when the
serial series became a one-worker campaign.  The two 2-run cases were
re-recorded then, once: their run 1 used to continue run 0's kernel
timeline (starting seconds later in simulated time), and now starts
afresh like every campaign run.
"""

import hashlib

import pytest

from repro import run_experiment
from repro.campaign import database_digest
from repro.core.description import ManipulationProcess
from repro.core.processes import DomainAction, WaitForTime
from repro.core.rpc import RpcServer
from repro.core.wire import fallback_counter
from repro.platforms.simulated import PlatformConfig
from repro.sd.processlib import (
    build_registry_description, build_three_party_description, build_two_party_description)

from tests.conftest import staging_store


def _mdns():
    return build_two_party_description(
        name="pin-mdns", seed=2014, replications=2, env_count=2), None


def _mdns_traffic():
    return build_two_party_description(
        name="pin-mdns-traffic", seed=2014, replications=1, env_count=29,
        traffic=True, pairs_levels=(4,), bw_levels=(100,)), None


def _registry():
    desc = build_registry_description(
        name="pin-registry", seed=2014, replications=2, env_count=1, broker_count=1,
        churn=True, churn_interval_levels=(1.5,), population=True,
        population_levels=(50,), hold_time=4.0)
    return desc, PlatformConfig(protocol="registry", topology="full", base_loss=0.0)


def _slp():
    desc = build_three_party_description(
        name="pin-slp", seed=2014, replications=2, env_count=2)
    return desc, PlatformConfig(protocol="slp")


def _hybrid():
    desc = build_three_party_description(
        name="pin-hybrid", seed=2014, replications=2, env_count=2)
    return desc, PlatformConfig(protocol="hybrid")


def _registry_direct():
    desc = build_registry_description(
        name="pin-registry-direct", seed=2014, replications=2, env_count=1, broker_count=0)
    return desc, PlatformConfig(protocol="registry", topology="full", base_loss=0.0)


def _node_faults():
    desc = build_two_party_description(
        name="pin-faults", seed=2014, replications=2, env_count=2)
    peer = desc.platform.nodes[0].node_id
    desc.manipulations += [
        ManipulationProcess(actor_id="actor1", actions=[
            DomainAction("msg_loss_start", {
                "probability": 0.3, "duration": 4, "rate": 0.5, "randomseed": 3,
                "direction": "random"}),
            DomainAction("msg_delay_start", {"delay": 0.01, "direction": "tx"}),
            DomainAction("msg_reorder_start", {"probability": 0.5, "delay": 0.02}),
            DomainAction("path_loss_start", {"peer": peer, "probability": 0.2, "direction": "rx"}),
            DomainAction("path_delay_start", {"peer": peer, "delay": 0.005}),
            WaitForTime(0.5),
            DomainAction("iface_fault_start", {"duration": 0.3}),
            WaitForTime(1.0),
            DomainAction("msg_delay_stop"),
            DomainAction("path_delay_stop"),
        ]),
        ManipulationProcess(actor_id="actor0", actions=[
            DomainAction("msg_reorder_start", {
                "probability": 1.0, "delay": 0.03, "direction": "random"}),
            WaitForTime(2.0),
            DomainAction("msg_reorder_stop"),
        ]),
    ]
    desc.environment_processes[0].actions += [
        WaitForTime(0.2), DomainAction("env_drop_all_start"),
        WaitForTime(0.1), DomainAction("env_drop_all_stop"),
    ]
    return desc, None


def _sha(stores, pattern, keep=lambda path: True):
    digest = hashlib.sha256()
    for store in stores:
        for path in sorted(store.root.glob(pattern)):
            if keep(path):
                digest.update(str(path.relative_to(store.root)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _codec_fallbacks():
    counter = fallback_counter()
    return counter.value(direction="encode"), counter.value(direction="decode")


@pytest.mark.parametrize("build, run_streams, node_files, l3_digest, topology_before, wire", [
    (_mdns,
     "68d73a0139aad5906d853dfcfc09792f2fd4a3c36833f3b862c738c0e0539545",
     "731effb78a639147a3e313c41de0567bd9abd16f563e0c2c29fa4709ee5d81ff",
     "377b985c88e25ea27b71435caa74107744860bb7745bc623cf9f63dc28efa983",
     "fbddc3364de0e31fbf87ada6733cc63fd43e349041f6166a7bb558297be8ebcf",
     "38e88e4c289dd3df81c1204e31fe4f58e3860944ecb355d74ca70d524d28b71b"),
    (_mdns_traffic,
     "3cbb0a94fe08b3ae8b881354b036afca988bd6f07534f9a07cf388f6b89a2a43",
     "582c38d413e632eab33e2a445aab578c9597f057dd5277c9c53d158b4847f7d7",
     "a3d349c9b89d42389e758777072b4f75de9beb7ca7fce82ec2848a2c702420c6",
     "3f085715867310987226a08ae1becabc50478e39605f98406d49675c44ce967f",
     "2ca405c8e42a8a794f4aef735a2970cedccf52f88268904d7fab6fdd9a23f207"),
    (_registry,
     "36d701cba08eef51a5f01ea71316edf0639a42559fdc1830027461322b97b6b7",
     "a9b46bcd032d8c954330353e79db25d86f10c844a90dfb30fbdff71700ec7359",
     "89a0144137f144fc206cc2ab39df59a32404fae13665da0957bc5f60cb8d7c08",
     "3b7cde0641cc867097a119f88cd0e77f3795f048d6840d8714e5a1c4eab75bda",
     "67fd5b9d4c4b9e9e43acf99655ce9acba62dc95a8d8a56606cb6711e3fea689d"),
    (_slp,
     "fe7ba671c915c478d74f4e0ae40a13b09d716f17a5505dae389eebc0327b62c2",
     "a9921f65aec5b121124aae560045c92507fbcdee468dacd898ab0da6916e5ceb",
     "a9a94f32f03e46b69c08dc95e08dbac5a184ce83fe74960887f647577ed6a76d",
     "636252b8797435d1444f9b7ad7a8b600c3b7010e888eedf2cfa730a1650ffc58",
     "00871b1417951733e7c4bba05ff31e200f2b4c959c4793e1ee3de73d02b6ec93"),
    (_hybrid,
     "3a89177b0f6c4f0b721e1e868f5b5a1771553329edeac8504e840d88764cdf7e",
     "ced1e5109074da90ccb1a360c03de6d7caafeab580aef01e6b196cebab03dd5d",
     "0403dcd2a617c3847eaf6cc3e1d649a53cef690be77eb0dcc1ba663bc3bef4fd",
     "636252b8797435d1444f9b7ad7a8b600c3b7010e888eedf2cfa730a1650ffc58",
     "7c703ad88df80fa1aea20d96031e4718bb8fb30b1bc69ab43d5f5a00d1845040"),
    (_registry_direct,
     "0a701f4d87c2227c379a407a7846d80e6ab1e4273a87ea75e7784982046ae420",
     "6193b8842595e7be89a2dd9098511b017d28158f581a98756a80fc75591176d7",
     "a87d96a0c3cc5a1afad6b66f79d6fa195eee8092c8035134c36c37a1bfb80e5e",
     "1c1bd8d5b93448643def7afafbecc4edea22bb2276eb946124f56aba863db43c",
     "e3037c00c3f14e57c7c6741472dd7be86e73ce2e2d54f152f5b28a1b2ad8f6d6"),
    (_node_faults,
     "35656085319e07f685362df62960779deba0345d2c45257481d07e9ac4e8a731",
     "66b0c422350a720a39c39337eb34c9ea73df6337379b2c1caa28a272abf97add",
     "cbd377ed4a86d752cd02bcab8fc6b52a8abe1f084aef7621b3ed0b7489985b98",
     "fbddc3364de0e31fbf87ada6733cc63fd43e349041f6166a7bb558297be8ebcf",
     "8d008931a0fdb70a3429781ba7eb7c593b28f4539cdf177ca0d1d1d46fc1407f"),
], ids=["two-party-mdns", "two-party-mdns-31-traffic", "registry",
        "three-party-slp", "three-party-hybrid", "registry-direct", "node-faults"])
def test_level2_bytes_and_level3_digest_equal_the_parent_commit(
        tmp_path, monkeypatch, build, run_streams, node_files, l3_digest, topology_before, wire):
    handle_request, on_the_wire = RpcServer.handle_request, hashlib.sha256()

    def hashed(server, request_xml):
        response_xml = handle_request(server, request_xml)
        on_the_wire.update(request_xml.encode() + b"\0" + response_xml.encode() + b"\0")
        return response_xml

    monkeypatch.setattr(RpcServer, "handle_request", hashed)
    fallbacks = _codec_fallbacks()
    desc, config = build()
    result = run_experiment(desc, tmp_path / "c", config=config)
    assert on_the_wire.hexdigest() == wire
    assert _codec_fallbacks() == fallbacks
    stores = [staging_store(result.campaign_dir, run.run_id) for run in result.plan]
    # traces.jsonl carries host-clock span times and is not pinned.
    assert _sha(stores, "runs/*/*.jsonl", lambda p: p.name != "traces.jsonl") == run_streams
    assert _sha(stores, "nodes/*.jsonl") == node_files
    for store in stores:
        before = (store.root / "master" / "topology_before.json").read_bytes()
        assert hashlib.sha256(before).hexdigest() == topology_before
        assert (store.root / "master" / "topology_after.json").read_bytes() == before
    assert database_digest(result.db_path) == l3_digest
