"""Pinned level-2 bytes and level-3 digests of two small experiments.

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
from repro.core.rpc import RpcServer
from repro.core.wire import fallback_counter
from repro.platforms.simulated import PlatformConfig
from repro.sd.processlib import build_registry_description, build_two_party_description

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
], ids=["two-party-mdns", "two-party-mdns-31-traffic", "registry"])
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
