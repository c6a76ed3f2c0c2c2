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
silently drops to the slow path is noticed here.
"""

import hashlib
from pathlib import Path

import pytest

from repro import run_experiment, store_level3
from repro.campaign import database_digest
from repro.core.rpc import RpcServer
from repro.core.wire import fallback_counter
from repro.platforms.simulated import PlatformConfig
from repro.sd.processlib import build_registry_description, build_two_party_description


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


def _sha(root, pattern, keep=lambda path: True):
    digest = hashlib.sha256()
    for path in sorted(Path(root).glob(pattern)):
        if keep(path):
            digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _codec_fallbacks():
    counter = fallback_counter()
    return counter.value(direction="encode"), counter.value(direction="decode")


@pytest.mark.parametrize("build, run_streams, node_files, l3_digest, topology_before, wire", [
    (_mdns,
     "eb96cb827c7db9406ee84e5c282f3399e3ff7aa95bc1cf32d9e78e2906db9a7e",
     "67dc9a7afe3279aaf046568da287cb1d36abd4e37fbbc930c9146f3e878b5948",
     "419cc7f3ea4ef4e43f7ab25ad17b0df2300d5332727f9f62248d3fff53bac6a5",
     "fbddc3364de0e31fbf87ada6733cc63fd43e349041f6166a7bb558297be8ebcf",
     "b7fc0341433d67f2c35d51cd78f074c88f86ce8a7827101d641f4a09f477be98"),
    (_mdns_traffic,
     "3cbb0a94fe08b3ae8b881354b036afca988bd6f07534f9a07cf388f6b89a2a43",
     "582c38d413e632eab33e2a445aab578c9597f057dd5277c9c53d158b4847f7d7",
     "a3d349c9b89d42389e758777072b4f75de9beb7ca7fce82ec2848a2c702420c6",
     "3f085715867310987226a08ae1becabc50478e39605f98406d49675c44ce967f",
     "ce9ff0fbdd37ec93ee9eb47b4a8034755bf693bec36350674c4f462167d121b2"),
    (_registry,
     "9c0c1a1cceba9433fb5c1577555194eca683a989828015a7f0eba8b54b02eb11",
     "a307869f69ead36cb750219c667527d344628aecfa7e6497b4969e4c80e4c970",
     "1d598ab0190c6b3842cbd6e7cdf71e1259278d040b0c5e085bd740bd2e1820be",
     "3b7cde0641cc867097a119f88cd0e77f3795f048d6840d8714e5a1c4eab75bda",
     "098f066267b026f95767efe399d513cc736b9ca19abd501fde535f3547b595fb"),
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
    result = run_experiment(desc, store_root=tmp_path / "l2", config=config)
    assert on_the_wire.hexdigest() == wire
    assert _codec_fallbacks() == fallbacks
    root = tmp_path / "l2"
    # traces.jsonl carries host-clock span times and is not pinned.
    assert _sha(root, "runs/*/*.jsonl", lambda p: p.name != "traces.jsonl") == run_streams
    assert _sha(root, "nodes/*.jsonl") == node_files
    before = (root / "master" / "topology_before.json").read_bytes()
    assert hashlib.sha256(before).hexdigest() == topology_before
    assert (root / "master" / "topology_after.json").read_bytes() == before
    assert database_digest(store_level3(result.store, tmp_path / "l3.db")) == l3_digest
