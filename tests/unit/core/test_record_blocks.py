"""Collection as level-2 record blocks: failure paths and a wire budget.

A node encodes its run records once and ships them as a block; these tests
pin what happens when that goes wrong (unencodable record, lost reply,
damaged stream) and that the reply never silently grows back into one
XML-RPC struct per record.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.core.errors import RpcError, RpcFault
from repro.core.nodemanager import NodeManager
from repro.core.rpc import ControlChannel, RetryPolicy, dump_request
from repro.platforms.simulated import PlatformConfig
from repro.sd.processlib import build_two_party_description
from repro.storage import level2
from repro.storage.level2 import Level2Store
from repro.storage.level3 import ExperimentDatabase, store_level3

from tests.conftest import execute_run

SM_NODE = "t9-100"


@pytest.fixture
def managed(pair_net, rngs):
    sim, _medium, a, b = pair_net
    channel = ControlChannel(
        sim, latency=0.001, call_timeout=0.05, retry=RetryPolicy(max_attempts=3, seed=0)
    )
    channel.set_master_handler(lambda record: None)
    return sim, channel, NodeManager(sim, a, channel, rngs), NodeManager(sim, b, channel, rngs)


def _call(sim, gen):
    """Run one channel call to completion; an RPC error is re-raised here."""
    box = {}

    def proc():
        try:
            box["result"] = yield from gen
        except RpcError as exc:
            box["error"] = exc

    sim.run(until_event=sim.process(proc()))
    if "error" in box:
        raise box["error"]
    return box["result"]


def _desc(**kwargs):
    return build_two_party_description(
        name="blocks", seed=2014, replications=2, env_count=1, **kwargs
    )


# ----------------------------------------------------------------------
# Failure paths
# ----------------------------------------------------------------------
def test_unencodable_record_is_a_fault_500_at_the_node(managed):
    sim, channel, nm_a, _nm_b = managed
    nm_a.run_init(0)
    nm_a._run_events[0].append({"name": "bad", "params": [object()]})
    with pytest.raises(RpcFault) as info:
        _call(sim, channel.call("h0", "collect_run", 0, True))
    assert info.value.fault_code == 500
    assert "TypeError" in str(info.value)


def test_wide_ints_and_control_characters_survive_collection(managed):
    sim, channel, nm_a, _nm_b = managed
    nm_a.run_init(0)
    nm_a.emit("odd", params=(2**40, "a\r\nb\x00"))
    data = _call(sim, channel.call("h0", "collect_run", 0, True))
    assert json.loads(data["events"].split("\n")[-1])["params"] == [2**40, "a\r\nb\x00"]


def test_retried_collect_run_returns_the_same_block(managed):
    sim, channel, nm_a, nm_b = managed
    nm_a.run_init(0)
    nm_b.run_init(0)
    nm_b.node.bind(9, lambda *a: None)
    nm_a.node.send_datagram({"k": "v"}, nm_b.node.address, 9)
    sim.run(until=0.5)
    nm_a.run_exit(0)
    first = nm_a.collect_run(0)
    channel.add_call_fault("h0", "drop_reply", "collect_run")
    data = _call(sim, channel.call("h0", "collect_run", 0, True))
    assert channel.retried_calls == 1
    assert data == first and data["packets"].count("\n") == 0 and data["packets"]


def test_dropped_collect_reply_stores_each_record_exactly_once(tmp_path):
    clean = execute_run(_desc(), tmp_path / "clean")
    chaos = execute_run(
        _desc(), tmp_path / "chaos",
        config=PlatformConfig(control_faults=[
            {"node": SM_NODE, "action": "drop_reply", "method": "collect_run", "run_id": 0}]),
    )
    retried = [span["attrs"] for span in chaos.store.read_run_traces("master", 0)
               if span["name"] == "rpc"]
    assert [(a["method"], a["target"], a["attempts"]) for a in retried] == [
        ("collect_run", SM_NODE, 2)]
    for stream in ("events.jsonl", "packets.jsonl"):
        stored = chaos.store.read_run_stream(0, stream)[SM_NODE]
        assert stored and stored == clean.store.read_run_stream(0, stream)[SM_NODE]


def test_salvage_keeps_every_other_frame_of_a_block_written_stream(tmp_path):
    tool_path = Path(__file__).resolve().parents[3] / "tools" / "corrupt_l2.py"
    spec = importlib.util.spec_from_file_location("corrupt_l2", tool_path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)

    result = execute_run(_desc(), tmp_path / "l2")
    before = result.store.read_run_stream(0, "events.jsonl")
    assert tool.main([str(tmp_path / "l2"), "--run", "0", "--node", SM_NODE,
                      "--index", "1", "--flip-byte"]) == 0
    salvaging = Level2Store(tmp_path / "l2", salvage=True)
    after = salvaging.read_run_stream(0, "events.jsonl")
    assert after.pop(SM_NODE) == before[SM_NODE][:1] + before[SM_NODE][2:]
    assert after == {node: recs for node, recs in before.items() if node != SM_NODE}
    with ExperimentDatabase(store_level3(salvaging, tmp_path / "s.db")) as db:
        (row,) = db.salvage_info()
        assert (row["NodeID"], row["RecordsDropped"], row["Reason"]) == (
            SM_NODE, 1, "crc_mismatch")


# ----------------------------------------------------------------------
# One repr per payload object, per collect_run call
# ----------------------------------------------------------------------
class _Payload:
    """A payload that counts how often it is made wire-safe."""

    def __init__(self, text):
        self.text, self.reprs = text, 0

    def __repr__(self):
        self.reprs += 1
        return f"<payload {self.text}>"


def _per_record_block(records):
    """The packets block as built with one ``repr`` per capture record."""
    wires = [{**rec, "payload": repr(rec.get("payload")),
              "options": {str(k): v for k, v in (rec.get("options") or {}).items()}}
             for rec in records]
    return level2.encode_block(wires)


def test_a_shared_payload_is_made_wire_safe_once_per_call(managed):
    sim, _channel, nm_a, nm_b = managed
    shared, other = _Payload("shared"), _Payload("other")
    for nm in (nm_a, nm_b):
        nm.run_init(0)
    nm_b.node.bind(9, lambda *a: None)
    for payload in (shared, shared, other, shared, None, None):
        nm_a.node.send_datagram(payload, nm_b.node.address, 9)
    sim.run(until=0.5)
    for nm in (nm_a, nm_b):
        nm.run_exit(0)
    blocks = {nm: nm.collect_run(0)["packets"] for nm in (nm_a, nm_b)}
    assert (shared.reprs, other.reprs) == (2, 2)  # once per node's call
    for nm, block in blocks.items():
        assert block == _per_record_block(nm._run_packets[0])
        assert block.count("<payload shared>") == 3
    # The memo lives for one call: a payload changed since shows.
    shared.text = "changed"
    again = nm_a.collect_run(0)["packets"]
    assert again.count("<payload changed>") == 3 and "<payload shared>" not in again
    assert again == _per_record_block(nm_a._run_packets[0])


# ----------------------------------------------------------------------
# Don't ship what the master drops
# ----------------------------------------------------------------------
def test_unwanted_packets_are_neither_made_wire_safe_nor_shipped(managed, monkeypatch):
    sim, _channel, nm_a, nm_b = managed
    nm_a.run_init(0)
    nm_b.node.bind(9, lambda *a: None)
    nm_a.node.send_datagram("x", nm_b.node.address, 9)
    sim.run(until=0.5)
    monkeypatch.setattr(NodeManager, "_packet_wire", staticmethod(
        lambda rec: pytest.fail("_packet_wire ran for packets nobody asked for")))
    nm_a.run_exit(0)
    assert nm_a.collect_run(0, False)["packets"] == ""


def test_collect_packets_false_still_marks_every_node(tmp_path):
    result = execute_run(_desc(special_params={"collect_packets": False}), tmp_path / "l2")
    packets = result.store.read_run_stream(0, "packets.jsonl")
    assert set(packets) == set(result.store.read_run_stream(0, "events.jsonl"))
    assert not any(packets.values())
    assert SM_NODE in result.store.node_ids()


# ----------------------------------------------------------------------
# One open per nodes/ file at experiment exit
# ----------------------------------------------------------------------
def test_experiment_exit_opens_each_nodes_file_once(tmp_path, monkeypatch):
    opened = []
    real = level2._open_append
    monkeypatch.setattr(level2, "_open_append",
                        lambda path: opened.append(path.name) or real(path))
    result = execute_run(_desc(), tmp_path / "l2")
    assert opened.count("logs.jsonl") == opened.count("experiment_events.jsonl") == 1
    nodes = [n for n in result.store.node_ids() if n != "master"]
    assert sorted(result.store.read_node_logs()) == nodes
    events = result.store._read_node_frames("experiment_events.jsonl")
    assert all(events.get(n) for n in nodes + ["master"])


# ----------------------------------------------------------------------
# Wire budget (a count, not a timing)
# ----------------------------------------------------------------------
def test_collect_run_reply_is_the_block_plus_small_change(managed):
    sim, _channel, nm_a, nm_b = managed
    nm_a.run_init(0)
    nm_b.node.bind(9, lambda *a: None)
    for i in range(100):
        nm_a.node.send_datagram({"q": f"svc-{i}"}, nm_b.node.address, 9)
    sim.run(until=5.0)
    nm_a.run_exit(0)
    block = nm_a.collect_run(0)["packets"]
    assert block.count("\n") + 1 == 100
    reply_xml = nm_a.server.handle_request(dump_request("collect_run", (0, True)))
    assert len(reply_xml) <= 1.15 * len(block) + 1024
