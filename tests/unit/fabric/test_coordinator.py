"""Unit tests for the coordinator: its completion wait is a wake-up, not a
poll, and a deposed leader cannot write one journal entry."""

import json
import threading
import time

import pytest

from repro.campaign.journal import CampaignJournal
from repro.fabric import coordinator as coordinator_module
from repro.fabric.coordinator import FabricCoordinator
from repro.fabric.election import ElectionLedger, LeadershipLost
from repro.fabric import shipping
from repro.fabric.shipping import extract_run_rows
from repro.sd.processlib import build_two_party_description
from repro.storage.level3 import RunShard

#: Without a wake-up the waiter would sit this long: far beyond every bound
#: asserted below, so a poll cannot pass by landing on a lucky tick.
LONG_PERIOD = 5.0


@pytest.fixture
def coordinator(tmp_path, monkeypatch):
    monkeypatch.setattr(coordinator_module, "SWEEP_PERIOD", LONG_PERIOD)
    desc = build_two_party_description(name="wakeup", seed=7, replications=2, env_count=1)
    with FabricCoordinator(desc, tmp_path, batch_size=2) as coord:
        yield coord


def _wait_in_background(coord):
    """Run ``run_until_complete`` on a thread; ``finalize`` only records
    when it was reached (sealing and merging are not what is timed)."""
    outcome = {}
    coord.finalize = lambda db_path=None: outcome.setdefault("finalized_at", time.monotonic())

    def target():
        try:
            coord.run_until_complete()
        except Exception as exc:  # handed to the asserting thread
            outcome["error"] = exc
        outcome["returned_at"] = time.monotonic()

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    time.sleep(0.1)  # let it reach the wait
    assert thread.is_alive()
    return thread, outcome


def _ack(coord, lease_id, run_id):
    """One fake worker's successful shipment of *run_id*."""
    worker_shard = coord.campaign_dir / "fake_worker.db"
    with RunShard(worker_shard) as shard, shard.replacing_run(run_id) as conn:
        conn.execute("INSERT INTO RunInfos VALUES (?, 't9-100', 0.0, 0.0, NULL)", (run_id,))
    payload = {"image": extract_run_rows(worker_shard, run_id), "duration": 0.01}
    reply = coord._rpc_ack("w0", lease_id, run_id, True, json.dumps(payload), "", coord.epoch)
    return json.loads(reply)["status"]


def test_run_until_complete_returns_with_the_last_ack(coordinator):
    coordinator._rpc_register("w0", 2)
    lease = json.loads(coordinator._rpc_lease("w0", 2, coordinator.epoch))
    assert [run["run_id"] for run in lease["runs"]] == [0, 1]
    thread, outcome = _wait_in_background(coordinator)

    assert _ack(coordinator, lease["lease_id"], 0) == "committed"
    time.sleep(0.05)
    assert thread.is_alive() and not outcome  # one run still out: woken, not done
    assert _ack(coordinator, lease["lease_id"], 1) == "committed"
    acked_at = time.monotonic()

    thread.join(timeout=LONG_PERIOD / 2)
    assert not thread.is_alive()
    assert "error" not in outcome
    assert outcome["finalized_at"] - acked_at < 0.02


def test_a_committed_ack_is_parsed_by_the_shipping_codec(coordinator, monkeypatch):
    # The payload the worker encoded with encode_payload is read back with
    # decode_payload, so the codec's cost lands where it is measured.
    decoded = []

    def spy(text):
        decoded.append(text)
        return shipping.decode_payload(text)

    monkeypatch.setattr(coordinator_module, "decode_payload", spy)
    coordinator._rpc_register("w0", 2)
    lease = json.loads(coordinator._rpc_lease("w0", 2, coordinator.epoch))
    assert _ack(coordinator, lease["lease_id"], 0) == "committed"
    assert len(decoded) == 1 and json.loads(decoded[0])["duration"] == 0.01


def test_a_coordinator_deposed_mid_wait_raises_without_waiting_out_the_period(coordinator):
    thread, outcome = _wait_in_background(coordinator)
    deposed_at = time.monotonic()
    coordinator._mark_deposed("deposed")

    thread.join(timeout=LONG_PERIOD / 2)
    assert not thread.is_alive()
    assert isinstance(outcome["error"], LeadershipLost)
    assert outcome["error"].reason == "deposed"
    assert "finalized_at" not in outcome
    assert outcome["returned_at"] - deposed_at < 0.02


def test_the_status_rpc_reports_the_fleet_over_the_wire(coordinator, capsys):
    """``repro fabric status HOST:PORT``: the coordinator's snapshot of its
    dispatcher, lease table and scheduler, through the fleet wire."""
    from repro.cli import main

    coordinator._rpc_register("w0", 2)
    lease = json.loads(coordinator._rpc_lease("w0", 1, coordinator.epoch))
    assert [run["run_id"] for run in lease["runs"]] == [0]

    assert main(["fabric", "status", coordinator.address]) == 0
    status = json.loads(capsys.readouterr().out)
    assert status["workers"] == {"w0": 2}
    assert status["quarantined"] == []
    assert status["leases"] == {"granted": 1, "active": 1, "leased_runs": 1}
    assert status["scheduler"]["total"] == 2
    assert status["scheduler"]["in_flight"] == 1
    assert status["scheduler"]["done"] == 0
    assert (status["total_runs"], status["staged"], status["finished"]) == (2, 0, False)
    assert status["epoch"] == coordinator.epoch
    assert status["election"]["leader_live"]

    # Without an endpoint, `--dir` reads leadership off the election ledger.
    assert main(["fabric", "status", "--dir", str(coordinator.campaign_dir)]) == 0
    election = json.loads(capsys.readouterr().out)["election"]
    assert election["leader_live"]
    assert election["epoch"] == coordinator.epoch
    assert election["leader_endpoint"] == coordinator.address


class FakeClock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now


@pytest.fixture
def stale_leader(tmp_path):
    """Coordinator A holds epoch 1 with one lease out; a rival then
    force-claims epoch 2, and A has not noticed (its renewal has not run)."""
    clock = FakeClock()
    desc = build_two_party_description(name="stale", seed=7, replications=4, env_count=1)
    with FabricCoordinator(desc, tmp_path, batch_size=2, lease_ttl=5.0, clock=clock) as coord:
        coord._rpc_register("w0", 2)
        lease = json.loads(coord._rpc_lease("w0", 2, coord.epoch))
        assert [run["run_id"] for run in lease["runs"]] == [0, 1]
        rival = ElectionLedger(CampaignJournal(tmp_path), clock=clock)
        assert rival.campaign("rival", "127.0.0.1:1", force=True) == 2
        assert coord.deposed is None and coord.epoch == 1
        entries = CampaignJournal(tmp_path).entries()
        assert entries[-1]["type"] == "leader_claim"
        yield coord, lease["lease_id"], clock
        assert CampaignJournal(tmp_path).entries() == entries
        assert coord.deposed == "deposed"


def test_a_stale_leaders_failed_ack_journals_nothing(stale_leader):
    coord, lease_id, _clock = stale_leader
    reply = coord._rpc_ack("w0", lease_id, 0, False, "", "boom", coord.epoch)
    assert json.loads(reply) == {"status": "not_leader"}


def test_a_stale_leaders_committing_ack_journals_nothing(stale_leader):
    coord, lease_id, _clock = stale_leader
    assert _ack(coord, lease_id, 0) == "not_leader"


def test_a_stale_leader_grants_no_lease(stale_leader):
    coord, _lease_id, _clock = stale_leader
    reply = json.loads(coord._rpc_lease("w1", 2, coord.epoch))
    assert reply["not_leader"] and reply["lease_id"] is None and reply["runs"] == []


def test_a_stale_leaders_sweep_journals_no_expiry(stale_leader):
    coord, _lease_id, clock = stale_leader
    clock.now += 6.0  # past the lease TTL: the sweep would expire it
    with pytest.raises(LeadershipLost, match="epoch 1 is superseded"):
        coord.finished()


def test_a_stale_leader_quarantines_nobody(stale_leader):
    coord, _lease_id, _clock = stale_leader
    reply = json.loads(coord._rpc_quarantine("w0", "operator"))
    assert reply == {"requeued": [], "not_leader": True}
