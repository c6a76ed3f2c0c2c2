"""Unit tests for the fabric worker's lease loop and what it sees of a
stopped coordinator."""

import json
import time

import pytest

from repro.core.errors import CampaignError
from repro.core.rpc import RpcServer
from repro.fabric import FabricCoordinator, FleetChannel
from repro.fabric.wire import FleetServer
from repro.fabric.worker import FabricWorker
from repro.sd.processlib import build_two_party_description


def _coordinator(renewals):
    rpc = RpcServer("test")

    def renew(worker_id, lease_id, epoch):
        renewals.append(lease_id)
        return True

    rpc.register_function(renew, "renew")
    return FleetServer("127.0.0.1", 0, rpc)


def test_execute_lease_returns_right_after_its_last_run(tmp_path):
    """The renewer sleeps on the lease's own event: ending the batch wakes
    it at once instead of burning ``renewer.join``'s 2 s timeout."""
    renewals = []
    with _coordinator(renewals) as server:
        worker = FabricWorker("%s:%d" % server.address, "w0", tmp_path)
        finished = []

        def run_one(lease_id, entry):
            time.sleep(0.6)  # two runs span exactly one renewal (period 1 s)
            finished.append(time.monotonic())

        worker._execute_one = run_one
        worker._execute_lease("lease-1", [{"run_id": 0}, {"run_id": 1}], ttl=3.0)
        tail = time.monotonic() - finished[-1]
        worker.channel.close()
    assert len(finished) == 2
    assert renewals == ["lease-1"]  # it did renew meanwhile
    assert tail < 0.2, f"lease tail idled {tail:.2f}s"


def test_killed_worker_stops_renewing(tmp_path):
    renewals = []
    with _coordinator(renewals) as server:
        worker = FabricWorker("%s:%d" % server.address, "w0", tmp_path)

        def run_one(lease_id, entry):
            worker.kill()  # simulated death mid-run
            time.sleep(0.8)  # past the 0.5 s renewal period

        worker._execute_one = run_one
        worker._execute_lease("lease-1", [{"run_id": 0}], ttl=1.5)
        worker.channel.close()
    assert renewals == []


def test_coordinator_stopped_mid_campaign_refuses_old_connections(tmp_path):
    """Handler threads outlive ``stop()`` on connections workers already
    hold; mid-campaign they must answer ``not_leader`` (so the fleet goes
    looking for a successor), after the last run they still say ``done``."""
    desc = build_two_party_description(name="stop", seed=1, replications=1, env_count=1)
    coordinator = FabricCoordinator(desc, tmp_path / "mid", port=0)
    coordinator.start()
    with FleetChannel(coordinator.address, reconnect_budget=0.5) as channel:
        channel.call("register", "w0", 1)
        coordinator.stop()
        assert coordinator.deposed == "stopped"
        assert json.loads(channel.call("lease", "w0", 1, 1))["not_leader"] is True

    coordinator = FabricCoordinator(desc, tmp_path / "over", port=0)
    coordinator.start()
    with FleetChannel(coordinator.address, reconnect_budget=0.5) as channel:
        channel.call("register", "w0", 1)
        with coordinator._lock:
            for run in coordinator.session.plan:
                coordinator.session.scheduler.mark_done(run.run_id)
        assert coordinator.session.scheduler.finished
        coordinator.stop()
        assert coordinator.deposed is None
        assert json.loads(channel.call("lease", "w0", 1, 1))["done"] is True


def test_finalize_releases_leadership_once_complete_even_if_the_merge_fails(tmp_path):
    """``campaign_complete`` is what ends the need for a leader: a merge
    that raises afterwards must not leave standbys waiting out the TTL,
    while a seal refused for failed runs keeps the lease."""
    desc = build_two_party_description(name="seal", seed=1, replications=1, env_count=1)
    coordinator = FabricCoordinator(desc, tmp_path / "merge", port=0)
    with coordinator:
        # Settled in the scheduler but never journaled: the merge finds
        # no completed run to read.
        coordinator.session.scheduler.mark_done(0)
        with pytest.raises(CampaignError, match="no completed runs"):
            coordinator.finalize(db_path=tmp_path / "out.db")
        assert coordinator.election.current().released == "complete"

    coordinator = FabricCoordinator(desc, tmp_path / "failed", port=0, max_attempts=1)
    with coordinator:
        ticket = coordinator.session.scheduler.next_ticket()
        coordinator.session.settle_failed(ticket.run_id, "w0", "boom", ticket.attempts)
        with pytest.raises(CampaignError, match=r"run\(s\) failed after"):
            coordinator.finalize()
        assert coordinator.election.current().released is None
