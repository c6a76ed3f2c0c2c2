"""Integration: automatic coordinator failover (DESIGN.md §16).

Three drills over real localhost sockets with in-process workers:

1. **Leader death + hot standby.**  The leader is stopped abruptly
   mid-campaign with a standby watching the election ledger; the standby
   must claim the next epoch within the election TTL, workers must
   re-resolve through their seed lists, and the merged database must be
   byte-identical to the no-failure local reference.
2. **Graceful handoff.**  ``repro fabric handoff`` drains in-flight
   batches and releases leadership; the successor finishes the campaign
   with exactly zero re-leased runs and an identical digest.
3. **Worker partition.**  A worker is partitioned from the leader
   mid-batch; its batch is re-leased and re-executed, and when the
   partition heals its buffered stale acks deduplicate instead of
   double-committing.

The CI ``fleet-chaos`` job repeats drills 1 and a SIGSTOP-based
partition variant with real processes (``tools/fleet_chaos_drill.py``).
"""

import socket
import threading
import time

import pytest

from repro.campaign import CampaignJournal, database_digest, run_campaign
from repro.cli import main as cli_main
from repro.core.errors import CampaignError
from repro.fabric import (
    FabricCoordinator,
    FabricWorker,
    LeadershipLost,
    PartitionGate,
    StandbyCoordinator,
    clear_partition_gate,
    install_partition_gate,
)
from repro.fabric.election import ElectionLedger
from repro.sd.processlib import build_two_party_description


def _desc(seed=31, replications=6):
    return build_two_party_description(
        name="fleet-it",
        seed=seed,
        replications=replications,
        env_count=1,
    )


@pytest.fixture(scope="module")
def local_reference(tmp_path_factory):
    root = tmp_path_factory.mktemp("local")
    run_campaign(
        _desc(), root / "campaign", db_path=root / "ref.db", jobs=2, pool="thread",
    )
    return database_digest(root / "ref.db")


def _free_port():
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def _spawn_worker(seeds, workdir, worker_id, reconnect_budget=8.0, execute=None):
    worker = FabricWorker(
        seeds,
        worker_id,
        workdir,
        capacity=2,
        poll_interval=0.1,
        reconnect_budget=reconnect_budget,
        execute=execute,
    )
    thread = threading.Thread(
        target=worker.run_forever, daemon=True, name=f"fleet-{worker_id}",
    )
    thread.start()
    return worker, thread


def _spawn_standby(campaign_dir, port, db_path, timeout=240.0, **kwargs):
    standby = StandbyCoordinator(
        _desc(),
        campaign_dir,
        standby_id="s1",
        port=port,
        election_ttl=1.0,
        poll=0.1,
        db_path=db_path,
        batch_size=2,
        **kwargs,
    )
    outcome = {}

    def watch():
        try:
            outcome["result"] = standby.run(timeout=timeout)
        except Exception as exc:  # noqa: BLE001 - surfaced via assert
            outcome["error"] = exc

    thread = threading.Thread(target=watch, daemon=True, name="standby")
    thread.start()
    return standby, thread, outcome


def _wait_for_settled(coordinator, minimum, budget=120.0):
    deadline = time.monotonic() + budget
    while time.monotonic() < deadline:
        with coordinator._lock:
            settled = len(coordinator.session.scheduler.done)
        if settled >= minimum:
            return settled
        time.sleep(0.05)
    pytest.fail(f"coordinator never settled {minimum} run(s)")


def test_standby_takes_over_after_leader_death(local_reference, tmp_path):
    campaign_dir = tmp_path / "campaign"
    leader_port, standby_port = _free_port(), _free_port()
    seeds = f"127.0.0.1:{leader_port},127.0.0.1:{standby_port}"

    leader = FabricCoordinator(
        _desc(),
        campaign_dir,
        port=leader_port,
        batch_size=2,
        lease_ttl=6.0,
        leader_id="leader-a",
        election_ttl=1.0,
    )
    leader.start()
    # Spawned only after the leader claimed epoch 1: a standby watching
    # an unclaimed ledger would bootstrap leadership itself.
    standby, standby_thread, outcome = _spawn_standby(
        campaign_dir, standby_port, tmp_path / "fleet.db",
    )
    # Only the first run executes under the leader; the others wait for
    # its death, so it dies mid-campaign however fast runs are (a
    # successor with nothing left to run seals and releases at once).
    leader_dead, started, started_lock = threading.Event(), [], threading.Lock()

    def after_first_run_wait_for_leader_death(spec):
        from repro.core.master import execute_spec_run

        with started_lock:
            started.append(spec["run_id"])
            first = len(started) == 1
        if not first:
            leader_dead.wait(timeout=60.0)
        return execute_spec_run(spec)

    try:
        assert leader.epoch == 1
        workers = [
            _spawn_worker(
                seeds, tmp_path / f"w{i}", f"w{i}",
                execute=after_first_run_wait_for_leader_death,
            )
            for i in range(2)
        ]
        _wait_for_settled(leader, 1)
    finally:
        # Abrupt death: the server vanishes, renewals stop, and — unlike
        # a graceful exit — the leadership lease is NOT released.
        leader.stop()
        leader_dead.set()
    died_at = time.monotonic()

    # Takeover within the (election) lease TTL plus the standby's poll.
    ledger = ElectionLedger(CampaignJournal(campaign_dir), ttl=1.0)
    deadline = died_at + 1.0 + 2.0
    while time.monotonic() < deadline:
        record = ledger.leader()
        if record is not None and record.epoch == 2:
            break
        time.sleep(0.05)
    else:
        pytest.fail("standby never claimed the lapsed lease within the TTL")
    assert record.leader_id == "s1"

    standby_thread.join(timeout=240.0)
    assert not standby_thread.is_alive()
    assert "error" not in outcome, outcome.get("error")
    result = outcome["result"]
    assert result is not None and result.failed_runs == {}
    for worker, thread in workers:
        thread.join(timeout=30.0)

    assert database_digest(tmp_path / "fleet.db") == local_reference
    journal = CampaignJournal(campaign_dir)
    entries = journal.entries()
    completions = [e for e in entries if e["type"] == "run_complete"]
    # Exactly-once commits across the failover, and both epochs are
    # attributable: the successor's entries carry epoch 2.
    assert sorted(e["run_id"] for e in completions) == sorted(
        set(e["run_id"] for e in completions),
    )
    assert {e["epoch"] for e in completions} <= {1, 2}
    assert max(e["epoch"] for e in completions) == 2
    assert journal.state().complete
    # At least one worker walked its seed list to the new leader.
    assert sum(w.failovers for w, _ in workers) >= 1


def test_graceful_handoff_re_leases_zero_runs(local_reference, tmp_path, capsys):
    campaign_dir = tmp_path / "campaign"
    leader_port, standby_port = _free_port(), _free_port()
    seeds = f"127.0.0.1:{leader_port},127.0.0.1:{standby_port}"

    leader = FabricCoordinator(
        _desc(),
        campaign_dir,
        port=leader_port,
        batch_size=2,
        lease_ttl=30.0,
        leader_id="leader-a",
        election_ttl=1.5,
    )
    with leader:
        standby, standby_thread, outcome = _spawn_standby(
            campaign_dir, standby_port, tmp_path / "fleet.db",
        )
        workers = [
            _spawn_worker(seeds, tmp_path / f"w{i}", f"w{i}") for i in range(2)
        ]
        _wait_for_settled(leader, 1)
        # `repro fabric handoff` drains in-flight batches, then releases.
        assert cli_main(["fabric", "handoff", leader.address, "--timeout", "60"]) == 0
        assert "leadership released (epoch 1)" in capsys.readouterr().out
        # The deposed leader refuses further leadership-bound work.
        with pytest.raises(LeadershipLost) as lost:
            leader.finished()
        assert lost.value.reason == "handoff"

    standby_thread.join(timeout=240.0)
    assert "error" not in outcome, outcome.get("error")
    result = outcome["result"]
    assert result is not None and result.failed_runs == {}
    for worker, thread in workers:
        thread.join(timeout=30.0)

    assert database_digest(tmp_path / "fleet.db") == local_reference
    journal = CampaignJournal(campaign_dir)
    # Zero re-leased runs: the handoff drained every in-flight batch, so
    # no lease ever expired or was revoked across the transfer.
    kinds = {e["type"] for e in journal.entries()}
    assert not kinds & {"lease_expired", "worker_quarantined"}
    completions = [
        e for e in journal.entries() if e["type"] == "run_complete"
    ]
    assert sorted(e["run_id"] for e in completions) == sorted(
        set(e["run_id"] for e in completions),
    )


def test_partitioned_worker_acks_deduplicate_after_heal(local_reference, tmp_path):
    campaign_dir = tmp_path / "campaign"
    coordinator = FabricCoordinator(
        _desc(),
        campaign_dir,
        port=0,
        batch_size=2,
        lease_ttl=2.0,
        election_ttl=5.0,
    )
    gate = install_partition_gate(PartitionGate())
    try:
        with coordinator:
            leader_addr = coordinator.address
            cut_after_first = []

            def cut_uplink(spec):
                from repro.core.master import execute_spec_run

                result = execute_spec_run(spec)
                if not cut_after_first:
                    # The run executed, but before its ack leaves, the
                    # worker's uplink is cut (asymmetric: only w-cut).
                    cut_after_first.append(spec["run_id"])
                    gate.partition("w-cut", leader_addr)
                return result

            cut_worker, cut_thread = _spawn_worker(
                leader_addr,
                tmp_path / "cut",
                "w-cut",
                reconnect_budget=60.0,
                execute=cut_uplink,
            )
            ok_worker, ok_thread = _spawn_worker(
                leader_addr, tmp_path / "ok", "w-ok",
            )
            result = coordinator.run_until_complete(
                db_path=tmp_path / "fleet.db", timeout=240.0,
            )
            # Campaign finished through w-ok; heal so w-cut's buffered
            # acks replay against the still-serving coordinator.
            gate.heal(src="w-cut")
            ok_thread.join(timeout=30.0)
            cut_thread.join(timeout=90.0)
            assert not cut_thread.is_alive()
    finally:
        clear_partition_gate()

    assert result.failed_runs == {}
    assert database_digest(tmp_path / "fleet.db") == local_reference
    journal = CampaignJournal(campaign_dir)
    completions = [e for e in journal.entries() if e["type"] == "run_complete"]
    # The partitioned run re-executed elsewhere and the healed worker's
    # stale ack deduplicated: still exactly one commit per run.
    assert sorted(e["run_id"] for e in completions) == sorted(
        set(e["run_id"] for e in completions),
    )
    expired = [e for e in journal.entries() if e["type"] == "lease_expired"]
    assert expired and all(e["worker_id"] == "w-cut" for e in expired)
    committed_by = {e["run_id"]: e["worker"] for e in completions}
    assert committed_by[cut_after_first[0]] == "w-ok"
