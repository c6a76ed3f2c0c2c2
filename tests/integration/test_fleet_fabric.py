"""Integration: the distributed campaign fabric's determinism invariant.

The pinned invariant (DESIGN.md §15): because every run is a pure
function of (description, run id), the merged level-3 database of a
fleet campaign is **byte-identical** to a local ``--jobs`` campaign —
across a healthy 3-worker fleet, and across a fleet where one worker is
killed mid-batch and the coordinator itself is restarted.  Table-I
summary statistics agree as a corollary.

Workers run as in-process threads over real localhost sockets; the CI
``fleet-chaos`` job repeats the same drill with real processes and
SIGKILL (``tools/fleet_chaos_drill.py``).
"""

import threading
import time

import pytest

from repro.campaign import CampaignJournal, database_digest, run_campaign
from repro.fabric import FabricCoordinator, FabricWorker, FleetChannel
from repro.sd.processlib import build_two_party_description


def _desc(seed=31, replications=6):
    return build_two_party_description(
        name="fleet-it",
        seed=seed,
        replications=replications,
        env_count=1,
    )


def _table_i_stats(db_path):
    from repro.analysis.responsiveness import run_outcomes
    from repro.sd.metrics import summarize_runs
    from repro.storage.level3 import ExperimentDatabase

    with ExperimentDatabase(db_path) as db:
        return summarize_runs(run_outcomes(db))


@pytest.fixture(scope="module")
def local_reference(tmp_path_factory):
    """The ``--jobs 2`` local campaign the fleet must match byte-for-byte."""
    root = tmp_path_factory.mktemp("local")
    run_campaign(_desc(), root / "campaign", db_path=root / "ref.db", jobs=2, pool="thread")
    return database_digest(root / "ref.db"), _table_i_stats(root / "ref.db")


def _spawn_worker(address, workdir, worker_id, execute=None, capacity=2):
    worker = FabricWorker(
        address,
        worker_id,
        workdir,
        capacity=capacity,
        poll_interval=0.1,
        reconnect_budget=30.0,
        execute=execute,
    )
    thread = threading.Thread(target=worker.run_forever, daemon=True, name=f"fleet-{worker_id}")
    thread.start()
    return worker, thread


def test_three_worker_fleet_byte_identical(local_reference, tmp_path):
    ref_digest, ref_stats = local_reference
    coordinator = FabricCoordinator(
        _desc(),
        tmp_path / "campaign",
        port=0,
        batch_size=2,
        lease_ttl=10.0,
    )
    with coordinator:
        workers = [
            _spawn_worker(coordinator.address, tmp_path / f"w{i}", f"w{i}")
            for i in range(3)
        ]
        result = coordinator.run_until_complete(
            db_path=tmp_path / "fleet.db",
            timeout=240.0,
        )
        for _, thread in workers:
            thread.join(timeout=10.0)
    assert result.pool == "fleet"
    assert result.failed_runs == {}
    assert database_digest(tmp_path / "fleet.db") == ref_digest
    assert _table_i_stats(tmp_path / "fleet.db") == ref_stats
    # Every worker registered; the journal has one completion per run.
    journal = CampaignJournal(tmp_path / "campaign")
    registered = [e["worker_id"] for e in journal.entries() if e["type"] == "worker_registered"]
    assert sorted(registered) == ["w0", "w1", "w2"]
    assert sorted(journal.state().completed) == list(range(len(result.plan)))
    # The fleet's tallies: three joins, one per lease the journal names,
    # no expiry or quarantine.
    grants = {e["lease_id"] for e in journal.entries() if e["type"] == "run_start"}
    assert result.telemetry["fleet"] == {
        "registered": 3,
        "leases": len(grants),
        "expired": 0,
        "quarantined": 0,
    }
    # The journal is the lease ledger: no campaign writes a second one.
    assert not (tmp_path / "campaign" / "leases.jsonl").exists()


def test_kill_worker_and_coordinator_restart_converges(local_reference, tmp_path):
    """The full failover drill: SIGKILL-equivalent worker death mid-batch,
    coordinator crash, resume — the merged database must not notice."""
    ref_digest, ref_stats = local_reference
    coordinator = FabricCoordinator(
        _desc(),
        tmp_path / "campaign",
        port=0,
        batch_size=2,
        lease_ttl=2.0,
    )

    executed = []
    wedge = threading.Event()

    def die_after_first(spec):
        from repro.core.master import execute_spec_run

        if executed:
            # Second leased run: the process "dies" — renewals stop, the
            # ack never arrives, and this thread wedges like a zombie.
            bad_worker.kill()
            wedge.wait(300.0)
            raise RuntimeError("unreachable")
        executed.append(spec["run_id"])
        return execute_spec_run(spec)

    with coordinator:
        bad_worker, bad_thread = _spawn_worker(
            coordinator.address,
            tmp_path / "bad",
            "w-bad",
            execute=die_after_first,
        )
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            with coordinator._lock:
                settled = len(coordinator.session.scheduler.done)
            if settled >= 1 and bad_worker._dead.is_set():
                break
            time.sleep(0.05)
        else:
            pytest.fail("bad worker never completed a run and died")
    # Coordinator is now stopped mid-campaign (its crash): the dead
    # worker's lease is still open in the ledger.

    resumed = FabricCoordinator(
        _desc(),
        tmp_path / "campaign",
        port=0,
        batch_size=2,
        lease_ttl=2.0,
        resume=True,
    )
    with resumed:
        workers = [
            _spawn_worker(resumed.address, tmp_path / f"fresh{i}", f"fresh{i}")
            for i in range(2)
        ]
        result = resumed.run_until_complete(
            db_path=tmp_path / "fleet.db",
            timeout=240.0,
        )
        for _, thread in workers:
            thread.join(timeout=10.0)
    wedge.set()

    assert database_digest(tmp_path / "fleet.db") == ref_digest
    assert _table_i_stats(tmp_path / "fleet.db") == ref_stats
    journal = CampaignJournal(tmp_path / "campaign")
    # All runs accounted for, exactly one lease expiry reclaimed the dead
    # worker's batch (exactly-once re-lease), and both sessions journaled.
    assert sorted(journal.state().completed) == list(range(len(result.plan)))
    expiries = [e for e in journal.entries() if e["type"] == "lease_expired"]
    assert len(expiries) == 1
    assert expiries[0]["worker_id"] == "w-bad"
    assert result.telemetry["fleet"]["expired"] == 1
    assert len(journal.state().starts) == 2
    assert journal.state().complete
    assert not (tmp_path / "campaign" / "leases.jsonl").exists()


def test_quarantine_rpc_re_leases_in_flight_batch_exactly_once(tmp_path):
    """An operator quarantine revokes a worker's in-flight batch once; the
    batch is re-leased to the remaining fleet exactly once."""
    coordinator = FabricCoordinator(
        _desc(replications=4),
        tmp_path / "campaign",
        port=0,
        batch_size=2,
        lease_ttl=300.0,
    )
    wedge = threading.Event()

    def never_finishes(spec):
        wedge.wait(300.0)
        raise RuntimeError("unreachable")

    with coordinator:
        slow, _ = _spawn_worker(
            coordinator.address,
            tmp_path / "slow",
            "w-slow",
            execute=never_finishes,
        )
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            with coordinator._lock:
                leased = coordinator.dispatcher.leases.leased_runs()
            if leased:
                break
            time.sleep(0.05)
        assert leased == {0, 1}

        with FleetChannel(coordinator.address) as channel:
            import json

            first = json.loads(channel.call("quarantine", "w-slow", "wedged"))
            second = json.loads(channel.call("quarantine", "w-slow", "wedged"))
        assert first["requeued"] == [0, 1]
        assert second["requeued"] == []  # exactly once

        healthy, healthy_thread = _spawn_worker(
            coordinator.address,
            tmp_path / "ok",
            "w-ok",
        )
        result = coordinator.run_until_complete(
            db_path=tmp_path / "fleet.db",
            timeout=240.0,
        )
        healthy_thread.join(timeout=10.0)
        slow.kill()
    wedge.set()
    assert result.failed_runs == {}
    journal = CampaignJournal(tmp_path / "campaign")
    assert sorted(journal.state().quarantined_workers) == ["w-slow"]
    assert result.telemetry["fleet"]["quarantined"] == 1
    # The re-executed batch committed through the healthy worker only.
    completed = journal.state().completed
    assert {completed[r]["worker"] for r in (0, 1)} == {"w-ok"}


@pytest.mark.parametrize("max_parallel, expected_peak", [(1, 1), (0, 2)])
def test_fleet_honours_the_descriptions_max_parallel(max_parallel, expected_peak, tmp_path):
    """A description-declared concurrency bound (Sec. IV-E) holds for the
    fleet as it does for a local pool: two idle one-run workers, yet never
    more than ``max_parallel`` runs in flight; undeclared, both work."""
    from repro.core.master import execute_spec_run

    lock = threading.Lock()
    live = peak = 0

    def counting_execute(spec):
        nonlocal live, peak
        with lock:
            live += 1
            peak = max(peak, live)
        try:
            time.sleep(0.3)  # hold the slot across several lease polls
            return execute_spec_run(spec)
        finally:
            with lock:
                live -= 1

    desc = build_two_party_description(
        name="fleet-cap",
        seed=31,
        replications=4,
        env_count=1,
        special_params={"max_parallel": max_parallel},
    )
    coordinator = FabricCoordinator(desc, tmp_path / "campaign", port=0, lease_ttl=10.0)
    with coordinator:
        workers = [
            _spawn_worker(
                coordinator.address,
                tmp_path / f"w{i}",
                f"w{i}",
                execute=counting_execute,
                capacity=1,
            )
            for i in range(2)
        ]
        result = coordinator.run_until_complete(timeout=240.0)
        for _, thread in workers:
            thread.join(timeout=10.0)
            assert not thread.is_alive()
    assert result.executed_runs == [0, 1, 2, 3]
    assert peak == expected_peak
