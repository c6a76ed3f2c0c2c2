"""Unit tests for the lease dispatcher: grants, dedup, reclaim, restore."""

from unittest import mock

import pytest

from repro.campaign.scheduler import CampaignScheduler
from repro.campaign.session import CampaignSession
from repro.durable import DurableLog, encode_record, frame
from repro.fabric.dispatch import LeaseDispatcher
from repro.fabric.leases import LeaseStore
from repro.sd.processlib import build_two_party_description


class FakeClock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def _session(tmp_path, replications=6, max_attempts=2, resume=False, staged=(), max_parallel=0):
    """An opened session; *staged* runs count as a previous session's
    journaled commits (what a resume learns from the journal)."""
    desc = build_two_party_description(
        name="dispatch",
        seed=42,
        replications=replications,
        env_count=1,
        special_params={"max_parallel": max_parallel},
    )
    session = CampaignSession(desc, tmp_path, max_attempts=max_attempts, resume=resume).open()
    if staged:
        session.scheduler = CampaignScheduler(
            session.plan, completed=staged, max_attempts=max_attempts
        )
    return session


def _dispatcher(tmp_path, clock, replications=6, ttl=30.0, max_attempts=2, session=None):
    return LeaseDispatcher(
        session or _session(tmp_path, replications, max_attempts),
        LeaseStore(ttl=ttl, clock=clock),
        batch_size=2,
        clock=clock,
    )


def _grant(dispatcher, worker, want):
    """Grant and journal the batch, as the coordinator's ``lease`` does."""
    lease, batch = dispatcher.grant(worker, want)
    dispatcher.session.dispatch(batch, worker, lease.lease_id)
    return lease, batch


def _commit(dispatcher, run_id, log=None):
    """The coordinator's commit callback, minus scope and shard ingest."""

    def commit():
        if log is not None:
            log.append(run_id)
        dispatcher.session.settle_ok(run_id, "w", "shards/w.db")

    return commit


def test_grant_auto_registers_and_respects_batch_size(tmp_path):
    clock = FakeClock()
    dispatcher = _dispatcher(tmp_path, clock)
    lease, batch = dispatcher.grant("w1", want=10)
    assert dispatcher.workers == {"w1": 1}
    assert [t.run_id for t in batch] == [0, 1]  # capped at batch_size
    assert lease.run_ids == (0, 1)
    entries = dispatcher.journal.entries()
    assert [e["worker_id"] for e in entries if e["type"] == "worker_registered"] == ["w1"]


def test_grant_trims_the_batch_to_the_descriptions_max_parallel(tmp_path):
    clock = FakeClock()
    dispatcher = _dispatcher(tmp_path, clock, session=_session(tmp_path, max_parallel=3))
    lease, batch = dispatcher.grant("w1", 2)
    assert [t.run_id for t in batch] == [0, 1]
    _, batch = dispatcher.grant("w2", 2)
    assert [t.run_id for t in batch] == [2]  # one slot left of three
    assert dispatcher.grant("w3", 2) == (None, [])
    dispatcher.ack_completed("w1", lease.lease_id, 0, _commit(dispatcher, 0))
    _, batch = dispatcher.grant("w3", 2)
    assert [t.run_id for t in batch] == [3]  # the settled run's slot, no more


def test_duplicate_ack_never_commits_twice(tmp_path):
    clock = FakeClock()
    dispatcher = _dispatcher(tmp_path, clock)
    lease, _ = dispatcher.grant("w1", 1)
    commits = []
    assert (
        dispatcher.ack_completed("w1", lease.lease_id, 0, _commit(dispatcher, 0, commits))
        == "committed"
    )
    assert (
        dispatcher.ack_completed("w1", lease.lease_id, 0, _commit(dispatcher, 0, commits))
        == "duplicate"
    )
    assert commits == [0]
    assert dispatcher.scheduler.done == {0}


def test_expired_lease_requeues_pending_runs_exactly_once(tmp_path):
    clock = FakeClock()
    dispatcher = _dispatcher(tmp_path, clock, ttl=10.0)
    lease, _ = dispatcher.grant("w1", 2)
    dispatcher.ack_completed("w1", lease.lease_id, 0, _commit(dispatcher, 0))
    clock.advance(11.0)
    assert dispatcher.sweep() == [lease.lease_id]
    # Run 1 is back in the queue, no attempt charged; a second sweep is a no-op.
    assert dispatcher.scheduler.pending == 5
    assert dispatcher.sweep() == []
    lease2, batch2 = dispatcher.grant("w2", 1)
    assert batch2[0].run_id == 1  # retry-wave promotion: re-leased first
    assert batch2[0].attempts == 1  # expiry did not charge the budget


def test_late_ack_of_expired_lease_wins_over_release(tmp_path):
    clock = FakeClock()
    dispatcher = _dispatcher(tmp_path, clock, ttl=10.0)
    lease, _ = dispatcher.grant("w1", 1)
    clock.advance(11.0)
    dispatcher.sweep()  # run 0 released back to the queue
    committed = []
    status = dispatcher.ack_completed("w1", lease.lease_id, 0, _commit(dispatcher, 0, committed))
    assert status == "committed"  # first ack wins, even after expiry
    assert committed == [0]
    # The stale queue entry must never dispatch again.
    lease2, batch2 = dispatcher.grant("w2", 2)
    assert 0 not in [t.run_id for t in batch2]
    for ticket in batch2:
        dispatcher.ack_completed(
            "w2", lease2.lease_id, ticket.run_id, _commit(dispatcher, ticket.run_id)
        )


def test_late_ack_through_an_expired_lease_releases_the_re_lease(tmp_path):
    """w1's late acks through expired L1 commit the runs L2 re-leased to
    w2: L2 is done too, live as in the journal's fold, so w2 is told to
    abandon it and no later sweep expires it."""
    clock = FakeClock()
    dispatcher = _dispatcher(tmp_path, clock, ttl=10.0)
    first, _ = _grant(dispatcher, "w1", 2)
    clock.advance(11.0)
    assert dispatcher.sweep() == [first.lease_id]
    second, batch = _grant(dispatcher, "w2", 2)
    assert [t.run_id for t in batch] == [0, 1]
    for run_id in (0, 1):
        status = dispatcher.ack_completed("w1", first.lease_id, run_id, _commit(dispatcher, run_id))
        assert status == "committed"
    assert dispatcher.leases.active() == []
    assert dispatcher.renew("w2", second.lease_id) is False
    clock.advance(11.0)
    assert dispatcher.sweep() == []
    expired = [e for e in dispatcher.journal.entries() if e["type"] == "lease_expired"]
    assert [e["lease_id"] for e in expired] == [first.lease_id]


class _Crash(BaseException):
    pass


def test_a_grant_torn_mid_batch_loses_only_runs_no_worker_received(tmp_path):
    """A lease's run_start entries are one append, and the reply to the
    worker is built after it: a crash tearing that append leaves a lease
    whose worker never heard of it.  The restarted coordinator honors the
    runs on file for one TTL, then re-leases them; the torn run was never
    granted and is leased at once."""
    clock = FakeClock()
    dispatcher = _dispatcher(tmp_path, clock, ttl=10.0)
    append = DurableLog.append

    def tear(log, records, sync=True, fence=None):
        records = list(records)
        if records[0]["type"] != "run_start":
            return append(log, records, sync, fence)
        append(log, records[:1], sync, fence)
        line = frame("", encode_record(records[1]))
        with open(log.path, "ab") as fh:
            fh.write(line[: len(line) // 2])
        raise _Crash()

    with mock.patch.object(DurableLog, "append", tear), pytest.raises(_Crash):
        _grant(dispatcher, "w1", 2)

    restored = _dispatcher(tmp_path, clock, ttl=10.0, session=_session(tmp_path, resume=True))
    assert restored.restore() == 1
    (lease,) = restored.leases.active()
    assert (lease.worker_id, lease.pending) == ("w1", [0])
    second, batch = _grant(restored, "w2", 2)
    assert [t.run_id for t in batch] == [1, 2]
    for run_id in (1, 2):
        restored.ack_completed("w2", second.lease_id, run_id, _commit(restored, run_id))
    clock.advance(11.0)
    assert restored.sweep() == [lease.lease_id]
    _, batch = _grant(restored, "w2", 2)
    assert [t.run_id for t in batch] == [0, 3]


def test_late_failure_after_release_charges_nothing(tmp_path):
    clock = FakeClock()
    dispatcher = _dispatcher(tmp_path, clock, ttl=10.0)
    lease, _ = dispatcher.grant("w1", 1)
    clock.advance(11.0)
    dispatcher.sweep()
    assert dispatcher.ack_failed("w1", lease.lease_id, 0, "boom") == "duplicate"
    assert dispatcher.scheduler.failed == {}
    assert dispatcher.scheduler.pending == 6


def test_late_failure_through_an_expired_lease_leaves_the_re_lease_running(tmp_path):
    """A zombie's failure report through expired L1 of a run L2 re-leased
    to w2 is a duplicate: no attempt charged, w2 still holds the run."""
    clock = FakeClock()
    dispatcher = _dispatcher(tmp_path, clock, ttl=10.0)
    first, _ = _grant(dispatcher, "w1", 2)
    clock.advance(11.0)
    dispatcher.sweep()
    second, _ = _grant(dispatcher, "w2", 2)
    assert dispatcher.ack_failed("w1", first.lease_id, 0, "zombie boom") == "duplicate"
    assert 0 in dispatcher.scheduler.in_flight
    assert dispatcher.leases.get(second.lease_id).pending == [0, 1]
    assert dispatcher.renew("w2", second.lease_id) is True
    assert not [e for e in dispatcher.journal.entries() if e["type"] == "run_failed"]


def test_failed_ack_requeues_until_budget_exhausted(tmp_path):
    clock = FakeClock()
    dispatcher = _dispatcher(tmp_path, clock, max_attempts=2)
    lease, _ = dispatcher.grant("w1", 1)
    assert dispatcher.ack_failed("w1", lease.lease_id, 0, "boom") == "requeued"
    lease2, batch2 = dispatcher.grant("w1", 1)
    assert batch2[0].run_id == 0 and batch2[0].attempts == 2
    assert dispatcher.ack_failed("w1", lease2.lease_id, 0, "boom") == "failed"
    assert 0 in dispatcher.scheduler.failed


def test_quarantined_worker_batch_re_leased_exactly_once(tmp_path):
    clock = FakeClock()
    dispatcher = _dispatcher(tmp_path, clock)
    lease, _ = dispatcher.grant("w1", 2)
    requeued = dispatcher.quarantine_worker("w1", "flaky host")
    assert sorted(requeued) == [0, 1]
    assert dispatcher.leases.get(lease.lease_id).closed == "revoked"
    # Second quarantine (or a racing expiry sweep) reclaims nothing more.
    assert dispatcher.quarantine_worker("w1", "again") == []
    clock.advance(1000.0)
    assert dispatcher.sweep() == []
    assert dispatcher.quarantined_workers == {"w1"}
    assert dispatcher.grant("w1", 1) == (None, [])
    # The batch is leasable by someone else, once.
    _, batch = dispatcher.grant("w2", 2)
    assert [t.run_id for t in batch] == [0, 1]
    assert dispatcher.scheduler.pending == 4


def test_renewing_worker_keeps_its_lease_however_long_its_runs_take(tmp_path):
    """A worker's only liveness signal is its lease renewal every TTL/3:
    a long run between two renewals must not cost it the lease."""
    clock = FakeClock()
    dispatcher = _dispatcher(tmp_path, clock, ttl=30.0)
    lease, _ = dispatcher.grant("w1", 2)
    for tick in range(1, 1501):  # 300 s of the coordinator's 0.2 s sweeps
        clock.advance(0.2)
        if tick % 50 == 0:
            assert dispatcher.renew("w1", lease.lease_id)
        assert dispatcher.sweep() == []
    assert dispatcher.leases.get(lease.lease_id).closed is None
    assert dispatcher.scheduler.in_flight.keys() == {0, 1}
    assert dispatcher.quarantined == 0
    assert sorted(dispatcher.journal.state().quarantined_workers) == []


def test_restore_reclaims_pending_runs_and_grace_renews(tmp_path):
    clock = FakeClock()
    dispatcher = _dispatcher(tmp_path, clock, ttl=10.0)
    lease, _ = _grant(dispatcher, "w1", 2)
    dispatcher.ack_completed("w1", lease.lease_id, 0, _commit(dispatcher, 0))

    # Coordinator restart: fresh session (run 0 staged), fresh dispatcher.
    clock.advance(9.0)
    restored = LeaseDispatcher(
        _session(tmp_path, resume=True, staged=[0]),
        LeaseStore(ttl=10.0, clock=clock),
        batch_size=2,
        clock=clock,
    )
    assert restored.restore() == 1
    assert restored.workers == {"w1": 1}  # known again, not re-journaled
    # Run 1 is claimed by the restored lease: not leasable to others ...
    _, batch = restored.grant("w2", 2)
    assert 1 not in [t.run_id for t in batch]
    # ... the restored lease got a fresh TTL ...
    assert restored.sweep() == []
    # ... and the original worker's ack still lands as the first ack.
    assert restored.ack_completed("w1", lease.lease_id, 1, _commit(restored, 1)) == "committed"


def test_a_quarantined_worker_stays_quarantined_across_a_restart(tmp_path):
    clock = FakeClock()
    dispatcher = _dispatcher(tmp_path, clock)
    _grant(dispatcher, "w1", 2)
    assert sorted(dispatcher.quarantine_worker("w1", "flaky host")) == [0, 1]

    restored = _dispatcher(tmp_path, clock, session=_session(tmp_path, resume=True))
    assert restored.restore() == 0  # the revoked lease stays closed
    assert restored.quarantined_workers == {"w1"}
    assert restored.grant("w1", 2) == (None, [])  # never granted again
    _, batch = restored.grant("w2", 2)
    assert [t.run_id for t in batch] == [0, 1]


def test_replayed_ack_of_staged_run_deduplicates(tmp_path):
    """A worker replaying its unacked buffer across a coordinator restart
    may re-send a run whose commit landed (and was staged) just before
    the crash: the new session must answer ``duplicate`` — not commit
    again, and not corrupt the scheduler's pending accounting."""
    clock = FakeClock()
    # Session 1 granted L000001 for runs (0, 1) and committed run 0.
    old = _dispatcher(tmp_path, clock, session=_session(tmp_path, replications=4))
    old_lease, _ = _grant(old, "w1", 2)
    # Session 2: run 0 arrives staged (journal replay), not via `done`.
    session = _session(tmp_path, replications=4, resume=True, staged=[0])
    scheduler = session.scheduler
    dispatcher = _dispatcher(tmp_path, clock, session=session)
    dispatcher.restore()
    pending_before = scheduler.pending
    commits = []
    status = dispatcher.ack_completed(
        "w1", old_lease.lease_id, 0, _commit(dispatcher, 0, commits),
    )
    assert status == "duplicate"
    assert commits == []
    assert scheduler.pending == pending_before
    assert dispatcher.ack_failed("w1", old_lease.lease_id, 0, "late") == "duplicate"
    # Run 1 is still honorably in flight under the restored lease.
    assert 1 in scheduler.in_flight
    assert (
        dispatcher.ack_completed("w1", old_lease.lease_id, 1, _commit(dispatcher, 1, commits))
        == "committed"
    )
    assert commits == [1]
