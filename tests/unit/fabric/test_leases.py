"""Unit tests for the lease table and its journal fold (fabric exactly-once core)."""

import pytest

from repro.campaign.state import CampaignState
from repro.core.errors import CampaignError
from repro.fabric.leases import LeaseStore


class FakeClock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture()
def clock():
    return FakeClock()


@pytest.fixture()
def store(clock):
    return LeaseStore(ttl=30.0, clock=clock)


def test_grant_assigns_sequential_ids_and_expiry(store, clock):
    a = store.grant("w1", [0, 1])
    b = store.grant("w2", [2])
    assert (a.lease_id, b.lease_id) == ("L000001", "L000002")
    assert a.expires_at == clock.now + 30.0
    assert a.pending == [0, 1]
    assert store.leased_runs() == {0, 1, 2}


def test_empty_grant_and_bad_ttl_are_refused(store):
    with pytest.raises(CampaignError):
        store.grant("w1", [])
    with pytest.raises(CampaignError):
        LeaseStore(ttl=0)


def test_ttl_expiry_and_renewal_race(store, clock):
    lease = store.grant("w1", [0, 1])
    clock.advance(29.0)
    assert store.expired() == []
    # A renewal just before the deadline pushes the expiry a full TTL out.
    assert store.renew(lease.lease_id) is not None
    clock.advance(29.0)
    assert store.expired() == []
    # Silence past the renewed deadline expires it.
    clock.advance(2.0)
    assert [exp.lease_id for exp in store.expired()] == [lease.lease_id]


def test_renewing_a_closed_lease_fails_softly(store):
    lease = store.grant("w1", [0])
    store.close(lease.lease_id, "expired")
    assert store.renew(lease.lease_id) is None
    assert store.renew("L999999") is None


def test_ack_dedup_and_auto_close(store):
    lease = store.grant("w1", [0, 1])
    store.ack(lease.lease_id, 0)
    store.ack(lease.lease_id, 0)  # duplicate ack: no double bookkeeping
    assert lease.acked == {0}
    assert lease.active
    store.ack(lease.lease_id, 1)
    assert lease.closed == "complete"
    assert store.leased_runs() == set()


def test_close_is_idempotent_first_reason_wins(store):
    lease = store.grant("w1", [0])
    store.close(lease.lease_id, "expired")
    store.close(lease.lease_id, "revoked")
    assert lease.closed == "expired"


def _start(run_id, worker, lease_id):
    return {"type": "run_start", "run_id": run_id, "worker": worker, "lease_id": lease_id}


def test_restore_folds_open_complete_expired_and_revoked_leases(clock):
    entries = [
        {"type": "campaign_start"},
        _start(0, "w1", "L000001"),
        _start(1, "w1", "L000001"),
        _start(2, "w2", "L000002"),
        _start(3, "w2", "L000002"),
        _start(4, "w3", "L000003"),
        _start(5, "w4", "L000004"),
        _start(6, "s0w00", None),  # a local dispatch opens no lease
        {"type": "run_complete", "run_id": 0, "worker": "w1", "shard": "s.db"},
        {"type": "run_failed", "run_id": 1, "error": "boom", "attempt": 1},
        {"type": "run_complete", "run_id": 2, "worker": "w2", "shard": "s.db"},
        {"type": "lease_expired", "lease_id": "L000003", "worker_id": "w3", "requeued_runs": [4]},
        {"type": "worker_quarantined", "worker_id": "w4", "reason": "operator"},
    ]
    clock.advance(100.0)
    store = LeaseStore(ttl=10.0, clock=clock)
    assert store.seed(CampaignState().apply(entries)) == 1
    lease = store.get("L000002")
    assert (lease.worker_id, lease.run_ids, lease.pending) == ("w2", (2, 3), [3])
    assert lease.expires_at == clock.now + 10.0  # a fresh TTL
    assert store.get("L000001").closed == "complete"  # nothing pending
    assert store.get("L000003").closed == "expired"
    assert store.get("L000004").closed == "revoked"
    assert store.leased_runs() == {3}
    # The sequence counter continues: no lease id reuse after restart.
    assert store.grant("w5", [7]).lease_id == "L000005"


def test_restore_of_an_empty_journal_is_empty(store):
    store.grant("w1", [0])
    assert store.seed(CampaignState().apply([])) == 0
    assert store.grant("w1", [0]).lease_id == "L000001"
