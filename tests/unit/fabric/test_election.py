"""Unit tests for the epoch-fenced leadership lease (DESIGN.md §16)."""

import threading

import pytest

from repro.campaign.journal import CampaignJournal
from repro.core.errors import CampaignError
from repro.durable import DurableLog
from repro.fabric.election import ElectionLedger, LeadershipLost


class FakeClock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


@pytest.fixture()
def clock():
    return FakeClock()


@pytest.fixture()
def ledger(tmp_path, clock):
    return ElectionLedger(CampaignJournal(tmp_path), ttl=10.0, clock=clock)


def test_fresh_directory_is_claimable(ledger):
    assert ledger.current() is None
    assert ledger.leader() is None
    assert ledger.campaign("c1", "127.0.0.1:9001") == 1
    record = ledger.current()
    assert record.leader_id == "c1"
    assert record.endpoint == "127.0.0.1:9001"
    assert record.live(ledger.clock())


def test_live_lease_refuses_a_polite_claim(ledger):
    assert ledger.campaign("c1", "a:1") == 1
    assert ledger.campaign("c2", "b:2") is None  # polite: lease is live
    assert ledger.current().epoch == 1


def test_force_takeover_bumps_epoch_over_live_lease(ledger):
    assert ledger.campaign("c1", "a:1") == 1
    assert ledger.campaign("c2", "b:2", force=True) == 2
    record = ledger.current()
    assert (record.epoch, record.leader_id) == (2, "c2")
    # The deposed leader's renew and release are refused.
    assert not ledger.renew(1)
    assert not ledger.release(1, "handoff")


def test_lapsed_lease_is_claimable_and_epoch_grows(ledger, clock):
    assert ledger.campaign("c1", "a:1") == 1
    clock.advance(10.1)  # past the TTL without a renewal
    assert ledger.leader() is None
    assert ledger.campaign("c2", "b:2") == 2


def test_renew_extends_expiry(ledger, clock):
    ledger.campaign("c1", "a:1")
    clock.advance(8.0)
    assert ledger.renew(1)
    clock.advance(8.0)  # 16s after claim, but renewed at 8s → still live
    assert ledger.leader() is not None
    assert ledger.current().renewals == 1


def test_release_makes_lease_immediately_claimable(ledger):
    ledger.campaign("c1", "a:1")
    assert ledger.release(1, "handoff")
    assert ledger.leader() is None
    assert not ledger.release(1, "handoff")  # idempotent refusal
    assert ledger.campaign("c2", "b:2") == 2  # no TTL wait


def test_fenced_runs_callable_only_at_current_epoch(ledger, tmp_path, clock):
    """A journal whose fence holds epoch 1 writes until a rival's claim of
    epoch 2 is on file, then refuses before anything is written."""
    assert ledger.campaign("c1", "a:1") == 1
    journal = ledger.journal
    journal.fence = ledger.fence(1)
    journal.record_worker_registered("w0", 1)
    rival = ElectionLedger(CampaignJournal(tmp_path), ttl=10.0, clock=clock)
    assert rival.campaign("c2", "b:2", force=True) == 2
    entries = journal.entries()
    with pytest.raises(LeadershipLost, match="epoch 1 is superseded"):
        journal.record_worker_registered("w1", 1)
    assert journal.entries() == entries  # the stale leader's write never happened
    assert [e["type"] for e in entries] == ["leader_claim", "worker_registered", "leader_claim"]


def test_fenced_refuses_after_release(ledger):
    ledger.campaign("c1", "a:1")
    ledger.release(1, "complete")
    ledger.journal.fence = ledger.fence(1)
    with pytest.raises(LeadershipLost, match="released"):
        ledger.journal.record_complete()


def test_stale_writer_records_are_fenced_at_replay(ledger, tmp_path):
    """Appends from a deposed leader (same epoch, written after a rival's
    claim) do not corrupt the folded view — the latest claim wins."""
    ledger.campaign("c1", "a:1")
    ledger.campaign("c2", "b:2", force=True)
    # Simulate the deposed c1 appending a renew for its old epoch by hand
    # (it could only do this by bypassing the fence).
    stray = {"type": "leader_renew", "epoch": 1, "expires_at": 9e9}
    DurableLog(ledger.journal.path).append([stray])
    for view in (ledger, ElectionLedger(CampaignJournal(tmp_path))):
        record = view.current()
        assert (record.epoch, record.leader_id, record.renewals) == (2, "c2", 0)


def test_concurrent_claims_yield_exactly_one_winner(tmp_path, clock):
    winners = []

    def claim(name):
        lg = ElectionLedger(CampaignJournal(tmp_path), ttl=10.0, clock=clock)
        epoch = lg.campaign(name, f"{name}:1")
        if epoch is not None:
            winners.append((name, epoch))

    threads = [
        threading.Thread(target=claim, args=(f"c{i}",)) for i in range(8)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(winners) == 1
    assert winners[0][1] == 1


def test_standby_roster_and_summary(ledger, clock):
    ledger.campaign("c1", "a:1")
    ledger.beacon("s1", "b:2")
    ledger.beacon("s2", "c:3")
    summary = ledger.summary()
    assert summary["epoch"] == 1
    assert summary["leader_id"] == "c1"
    assert summary["leader_endpoint"] == "a:1"
    assert summary["leader_live"] is True
    assert [s["standby_id"] for s in summary["standbys"]] == ["s1", "s2"]
    # A stale beacon ages out of the roster; a retired one disappears.
    clock.advance(31.0)  # > 3 * ttl
    ledger.beacon("s2", "c:3")
    assert [s["standby_id"] for s in ledger.standby_roster()] == ["s2"]
    ledger.retire_beacon("s2")
    assert ledger.standby_roster() == []


def test_a_half_written_beacon_is_skipped_and_counted(ledger, suppressed):
    ledger.beacon("s1", "b:2")
    (ledger.standby_root / "s2.json").write_text('{"standby_id": "s2", "beat', encoding="utf-8")
    assert [s["standby_id"] for s in ledger.standby_roster()] == ["s1"]
    assert suppressed.value(site="election_beacon_read") == 1


def test_a_beacon_that_cannot_be_unlinked_is_counted_not_raised(ledger, suppressed):
    ledger.retire_beacon("never-beaconed")  # nothing to retire is not an error
    assert suppressed.value(site="election_beacon_retire") == 0
    (ledger.standby_root / "s1.json").mkdir(parents=True)  # unlink() on a directory fails
    ledger.retire_beacon("s1")
    assert suppressed.value(site="election_beacon_retire") == 1


def test_summary_reports_lapsed_leader_not_live(ledger, clock):
    ledger.campaign("c1", "a:1")
    clock.advance(10.1)
    summary = ledger.summary()
    assert summary["leader_live"] is False
    assert summary["epoch"] == 1
    assert summary["expires_in"] < 0


def test_bad_ttl_rejected(tmp_path):
    with pytest.raises(CampaignError):
        ElectionLedger(CampaignJournal(tmp_path), ttl=0.0)
