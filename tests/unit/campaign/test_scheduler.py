"""Unit tests for the campaign run scheduler."""

import pytest

from repro.campaign.scheduler import CampaignScheduler, RunTicket
from repro.core.errors import CampaignError
from repro.core.factors import Factor, FactorList, Level, ReplicationFactor, Usage
from repro.core.plan import generate_plan


def _plan(replications=6):
    factors = FactorList(
        [
            Factor(id="f", type="int", usage=Usage.CONSTANT, levels=[Level(1)]),
        ],
        ReplicationFactor(id="rep", count=replications),
    )
    return generate_plan(factors, 42)


def _drain(scheduler):
    order = []
    while True:
        ticket = scheduler.next_ticket()
        if ticket is None:
            return order
        order.append(ticket.run_id)
        scheduler.mark_done(ticket.run_id)


def test_default_dispatch_is_plan_order():
    assert _drain(CampaignScheduler(_plan(), jobs=4)) == [0, 1, 2, 3, 4, 5]


def test_completed_runs_never_scheduled():
    sched = CampaignScheduler(_plan(), completed=[0, 2, 4], jobs=2)
    assert _drain(sched) == [1, 3, 5]
    assert sched.skipped == {0, 2, 4}


def test_effective_jobs_capped_by_max_parallel_and_queue():
    assert CampaignScheduler(_plan(), jobs=8).effective_jobs == 6
    assert CampaignScheduler(_plan(), jobs=8, max_parallel=3).effective_jobs == 3
    assert CampaignScheduler(_plan(), jobs=2, max_parallel=3).effective_jobs == 2
    # max_parallel == 0 means "no description-imposed bound"
    assert CampaignScheduler(_plan(), jobs=4, max_parallel=0).effective_jobs == 4


def test_failed_run_requeued_ahead_of_its_class():
    sched = CampaignScheduler(_plan(), jobs=2, max_attempts=2)
    first = sched.next_ticket()
    assert first.run_id == 0
    assert sched.mark_failed(0, "boom") is True  # requeued
    # The retry dispatches before the rest of wave 0.
    assert sched.next_ticket().run_id == 0


def test_attempt_budget_exhausted_records_failure():
    sched = CampaignScheduler(_plan(replications=1), jobs=1, max_attempts=2)
    sched.next_ticket()
    assert sched.mark_failed(0, "first") is True
    sched.next_ticket()
    assert sched.mark_failed(0, "second") is False
    assert sched.failed == {0: "second"}
    assert sched.finished


def test_success_after_retry_clears_failure():
    sched = CampaignScheduler(_plan(replications=1), jobs=1, max_attempts=2)
    sched.next_ticket()
    sched.mark_failed(0, "transient")
    ticket = sched.next_ticket()
    assert ticket.attempts == 2
    sched.mark_done(0)
    assert sched.failed == {}
    assert sched.done == {0}


def test_finished_tracks_queue_and_in_flight():
    sched = CampaignScheduler(_plan(replications=2), jobs=2)
    assert not sched.finished
    a = sched.next_ticket()
    b = sched.next_ticket()
    assert sched.pending == 0 and not sched.finished  # both in flight
    sched.mark_done(a.run_id)
    sched.mark_done(b.run_id)
    assert sched.finished


def test_invalid_parameters_rejected():
    with pytest.raises(CampaignError):
        CampaignScheduler(_plan(), jobs=0)
    with pytest.raises(CampaignError):
        CampaignScheduler(_plan(), max_attempts=0)


def test_ticket_ordering_wave_then_run_id():
    plain = RunTicket(retry_wave=0, run_id=5, run=None)
    later = RunTicket(retry_wave=0, run_id=7, run=None)
    retry = RunTicket(retry_wave=-1, run_id=9, run=None)
    assert sorted([later, plain, retry]) == [retry, plain, later]


def test_next_batch_pops_in_dispatch_order():
    sched = CampaignScheduler(_plan(), jobs=1)
    assert [t.run_id for t in sched.next_batch(4)] == [0, 1, 2, 3]
    assert [t.run_id for t in sched.next_batch(4)] == [4, 5]
    assert sched.next_batch(4) == []
    assert len(sched.in_flight) == 6


def test_release_requeues_without_charging_an_attempt():
    sched = CampaignScheduler(_plan(), jobs=1, max_attempts=2)
    ticket = sched.next_ticket()
    assert ticket.attempts == 1
    assert sched.release(ticket.run_id)
    assert not sched.release(ticket.run_id)  # no longer in flight
    again = sched.next_ticket()
    assert again.run_id == ticket.run_id  # retry-wave promotion
    assert again.attempts == 1  # budget untouched by the release


def test_claim_moves_a_specific_queued_run_in_flight():
    sched = CampaignScheduler(_plan(), jobs=1)
    claimed = sched.claim(3)
    assert claimed.run_id == 3 and claimed.attempts == 1
    assert sched.claim(3) is None  # already in flight
    assert [t.run_id for t in sched.next_batch(6)] == [0, 1, 2, 4, 5]


def test_stale_entry_after_release_ack_race_never_redispatches():
    sched = CampaignScheduler(_plan(), jobs=1)
    ticket = sched.next_ticket()
    sched.release(ticket.run_id)  # lease expired, run requeued ...
    sched.mark_done(ticket.run_id)  # ... then the original ack won
    assert sched.pending == 5  # stale entry not counted
    assert [t.run_id for t in sched.next_batch(10)] == [1, 2, 3, 4, 5]
    for run_id in (1, 2, 3, 4, 5):
        sched.mark_done(run_id)
    assert sched.finished
