"""Unit tests for the campaign session: the open / dispatch / settle /
seal policy the local pool and the fleet coordinator both drive."""

import shutil

import pytest

from repro.campaign.engine import CampaignEngine
from repro.campaign.journal import CampaignJournal
from repro.campaign.session import CampaignSession
from repro.core.errors import CampaignError, RecoveryError, node_token
from repro.core.master import build_run_spec, execute_spec_run
from repro.core.xmlio import description_to_xml
from repro.obs.trace import Tracer
from repro.sd.processlib import build_two_party_description

NODE = "t9-100"
NODE_ERROR = f"RpcTimeout: run_init timed out {node_token(NODE)}"


def _desc(replications=3, **kwargs):
    return build_two_party_description(
        name="session", seed=5, replications=replications, env_count=1, **kwargs
    )


def _open(tmp_path, replications=3, special_params=None, **kwargs):
    desc = _desc(replications, special_params=special_params or {})
    return CampaignSession(desc, tmp_path, **kwargs).open()


def _types(tmp_path):
    return [e["type"] for e in CampaignJournal(tmp_path).entries()]


def _run_for_real(session, ticket, worker="s0w00"):
    """Execute one ticket the way a pool worker would, then settle it."""
    faults = session.dispatch(ticket, worker)
    res = execute_spec_run(
        build_run_spec(
            session.campaign_dir,
            description_to_xml(session.description),
            ticket.run_id,
            worker,
            control_faults=faults,
        )
    )
    session.settle_ok(ticket.run_id, worker, res["store"], res["shard"])
    return res


# ----------------------------------------------------------------------
# open
# ----------------------------------------------------------------------
def test_fresh_open_refuses_an_existing_journal(tmp_path):
    first = _open(tmp_path)
    assert first.index == 0 and first.staged == {}
    with pytest.raises(RecoveryError, match="already holds a journal"):
        _open(tmp_path)
    # The refused open journaled nothing.
    assert _types(tmp_path) == ["campaign_start"]


def test_open_caps_the_scheduler_by_the_descriptions_max_parallel(tmp_path):
    capped = _open(tmp_path / "capped", special_params={"max_parallel": 1}, jobs=4)
    assert capped.scheduler.effective_jobs == 1
    assert capped.scheduler.capacity_left == 1
    capped.scheduler.next_ticket()
    assert capped.scheduler.capacity_left == 0
    free = _open(tmp_path / "free", jobs=4)
    assert free.scheduler.effective_jobs == 3  # bounded by the 3-run plan only
    assert free.scheduler.capacity_left is None


def test_resume_keeps_staged_runs_and_drops_vanished_staging(tmp_path):
    first = _open(tmp_path)
    kept = _run_for_real(first, first.scheduler.next_ticket())
    lost = _run_for_real(first, first.scheduler.next_ticket())
    shutil.rmtree(tmp_path / lost["store"])

    resumed = _open(tmp_path, resume=True)
    assert resumed.index == 1
    assert sorted(resumed.staged) == [kept["run_id"]]
    assert resumed.scheduler.skipped == {kept["run_id"]}
    # The vanished run and the never-started one are back in the queue.
    assert resumed.scheduler.pending == 2


# ----------------------------------------------------------------------
# dispatch
# ----------------------------------------------------------------------
def test_dispatch_journals_the_start_and_filters_chaos_per_attempt(tmp_path):
    fault = {"node": NODE, "action": "hang", "max_attempt": 1}
    session = _open(tmp_path, control_faults=[fault])
    ticket = session.scheduler.next_ticket()
    assert session.dispatch(ticket, "w0") == [fault]
    assert session.settle_failed(ticket.run_id, "w0", "boom", ticket.attempts)
    retry = session.scheduler.next_ticket()
    assert (retry.run_id, retry.attempts) == (ticket.run_id, 2)
    assert session.dispatch(retry, "w1") == []  # past max_attempt: runs clean
    starts = [e for e in CampaignJournal(tmp_path).entries() if e["type"] == "run_start"]
    assert [(e["run_id"], e["worker"]) for e in starts] == [(0, "w0"), (0, "w1")]


# ----------------------------------------------------------------------
# settle_failed: the retry ladder
# ----------------------------------------------------------------------
def _fail_next(session, error):
    ticket = session.scheduler.next_ticket()
    return ticket, session.settle_failed(ticket.run_id, "w0", error, ticket.attempts)


def test_failure_requeues_until_the_budget_is_exhausted(tmp_path):
    session = _open(tmp_path, max_attempts=2)
    ticket, requeued = _fail_next(session, "boom")
    assert requeued and session.scheduler.failed == {}
    again, requeued = _fail_next(session, "boom again")
    assert again.run_id == ticket.run_id and not requeued
    assert session.scheduler.failed == {ticket.run_id: "boom again"}
    reasons = CampaignJournal(tmp_path).failure_reasons()
    assert reasons[ticket.run_id]["attempt"] == 2
    assert session.telemetry.summary()["retried"] == 1
    assert session.telemetry.summary()["failed"] == 1


def test_quarantined_node_makes_later_failures_terminal(tmp_path):
    session = _open(tmp_path, max_attempts=3, quarantine_after=2)
    journal = CampaignJournal(tmp_path)
    _, requeued = _fail_next(session, NODE_ERROR)
    assert requeued and journal.quarantined_nodes() == []
    # The second node-attributed failure crosses the threshold: this
    # attempt is still re-queued, the node is quarantined from now on.
    _, requeued = _fail_next(session, NODE_ERROR)
    assert requeued and journal.quarantined_nodes() == [NODE]
    ticket, requeued = _fail_next(session, NODE_ERROR)
    assert ticket.run_id == 0 and not requeued
    # Another run failing on the quarantined node burns no retry budget ...
    ticket, requeued = _fail_next(session, NODE_ERROR)
    assert (ticket.run_id, ticket.attempts) == (1, 1) and not requeued
    # ... while a failure implicating no node still gets its retries.
    ticket, requeued = _fail_next(session, "boom")
    assert (ticket.run_id, ticket.attempts) == (2, 1) and requeued
    assert sorted(session.scheduler.failed) == [0, 1]
    assert session.telemetry.summary()["quarantined_nodes"] == [NODE]


# ----------------------------------------------------------------------
# seal
# ----------------------------------------------------------------------
def test_seal_reports_failed_runs_and_leaves_the_journal_resumable(tmp_path):
    session = _open(tmp_path, replications=3, max_attempts=1)
    for _ in range(2):
        _fail_next(session, "boom")
    ticket = session.scheduler.next_ticket()
    session.settle_ok(ticket.run_id, "w0", None, "shards/w0.db")
    with pytest.raises(CampaignError) as info:
        session.seal()
    assert str(info.value) == (
        "2 run(s) failed after 1 attempt(s): 0, 1; fix the cause and resume the campaign"
    )
    assert "campaign_complete" not in _types(tmp_path)
    # A failed campaign still leaves its counters behind.
    assert (tmp_path / "metrics.json").exists()


def test_seal_journals_completion_exactly_once(tmp_path):
    session = _open(tmp_path, replications=2)
    while (ticket := session.scheduler.next_ticket()) is not None:
        session.dispatch(ticket, "w0")
        session.settle_ok(ticket.run_id, "w0", None, "shards/w0.db", timed_out=ticket.run_id == 1)
    result = session.seal(jobs=2, pool="fleet")
    again = session.seal(jobs=2, pool="fleet")
    assert _types(tmp_path).count("campaign_complete") == 1
    assert result.executed_runs == again.executed_runs == [0, 1]
    assert result.timed_out_runs == [1]
    assert (result.jobs, result.pool, result.db_path) == (2, "fleet", None)
    assert result.telemetry["completed"] == 2
    assert (tmp_path / "metrics.json").exists()


# ----------------------------------------------------------------------
# best-effort observability files
# ----------------------------------------------------------------------
def test_an_unwritable_metrics_file_is_counted_not_raised(tmp_path, suppressed):
    session = _open(tmp_path)
    (tmp_path / "metrics.json").mkdir()  # open(..., "w") on a directory fails
    session.write_metrics()
    assert suppressed.value(site="campaign_metrics_write") == 1


def test_an_unwritable_traces_file_is_counted_not_raised(tmp_path, suppressed):
    engine = CampaignEngine(_desc(), tmp_path)
    (tmp_path / "traces.jsonl").mkdir(parents=True)
    tracer = Tracer(enabled=True)
    tracer.span("dispatch").end()
    engine._write_traces(tracer)
    assert suppressed.value(site="campaign_traces_write") == 1
    assert tracer.pending() == 0  # drained: a retry would not duplicate them
