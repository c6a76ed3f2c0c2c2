"""Unit tests for the campaign session: the open / dispatch / settle /
seal policy the local pool and the fleet coordinator both drive."""

import json
import shutil

import pytest

from repro.campaign.engine import CampaignEngine
from repro.campaign.journal import CampaignJournal
from repro.campaign.session import CampaignSession
from repro.core.errors import CampaignError, RecoveryError, node_token
from repro.core.master import build_run_spec, execute_spec_run
from repro.core.xmlio import description_to_xml
from repro.fabric.dispatch import LeaseDispatcher
from repro.fabric.leases import LeaseStore
from repro.obs.trace import Tracer
from repro.sd.processlib import build_two_party_description
from repro.storage.level3 import RunShard

NODE = "t9-100"
NODE_ERROR = f"RpcTimeout: run_init timed out {node_token(NODE)}"


def _desc(replications=3, seed=5, **kwargs):
    return build_two_party_description(
        name="session", seed=seed, replications=replications, env_count=1, **kwargs
    )


def _open(tmp_path, replications=3, special_params=None, **kwargs):
    desc = _desc(replications, special_params=special_params or {})
    return CampaignSession(desc, tmp_path, **kwargs).open()


def _types(tmp_path):
    return [e["type"] for e in CampaignJournal(tmp_path).entries()]


def _run_for_real(session, ticket, worker="s0w00"):
    """Execute one ticket the way a pool worker would, then settle it."""
    (faults,) = session.dispatch([ticket], worker, None)
    res = execute_spec_run(
        build_run_spec(
            session.campaign_dir,
            description_to_xml(session.description),
            ticket.run_id,
            worker,
            control_faults=faults,
        )
    )
    session.settle_ok(ticket.run_id, worker, res["shard"], scope=res["scope"])
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


def _lose_from_shard(campaign_dir, res):
    """Delete one committed run's rows from its shard."""
    with RunShard(campaign_dir / res["shard"]) as shard, shard.replacing_run(res["run_id"]):
        pass


def test_resume_keeps_the_runs_their_shards_hold_whatever_became_of_staging(tmp_path):
    first = _open(tmp_path)
    kept = _run_for_real(first, first.scheduler.next_ticket())
    lost = _run_for_real(first, first.scheduler.next_ticket())
    shutil.rmtree(tmp_path / "staging")  # scratch: no committed run needs it
    _lose_from_shard(tmp_path, lost)

    resumed = _open(tmp_path, resume=True)
    assert resumed.index == 1
    assert sorted(resumed.staged) == [kept["run_id"]]
    assert resumed.scheduler.skipped == {kept["run_id"]}
    # The run its shard lost and the never-started one are back in the queue.
    assert resumed.scheduler.pending == 2


def test_resume_without_scope_json_requeues_the_scope_run(tmp_path):
    first = _open(tmp_path)
    scope_run = _run_for_real(first, first.scheduler.next_ticket())
    other = _run_for_real(first, first.scheduler.next_ticket())
    assert scope_run["scope"] is not None and other["scope"] is None
    (tmp_path / "scope.json").unlink()

    resumed = _open(tmp_path, resume=True)
    assert sorted(resumed.staged) == [other["run_id"]]
    ticket = resumed.scheduler.next_ticket()
    assert ticket.run_id == scope_run["run_id"]
    _run_for_real(resumed, ticket)  # its settle writes the file again
    assert (tmp_path / "scope.json").read_text(encoding="utf-8") == scope_run["scope"]


# ----------------------------------------------------------------------
# dispatch
# ----------------------------------------------------------------------
def test_dispatch_journals_the_start_and_filters_chaos_per_attempt(tmp_path):
    fault = {"node": NODE, "action": "hang", "max_attempt": 1}
    session = _open(tmp_path, control_faults=[fault])
    ticket = session.scheduler.next_ticket()
    assert session.dispatch([ticket], "w0", None) == [[fault]]
    assert session.settle_failed(ticket.run_id, "w0", "boom", ticket.attempts)
    retry = session.scheduler.next_ticket()
    assert (retry.run_id, retry.attempts) == (ticket.run_id, 2)
    assert session.dispatch([retry], "w1", None) == [[]]  # past max_attempt: runs clean
    starts = [e for e in CampaignJournal(tmp_path).entries() if e["type"] == "run_start"]
    assert [(e["run_id"], e["worker"]) for e in starts] == [(0, "w0"), (0, "w1")]


# ----------------------------------------------------------------------
# settle_failed: the retry ladder
# ----------------------------------------------------------------------
def _quarantined_nodes(journal):
    return sorted({e["node_id"] for e in journal.entries() if e["type"] == "node_quarantined"})


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
    reasons = CampaignJournal(tmp_path).state().failures
    assert reasons[ticket.run_id]["attempt"] == 2
    assert session.summary()["retried"] == 1
    assert session.summary()["failed"] == 1


def test_quarantined_node_makes_later_failures_terminal(tmp_path):
    session = _open(tmp_path, max_attempts=3, quarantine_after=2)
    journal = CampaignJournal(tmp_path)
    _, requeued = _fail_next(session, NODE_ERROR)
    assert requeued and _quarantined_nodes(journal) == []
    # The second node-attributed failure crosses the threshold: this
    # attempt is still re-queued, the node is quarantined from now on.
    _, requeued = _fail_next(session, NODE_ERROR)
    assert requeued and _quarantined_nodes(journal) == [NODE]
    ticket, requeued = _fail_next(session, NODE_ERROR)
    assert ticket.run_id == 0 and not requeued
    # Another run failing on the quarantined node burns no retry budget ...
    ticket, requeued = _fail_next(session, NODE_ERROR)
    assert (ticket.run_id, ticket.attempts) == (1, 1) and not requeued
    # ... while a failure implicating no node still gets its retries.
    ticket, requeued = _fail_next(session, "boom")
    assert (ticket.run_id, ticket.attempts) == (2, 1) and requeued
    assert sorted(session.scheduler.failed) == [0, 1]
    assert session.summary()["quarantined_nodes"] == [NODE]


# ----------------------------------------------------------------------
# seal
# ----------------------------------------------------------------------
def test_seal_reports_failed_runs_and_leaves_the_journal_resumable(tmp_path):
    session = _open(tmp_path, replications=3, max_attempts=1)
    for _ in range(2):
        _fail_next(session, "boom")
    ticket = session.scheduler.next_ticket()
    session.settle_ok(ticket.run_id, "w0", "shards/w0.db")
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
        session.dispatch([ticket], "w0", None)
        session.settle_ok(ticket.run_id, "w0", "shards/w0.db", timed_out=ticket.run_id == 1)
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


# ----------------------------------------------------------------------
# the report: one line per transition, counts read from the scheduler
# ----------------------------------------------------------------------
def test_a_multi_run_lease_keeps_its_worker_busy_until_the_last_settle(tmp_path, clock, registry):
    """Two runs dispatched to one worker at t0 and settled at t1 and t2:
    the worker was busy t2 - t0, and a run is in flight until it settles."""
    lines = []
    session = _open(tmp_path, progress=lines.append)
    session.dispatch(session.scheduler.next_batch(2), "w0", None)
    gauge = registry.gauge("repro_campaign_worker_busy_seconds", labels=("worker",))
    clock.now += 1.0
    session.settle_ok(0, "w0", "shards/w0.db")
    assert lines[-1] == "[1/3]  1.00 runs/s  eta 2s  1 in flight  run 0 ok (0.00s, w0)"
    assert gauge.value(worker="w0") == 1.0
    clock.now += 2.0
    session.settle_ok(1, "w0", "shards/w0.db")
    assert lines[-1] == "[2/3]  0.67 runs/s  eta 2s  run 1 ok (0.00s, w0)"
    assert gauge.value(worker="w0") == 3.0


def _metrics(campaign_dir):
    """``metrics.json`` without its wall-clock values: family → (kind,
    label names, counter values — or, for gauges and histograms, the
    label sets present)."""
    snapshot = json.loads((campaign_dir / "metrics.json").read_text(encoding="utf-8"))
    shape = {}
    for name, entry in snapshot.items():
        values = entry.get("values", {})
        if entry["kind"] == "counter":
            seen = {tuple(json.loads(key)): value for key, value in values.items()}
        else:
            seen = sorted(tuple(json.loads(key)) for key in values)
        shape[name] = (entry["kind"], tuple(entry["labels"]), seen)
    return shape


RPC_METHODS = (
    "collect_experiment",
    "collect_run",
    "execute_action",
    "experiment_exit",
    "experiment_init",
    "ping",
    "run_exit",
    "run_init",
)
RPC_CALLS = (12.0, 12.0, 36.0, 12.0, 15.0, 60.0, 12.0, 12.0)


def test_local_campaign_report_is_pinned(tmp_path, monkeypatch, clock, registry):
    """A 4-run local campaign with one retried failure, aborted after two
    runs and resumed: its progress lines, ``metrics.json`` families,
    label sets and counter values, and its summary.  Every run takes one
    clock second and reports a 0.5 s wall."""
    monkeypatch.setattr("repro.platforms.frame._memo", None)

    def timed_run(spec):
        clock.now += 1.0
        result = execute_spec_run(spec)
        result["duration"] = 0.5
        return result

    monkeypatch.setattr("repro.campaign.engine.execute_spec_run", timed_run)
    lines = []
    desc = _desc(replications=4, seed=77)
    hang = {"node": NODE, "action": "hang", "run_id": 1, "max_attempt": 1}
    options = dict(jobs=1, pool="thread", progress=lines.append, control_faults=[hang])
    with pytest.raises(CampaignError, match="aborting after 2 runs"):
        CampaignEngine(desc, tmp_path / "c", abort_after_runs=2, **options).execute()
    result = CampaignEngine(desc, tmp_path / "c", resume=True, **options).execute(
        db_path=tmp_path / "c.db"
    )
    assert lines == [
        "[1/4]  1.00 runs/s  eta 3s  run 0 ok (0.50s, s0w00)",
        "[1/4]  0.50 runs/s  eta 6s  run 1 failed, retrying: RpcTimeout: rpc run_init "
        "to [node=t9-100] timed out after 30.0s (3 attempt(s))",
        "[2/4]  0.67 runs/s  eta 3s  run 1 ok (0.50s, s0w00)",
        "resume: 2/4 runs already staged",
        "[3/4]  1.00 runs/s  eta 1s  run 2 ok (0.50s, s1w00)",
        "[4/4]  1.00 runs/s  run 3 ok (0.50s, s1w00)",
        "merging 4 runs into the experiment database",
    ]
    methods = [(method,) for method in RPC_METHODS]
    assert _metrics(tmp_path / "c") == {
        "repro_campaign_runs_completed_total": ("counter", (), {(): 4.0}),
        "repro_campaign_runs_retried_total": ("counter", (), {(): 1.0}),
        "repro_campaign_worker_busy_seconds": ("gauge", ("worker",), [("s0w00",), ("s1w00",)]),
        "repro_campaign_worker_errors_total": ("counter", (), {(): 1.0}),
        "repro_fault_window_seconds": ("histogram", ("kind",), []),
        "repro_fault_windows_total": ("counter", ("kind",), {}),
        "repro_rpc_call_seconds": ("histogram", ("method",), methods),
        "repro_rpc_calls_total": ("counter", ("method",), dict(zip(methods, RPC_CALLS))),
        "repro_rpc_codec_fallback_total": ("counter", ("direction",), {}),
        "repro_rpc_retries_total": ("counter", ("method",), {("run_init",): 2.0}),
        "repro_rpc_timeouts_total": ("counter", ("method",), {("run_init",): 3.0}),
        "repro_run_turnstile_wait_seconds": ("histogram", (), [()]),
        "repro_testbed_frames_total": (
            "counter",
            ("outcome",),
            {("built",): 1.0, ("reused",): 4.0},
        ),
    }
    telemetry = dict(result.telemetry)
    assert {name: stats["count"] for name, stats in telemetry.pop("phases").items()} == {
        "preparation": 2,
        "execution": 2,
        "cleanup": 2,
    }
    assert telemetry == {
        "total": 4,
        "completed": 2,
        "skipped": 2,
        "failed": 0,
        "retried": 0,
        "rpc_retries": 0,
        "rpc_timeouts": 0,
        "quarantined_nodes": [],
    }


def test_fleet_campaign_report_is_pinned(tmp_path, clock, registry):
    """A scripted 2-worker fleet campaign — a failure, a silent worker, an
    expired lease, an operator quarantine — through the lease dispatcher,
    on one clock.  "In flight" counts runs, however many a lease holds."""
    lines = []
    session = _open(tmp_path, replications=6, progress=lines.append)
    dispatcher = LeaseDispatcher(
        session,
        LeaseStore(ttl=10.0, clock=clock),
        batch_size=2,
        clock=clock,
    )

    def lease(worker):
        granted, batch = dispatcher.grant(worker, 2)
        session.dispatch(batch, worker, granted.lease_id)
        return granted

    def ack(worker, granted, run_id):
        clock.now += 1.0
        dispatcher.ack_completed(
            worker,
            granted.lease_id,
            run_id,
            lambda: session.settle_ok(run_id, worker, "shards/w.db", duration=0.5),
        )

    dispatcher.register("w0", 2)
    dispatcher.register("w1", 2)
    first, second = lease("w0"), lease("w1")
    ack("w0", first, 0)
    clock.now += 1.0
    dispatcher.ack_failed("w1", second.lease_id, 2, "boom")
    ack("w0", first, 1)
    clock.now += 12.0  # w1 falls silent past its lease's TTL
    dispatcher.sweep()
    for _ in range(2):
        granted = lease("w0")
        for run_id in granted.run_ids:
            ack("w0", granted, run_id)
    dispatcher.quarantine_worker("w1", "operator")
    result = session.seal(jobs=2, pool="fleet")

    assert lines == [
        "worker w0 joined (capacity 2)",
        "worker w1 joined (capacity 2)",
        "[1/6]  1.00 runs/s  eta 5s  3 in flight  run 0 ok (0.50s, w0)",
        "[1/6]  0.50 runs/s  eta 10s  2 in flight  run 2 failed, retrying: boom",
        "[2/6]  0.67 runs/s  eta 6s  1 in flight  run 1 ok (0.50s, w0)",
        "[2/6]  0.13 runs/s  eta 30s  lease L000002 of w1 expired; 1 runs re-queued",
        "[3/6]  0.19 runs/s  eta 16s  1 in flight  run 2 ok (0.50s, w0)",
        "[4/6]  0.24 runs/s  eta 8s  run 3 ok (0.50s, w0)",
        "[5/6]  0.28 runs/s  eta 4s  1 in flight  run 4 ok (0.50s, w0)",
        "[6/6]  0.32 runs/s  run 5 ok (0.50s, w0)",
        "[6/6]  0.32 runs/s  worker w1 QUARANTINED: operator",
    ]
    tallies = (
        dispatcher.registered,
        dispatcher.leases_granted,
        dispatcher.leases_expired,
        dispatcher.quarantined,
    )
    assert tallies == (2, 4, 1, 1)
    assert _metrics(tmp_path) == {
        "repro_campaign_runs_completed_total": ("counter", (), {(): 6.0}),
        "repro_campaign_runs_retried_total": ("counter", (), {(): 1.0}),
        "repro_campaign_worker_busy_seconds": ("gauge", ("worker",), [("w0",), ("w1",)]),
        "repro_campaign_worker_errors_total": ("counter", (), {(): 1.0}),
        "repro_fabric_leases_expired_total": ("counter", (), {(): 1.0}),
        "repro_fabric_leases_granted_total": ("counter", (), {(): 4.0}),
    }
    # w0 held at least one run from t0 to t0+3 and from t0+15 to t0+19.
    busy = registry.gauge("repro_campaign_worker_busy_seconds", labels=("worker",))
    assert (busy.value(worker="w0"), busy.value(worker="w1")) == (7.0, 2.0)
    assert result.telemetry == {
        "total": 6,
        "completed": 6,
        "skipped": 0,
        "failed": 0,
        "retried": 1,
        "rpc_retries": 0,
        "rpc_timeouts": 0,
        "quarantined_nodes": [],
        "phases": {},
    }
