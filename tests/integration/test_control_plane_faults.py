"""Integration: the control plane under injected faults (DESIGN.md §10).

The dfuntest argument, turned on ExCovery itself: the experiment harness
must tolerate its own infrastructure misbehaving.  These tests inject
RPC hangs, dropped replies and node crashes into the master↔node control
channel and assert that

* a hung NodeManager fails the run cleanly into the journal and a
  ``--resume`` replays it to a byte-identical database,
* the campaign engine re-queues runs that failed on a dead node and the
  merged database records every run exactly once — with the earlier
  attempt's failure in ``RunInfos.AbortReason`` — while the surviving
  measurement data digests equal to a fault-free reference,
* a node failing repeatedly is quarantined instead of burning the whole
  campaign's retry budget,
* both of the above hold identically whether the campaign is dispatched
  by the local pool or by the fleet coordinator — the policy is one
  :class:`~repro.campaign.session.CampaignSession` either way.
"""

import json
import sys
import threading
from pathlib import Path

import pytest

from repro.campaign import (
    CampaignEngine,
    CampaignJournal,
    database_digest,
    run_campaign,
)
from repro.cli import build_parser, main as cli_main
from repro.core.errors import CampaignError, RunAbortedError
from repro.core.master import ExperiMaster
from repro.core.xmlio import description_to_xml
from repro.fabric import FabricCoordinator, FabricWorker
from repro.platforms.simulated import SimulatedPlatform
from repro.sd.processlib import build_two_party_description
from repro.storage.level2 import Level2Store
from repro.storage.level3 import ExperimentDatabase

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tools"))
from check_prom import check_prometheus_text  # noqa: E402

SM_NODE = "t9-100"  # actor node hosting the SM role
SU_NODE = "t9-101"


def _desc(seed=77, replications=3, **kwargs):
    kwargs.setdefault("env_count", 1)
    return build_two_party_description(
        name="chaos-it", seed=seed, replications=replications, **kwargs
    )


def _quarantined_nodes(journal):
    return sorted({e["node_id"] for e in journal.entries() if e["type"] == "node_quarantined"})


def _run_local(desc, campaign_dir, db_path=None, workers=2, **kwargs):
    return run_campaign(desc, campaign_dir, db_path=db_path, jobs=workers, pool="thread", **kwargs)


def _run_fleet(desc, campaign_dir, db_path=None, workers=2, **kwargs):
    """The same campaign, leased to loopback fleet workers."""
    coordinator = FabricCoordinator(desc, campaign_dir, port=0, lease_ttl=10.0, **kwargs)
    threads = []
    try:
        with coordinator:
            for i in range(workers):
                worker = FabricWorker(
                    coordinator.address,
                    f"w{i}",
                    Path(campaign_dir).parent / f"fleet-w{i}",
                    capacity=1,
                    poll_interval=0.05,
                )
                threads.append(threading.Thread(target=worker.run_forever, daemon=True))
                threads[-1].start()
            return coordinator.run_until_complete(db_path=db_path, timeout=240.0)
    finally:
        # Settled is settled, failed runs or not: the workers were told
        # "done" and leave on their own.
        for thread in threads:
            thread.join(timeout=30.0)
            assert not thread.is_alive()


DISPATCHERS = {"local": _run_local, "fleet": _run_fleet}


@pytest.fixture(scope="module")
def fault_free_reference(tmp_path_factory):
    """Fault-free digests of the 3-run and the 4-run plan.

    Every run executes in its own kernel, so a fault-free digest is
    directly comparable to a chaotic one, however the chaotic campaign
    was interrupted and resumed.
    """
    root = tmp_path_factory.mktemp("reference")
    # One-worker reference over the 3-run plan (what `repro run` does).
    serial_db = run_campaign(
        _desc(), root / "serial", db_path=root / "serial.db", jobs=1, pool="thread"
    ).db_path
    # Campaign reference over the 4-run plan.
    run_campaign(
        _desc(replications=4),
        root / "campaign",
        db_path=root / "campaign.db",
        jobs=2,
        pool="thread",
    )
    ignore = ("AbortReason",)
    return {
        "serial": database_digest(serial_db, ignore_columns=ignore),
        "campaign": database_digest(root / "campaign.db", ignore_columns=ignore),
    }


# ----------------------------------------------------------------------
# One-worker campaign (`repro run`): watchdog abort + resume replay
# ----------------------------------------------------------------------
def test_hung_node_aborts_into_journal_and_resume_replays(fault_free_reference, tmp_path):
    desc = _desc()
    hang = [{"node": SU_NODE, "action": "hang", "run_id": 1}]
    with pytest.raises(CampaignError, match=r"1 run\(s\) failed after 1 attempt\(s\): 1"):
        run_campaign(
            desc,
            tmp_path / "campaign",
            jobs=1,
            pool="thread",
            max_attempts=1,
            control_faults=hang,
        )

    journal = CampaignJournal(tmp_path / "campaign")
    assert set(journal.state().completed) == {0, 2}
    (failure,) = journal.state().failures.values()
    assert failure["run_id"] == 1
    assert failure["error"].startswith("RpcTimeout") and f"[node={SU_NODE}]" in failure["error"]

    # Resume without the fault: the failed run replays cleanly and the
    # final package is byte-identical to the fault-free reference.
    result = run_campaign(
        desc,
        tmp_path / "campaign",
        db_path=tmp_path / "resumed.db",
        jobs=1,
        pool="thread",
        resume=True,
    )
    assert result.executed_runs == [1]
    digest = database_digest(result.db_path, ignore_columns=("AbortReason",))
    assert digest == fault_free_reference["serial"]


def test_phase_deadline_watchdog_aborts_run(tmp_path):
    desc = _desc(
        replications=1,
        special_params={"exec_deadline": 0.01},  # execution needs seconds
    )
    store = Level2Store(tmp_path / "exp.l2")
    with pytest.raises(RunAbortedError) as info:
        ExperiMaster(SimulatedPlatform(desc), desc, store, 0).execute()
    assert info.value.phase == "execution"
    assert info.value.run_id == 0
    # The campaign journals the abort as the run's failure.
    with pytest.raises(CampaignError):
        run_campaign(desc, tmp_path / "campaign", jobs=1, pool="thread", max_attempts=1)
    (failure,) = CampaignJournal(tmp_path / "campaign").state().failures.values()
    assert failure["error"].startswith("RunAbortedError") and "deadline" in failure["error"]


# ----------------------------------------------------------------------
# Campaign: re-queue after a node crash, abort reasons, digest equality
# ----------------------------------------------------------------------
@pytest.mark.parametrize("dispatcher", sorted(DISPATCHERS))
def test_campaign_requeues_crashed_run_and_digest_matches(
    dispatcher, fault_free_reference, tmp_path, capsys
):
    result = DISPATCHERS[dispatcher](
        _desc(replications=4),
        tmp_path / "campaign",
        db_path=tmp_path / "chaos.db",
        max_attempts=2,
        control_faults=[
            {"node": SM_NODE, "action": "hang", "run_id": 2, "max_attempt": 1},
        ],
    )
    # Every run present exactly once, despite run 2's first attempt dying.
    assert result.executed_runs == [0, 1, 2, 3]
    assert result.failed_runs == {}
    assert result.telemetry["retried"] == 1

    with ExperimentDatabase(tmp_path / "chaos.db") as db:
        assert db.run_ids() == [0, 1, 2, 3]
        reasons = db.abort_reasons()
        assert set(reasons) == {2}
        assert "RpcTimeout" in reasons[2] and SM_NODE in reasons[2]

    journal = CampaignJournal(tmp_path / "campaign")
    assert {r: e["attempt"] for r, e in journal.state().failures.items()} == {2: 1}
    assert _quarantined_nodes(journal) == []
    # Masking the annotation, the surviving data is identical to the
    # fault-free campaign's.
    digest = database_digest(tmp_path / "chaos.db", ignore_columns=("AbortReason",))
    assert digest == fault_free_reference["campaign"]

    # Sealing left the metrics snapshot `repro metrics` renders, with the
    # failed attempt counted at the worker boundary.
    assert cli_main(["metrics", str(tmp_path / "campaign"), "--format", "prometheus"]) == 0
    text = capsys.readouterr().out
    assert check_prometheus_text(text) == []
    assert "repro_campaign_worker_errors_total" in text


def test_campaign_in_run_retry_recovers_dropped_reply(tmp_path):
    fault = {"node": SU_NODE, "action": "drop_reply", "method": "run_init", "run_id": 1}
    result = run_campaign(
        _desc(replications=2),
        tmp_path / "campaign",
        db_path=tmp_path / "out.db",
        jobs=1,
        pool="thread",
        control_faults=[fault],
    )
    # The in-run RPC retry absorbed the fault: no run-level failure.
    assert result.executed_runs == [0, 1]
    assert result.failed_runs == {}
    assert result.telemetry["retried"] == 0
    assert result.telemetry["rpc_retries"] >= 1
    assert result.telemetry["rpc_timeouts"] >= 1


@pytest.mark.parametrize("dispatcher", sorted(DISPATCHERS))
def test_campaign_quarantines_repeatedly_failing_node(dispatcher, tmp_path):
    with pytest.raises(CampaignError, match=r"3 run\(s\) failed after 3 attempt\(s\): 0, 1, 2"):
        DISPATCHERS[dispatcher](
            _desc(replications=3),
            tmp_path / "campaign",
            workers=1,
            max_attempts=3,
            quarantine_after=2,
            control_faults=[{"node": SM_NODE, "action": "hang"}],
        )
    journal = CampaignJournal(tmp_path / "campaign")
    assert _quarantined_nodes(journal) == [SM_NODE]
    # Run 0 burns its whole budget quarantining the node; once quarantined,
    # later runs fail terminally on their first attempt: 5 run_failed
    # entries instead of 3 runs x 3 attempts.
    reasons = journal.state().failures
    assert {r: e["attempt"] for r, e in reasons.items()} == {0: 3, 1: 1, 2: 1}
    assert all("RpcTimeout" in e["error"] and SM_NODE in e["error"] for e in reasons.values())
    failed_entries = [e for e in journal.entries() if e["type"] == "run_failed"]
    assert len(failed_entries) == 5


def test_campaign_crash_plus_session_faults_resume_to_reference(fault_free_reference, tmp_path):
    desc = _desc(replications=4)
    faults = [
        {"node": SU_NODE, "action": "hang", "run_id": 1, "max_attempt": 1, "sessions": [0]},
    ]
    with pytest.raises(CampaignError, match="abort"):
        run_campaign(
            desc,
            tmp_path / "campaign",
            jobs=2,
            pool="thread",
            max_attempts=2,
            control_faults=faults,
            abort_after_runs=2,
        )
    journal = CampaignJournal(tmp_path / "campaign")
    assert 0 < len(journal.state().completed) < 4

    result = CampaignEngine(
        desc,
        tmp_path / "campaign",
        jobs=2,
        pool="thread",
        max_attempts=2,
        control_faults=faults,
        resume=True,
    ).execute(db_path=tmp_path / "resumed.db")
    assert len(result.skipped_runs) + len(result.executed_runs) == 4
    digest = database_digest(tmp_path / "resumed.db", ignore_columns=("AbortReason",))
    assert digest == fault_free_reference["campaign"]


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
def test_cli_campaign_chaos_and_inspect(tmp_path, capsys):
    xml = tmp_path / "exp.xml"
    xml.write_text(description_to_xml(_desc(replications=4)), encoding="utf-8")
    chaos = tmp_path / "chaos.json"
    fault = {"node": SM_NODE, "action": "hang", "run_id": 1, "max_attempt": 1}
    chaos.write_text(json.dumps([fault]), encoding="utf-8")

    rc = cli_main(
        [
            "campaign",
            str(xml),
            "--dir",
            str(tmp_path / "campaign"),
            "--db",
            str(tmp_path / "cli.db"),
            "--jobs",
            "2",
            "--pool",
            "thread",
            "--max-retries",
            "1",
            "--chaos-json",
            str(chaos),
            "--quiet",
        ]
    )
    assert rc == 0
    capsys.readouterr()

    rc = cli_main(["inspect", str(tmp_path / "cli.db")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "runs: 4" in out
    assert "retried runs: 1" in out
    assert "RpcTimeout" in out


def test_cli_retries_alias_and_resilience_flags():
    parser = build_parser()
    args = parser.parse_args(["campaign", "x.xml", "--retries", "3"])
    assert args.max_retries == 3
    args = parser.parse_args(["campaign", "x.xml", "--max-retries", "2", "--abort-after", "2"])
    assert args.max_retries == 2
    assert args.abort_after == 2
    args = parser.parse_args(["campaign", "x.xml", "--rpc-timeout", "5", "--run-deadline", "120"])
    assert args.rpc_timeout == 5.0
    assert args.run_deadline == 120.0
    args = parser.parse_args(["run", "x.xml", "--rpc-timeout", "5", "--run-deadline", "60"])
    assert args.rpc_timeout == 5.0 and args.run_deadline == 60.0
