"""Integration: fault leases and salvage conditioning (DESIGN.md §11).

The experiment-integrity story end to end: a run killed in the middle of
an open ``msg_loss`` window leaks the fault's on-disk lease; the next
attempt's reconciliation sweep force-reverts it before the run starts,
records it as ``fault_leak_reconciled``, and the resumed package digests
byte-identical to a fault-free reference.  The campaign side: a resume
trusts a committed run whose staged level-2 copy was torn afterwards —
the shard, not the staging store, is the record — again converging to
the reference digest.
"""

import json

import pytest

from repro.campaign import (
    CampaignEngine,
    CampaignJournal,
    database_digest,
    run_campaign,
)
from repro.cli import main as cli_main
from repro.core.description import ManipulationProcess
from repro.core.errors import CampaignError
from repro.core.master import build_run_spec
from repro.core.processes import DomainAction
from repro.core.xmlio import description_to_xml
from repro.faults.leases import FaultLeaseStore
from repro.sd.processlib import build_two_party_description
from repro.storage.level3 import ExperimentDatabase

from tests.conftest import staging_store

SM_NODE = "t9-100"  # actor node hosting the SM role
SU_NODE = "t9-101"  # hosts actor1, the target of the msg_loss window

# Lose every run_exit reply from the SM node during run 1: the master
# exhausts its RPC retries and aborts the run in the *cleanup* phase —
# after actor1's 600 s msg_loss window opened on the SU node, but before
# the SU's own run_exit could revert it.  The fault's lease stays on
# disk: exactly the leak the reconciliation sweep exists for.
KILL_MID_WINDOW = {
    "node": SM_NODE,
    "action": "drop_reply",
    "method": "run_exit",
    "run_id": 1,
    "count": 20,
}


def _desc(seed=91, replications=3, **kwargs):
    kwargs.setdefault("env_count", 1)
    desc = build_two_party_description(
        name="lease-it", seed=seed, replications=replications, **kwargs
    )
    # A long fault window (longer than any run) so an aborted run always
    # dies inside it; orderly runs revert it via stop_all at run exit.
    desc.manipulations.append(
        ManipulationProcess(
            actor_id="actor1",
            actions=[
                DomainAction(
                    name="msg_loss_start",
                    params={
                        "probability": 0.2,
                        "direction": "both",
                        "duration": 600.0,
                    },
                )
            ],
        )
    )
    return desc


def _one_worker(desc, campaign_dir, **kwargs):
    """The plan as a one-worker campaign — what ``repro run`` does."""
    return run_campaign(desc, campaign_dir, jobs=1, pool="thread", **kwargs)


@pytest.fixture(scope="module")
def fault_free_reference(tmp_path_factory):
    """Fault-free digests of the 3-run and the 4-run plan (every run in
    its own kernel, so directly comparable to a recovered campaign)."""
    root = tmp_path_factory.mktemp("lease-reference")
    serial_db = _one_worker(_desc(), root / "serial", db_path=root / "serial.db").db_path
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
# One worker (`repro run`): kill mid-window, resume sweeps the leaked lease
# ----------------------------------------------------------------------
def test_killed_run_leaks_lease_and_resume_reconciles(
    fault_free_reference, tmp_path
):
    desc = _desc()
    campaign = tmp_path / "campaign"
    with pytest.raises(CampaignError, match=r"failed after 1 attempt\(s\): 1"):
        _one_worker(desc, campaign, max_attempts=1, control_faults=[dict(KILL_MID_WINDOW)])

    journal = CampaignJournal(campaign)
    assert set(journal.completed()) == {0, 2}
    assert "RpcTimeout" in journal.failure_reasons()[1]["error"]

    # The crash left the msg_loss lease active on disk for the SU node.
    leases = FaultLeaseStore(campaign / "leases" / "run_000001")
    active = leases.active(SU_NODE)
    assert len(active) == 1
    assert active[0]["kind"] == "msg_loss"
    assert active[0]["run_id"] == 1
    assert active[0]["expires_at"] is not None  # advisory TTL was stamped

    # Resume without the fault: the replayed run's startup sweep
    # force-reverts the leaked fault before the run executes.
    result = _one_worker(desc, campaign, db_path=tmp_path / "resumed.db", resume=True)
    assert result.executed_runs == [1]
    assert FaultLeaseStore(campaign / "leases" / "run_000001").active(SU_NODE) == []

    reconciled = staging_store(campaign, 1).read_reconciled_leases()
    assert [r["kind"] for r in reconciled] == ["msg_loss"]
    assert reconciled[0]["node"] == SU_NODE
    assert reconciled[0]["run_id"] == 1

    # The sweep is visible in level 3 (FaultLeases side table) and the
    # Table I digest is byte-identical to the fault-free reference.
    db_path = result.db_path
    with ExperimentDatabase(db_path) as db:
        rows = db.fault_leases()
        assert len(rows) == 1
        assert rows[0]["Kind"] == "msg_loss"
        assert rows[0]["Event"] == "fault_leak_reconciled"
        assert rows[0]["RunID"] == 1
        assert rows[0]["NodeID"] == SU_NODE
    digest = database_digest(db_path, ignore_columns=("AbortReason",))
    assert digest == fault_free_reference["serial"]


# ----------------------------------------------------------------------
# Campaign: the retry's master sweeps the first attempt's leak
# ----------------------------------------------------------------------
def test_campaign_retry_sweeps_leaked_lease_and_digest_matches(
    fault_free_reference, tmp_path
):
    result = run_campaign(
        _desc(replications=4),
        tmp_path / "campaign",
        db_path=tmp_path / "chaos.db",
        jobs=2,
        pool="thread",
        max_attempts=2,
        control_faults=[dict(KILL_MID_WINDOW, max_attempt=1)],
    )
    assert result.executed_runs == [0, 1, 2, 3]
    assert result.failed_runs == {}
    assert result.telemetry["retried"] == 1

    # The lease root lives outside the rmtree'd staging tree, so the
    # retry found the first attempt's leaked lease and swept it.
    lease_dir = tmp_path / "campaign" / "leases" / "run_000001"
    assert lease_dir.is_dir()
    assert FaultLeaseStore(lease_dir).active(SU_NODE) == []

    with ExperimentDatabase(tmp_path / "chaos.db") as db:
        rows = db.fault_leases(run_id=1)
        assert [r["Kind"] for r in rows] == ["msg_loss"]
        assert rows[0]["NodeID"] == SU_NODE
        assert db.fault_leases(run_id=0) == []
    digest = database_digest(tmp_path / "chaos.db", ignore_columns=("AbortReason",))
    assert digest == fault_free_reference["campaign"]


# ----------------------------------------------------------------------
# Campaign resume: a committed run's staging copy is scratch
# ----------------------------------------------------------------------
def test_campaign_resume_trusts_a_committed_run_despite_torn_staging(
    fault_free_reference, tmp_path
):
    desc = _desc(replications=4)
    with pytest.raises(CampaignError, match="abort"):
        run_campaign(
            desc, tmp_path / "campaign", jobs=2, pool="thread", abort_after_runs=2
        )
    staged = CampaignJournal(tmp_path / "campaign").completed()
    assert staged
    victim = min(staged)
    spec = build_run_spec(tmp_path / "campaign", "", victim, staged[victim]["worker"])
    events = tmp_path / "campaign" / spec["store"] / "runs" / str(victim) / "events.jsonl"
    # Tear the file's tail the way a crashed writer would — after the
    # shard commit, so the run's committed rows are intact.
    data = events.read_bytes()
    assert len(data) > 25
    events.write_bytes(data[:-25])

    result = CampaignEngine(
        desc,
        tmp_path / "campaign",
        jobs=2,
        pool="thread",
        resume=True,
    ).execute(db_path=tmp_path / "resumed.db")
    # Its shard holds the run: nothing reads the torn copy.
    assert victim in result.skipped_runs
    assert victim not in result.executed_runs

    digest = database_digest(
        tmp_path / "resumed.db", ignore_columns=("AbortReason",)
    )
    assert digest == fault_free_reference["campaign"]


# ----------------------------------------------------------------------
# CLI surface: repro inspect --leases over campaign directories and databases
# ----------------------------------------------------------------------
def test_cli_inspect_leases_over_directory_and_db(tmp_path, capsys):
    xml = tmp_path / "exp.xml"
    xml.write_text(description_to_xml(_desc(replications=2)), encoding="utf-8")
    chaos = tmp_path / "chaos.json"
    chaos.write_text(json.dumps([KILL_MID_WINDOW]), encoding="utf-8")
    campaign, db_path = tmp_path / "campaign", tmp_path / "resumed.db"
    run = ["run", str(xml), "--dir", str(campaign), "--db", str(db_path), "--quiet"]
    assert cli_main([*run, "--chaos-json", str(chaos), "--max-retries", "0"]) == 2
    capsys.readouterr()

    rc = cli_main(["inspect", str(campaign), "--leases"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "active leases: 1" in out
    assert "kind=msg_loss" in out
    assert "reconciled leases: 0" in out

    assert cli_main([*run, "--resume"]) == 0
    rc = cli_main(["inspect", str(campaign), "--leases"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "active leases: 0" in out
    assert "reconciled leases: 1" in out

    # The same view over the level-3 database.
    rc = cli_main(["inspect", str(db_path), "--leases"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "fault leases: 1" in out
    assert "kind=msg_loss" in out

    # A directory without a view flag is a usage error.
    assert cli_main(["inspect", str(campaign)]) == 2
