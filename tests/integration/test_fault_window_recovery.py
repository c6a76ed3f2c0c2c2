"""Integration: recovery from a run that dies inside a fault window
(DESIGN.md §11).

Every run builds its own world — kernel, medium, nodes and interfaces —
over a frozen testbed frame, so a fault's packet filter lives on nodes
that exist for that run only.  A crash takes the fault down with the
run's world: nothing is left to revert, and the next attempt starts on
fresh interfaces.  These tests hold that claim to the digest: a run
killed in the middle of an open ``msg_loss`` window and then resumed, and
a same-process thread-pool retry of such a run, both converge to the
fault-free reference.  The campaign side: a resume trusts a committed run
whose staged level-2 copy was torn afterwards — the shard, not the
staging store, is the record — again converging to the reference digest.
"""

import pytest

from repro.campaign import (
    CampaignEngine,
    CampaignJournal,
    database_digest,
    run_campaign,
)
from repro.core.description import ManipulationProcess
from repro.core.errors import CampaignError
from repro.core.master import build_run_spec
from repro.core.processes import DomainAction
from repro.sd.processlib import build_two_party_description

SM_NODE = "t9-100"  # actor node hosting the SM role

# Lose every run_exit reply from the SM node during run 1: the master
# exhausts its RPC retries and aborts the run in the *cleanup* phase —
# after actor1's 600 s msg_loss window opened on the SU node, but before
# the SU's own run_exit could revert it.
KILL_MID_WINDOW = {
    "node": SM_NODE,
    "action": "drop_reply",
    "method": "run_exit",
    "run_id": 1,
    "count": 20,
}


def _desc(seed=91, replications=3, **kwargs):
    kwargs.setdefault("env_count", 1)
    # Still named as when these tests checked the fault-lease ledger, so
    # the fault-free reference digests are the same as they were then.
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
    root = tmp_path_factory.mktemp("fault-free-reference")
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
# One worker (`repro run`): kill mid-window, then resume
# ----------------------------------------------------------------------
def test_run_killed_in_a_fault_window_resumes_to_reference(
    fault_free_reference, tmp_path
):
    desc = _desc()
    campaign = tmp_path / "campaign"
    with pytest.raises(CampaignError, match=r"failed after 1 attempt\(s\): 1"):
        _one_worker(desc, campaign, max_attempts=1, control_faults=[dict(KILL_MID_WINDOW)])

    journal = CampaignJournal(campaign)
    assert set(journal.state().completed) == {0, 2}
    assert "RpcTimeout" in journal.state().failures[1]["error"]

    # Resume without the chaos: the replayed run builds a fresh world, so
    # the killed attempt's msg_loss filter is simply not there.
    result = _one_worker(desc, campaign, db_path=tmp_path / "resumed.db", resume=True)
    assert result.executed_runs == [1]
    digest = database_digest(result.db_path, ignore_columns=("AbortReason",))
    assert digest == fault_free_reference["serial"]


# ----------------------------------------------------------------------
# Campaign: a same-process retry of a run killed mid-window
# ----------------------------------------------------------------------
def test_retry_in_a_fault_window_matches_the_reference(
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

    # The retry runs in the same process as the killed attempt, on a
    # thread of the same pool — and still on its own world.
    digest = database_digest(tmp_path / "chaos.db", ignore_columns=("AbortReason",))
    assert digest == fault_free_reference["campaign"]


# ----------------------------------------------------------------------
# Campaign resume: a committed run's staging copy is scratch
# ----------------------------------------------------------------------
def test_resume_trusts_a_committed_run_over_torn_staging(
    fault_free_reference, tmp_path
):
    desc = _desc(replications=4)
    with pytest.raises(CampaignError, match="abort"):
        run_campaign(
            desc, tmp_path / "campaign", jobs=2, pool="thread", abort_after_runs=2
        )
    staged = CampaignJournal(tmp_path / "campaign").state().completed
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
