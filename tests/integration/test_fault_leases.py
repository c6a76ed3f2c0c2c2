"""Integration: fault leases and salvage conditioning (DESIGN.md §11).

The experiment-integrity story end to end: a run killed in the middle of
an open ``msg_loss`` window leaks the fault's on-disk lease; the next
execution's reconciliation sweep force-reverts it before any run starts,
records it as ``fault_leak_reconciled``, and the resumed package digests
byte-identical to a fault-free reference.  The campaign side: a resume
trusts a committed run whose staged level-2 copy was torn afterwards —
the shard, not the staging store, is the record — again converging to
the reference digest.
"""

import pytest

from repro.campaign import (
    CampaignEngine,
    CampaignJournal,
    database_digest,
    run_campaign,
)
from repro.cli import main as cli_main
from repro.core.description import ManipulationProcess
from repro.core.errors import (
    CampaignError,
    ExecutionError,
    RpcTimeout,
    RunAbortedError,
)
from repro.core.master import ExperiMaster, build_run_spec
from repro.core.processes import DomainAction
from repro.core.recovery import Journal
from repro.faults.leases import FaultLeaseStore
from repro.platforms.simulated import PlatformConfig, SimulatedPlatform
from repro.sd.processlib import build_two_party_description
from repro.storage.level2 import Level2Store
from repro.storage.level3 import ExperimentDatabase, store_level3

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


def _fresh_master(store, **kwargs):
    desc = _desc()
    return ExperiMaster(SimulatedPlatform(desc), desc, store, **kwargs)


@pytest.fixture(scope="module")
def fault_free_reference(tmp_path_factory):
    """Fault-free digests shaped like the recovery paths under test.

    Same construction as in test_control_plane_faults: the serial
    reference is a controlled abort after run 0 plus a resume (serial
    kernels make absolute times depend on the interruption point); the
    campaign reference runs straight through (per-run kernels are
    directly comparable).
    """
    root = tmp_path_factory.mktemp("lease-reference")
    serial_store = Level2Store(root / "serial.l2")
    with pytest.raises(ExecutionError):
        _fresh_master(serial_store, abort_after_runs=1).execute()
    result = _fresh_master(serial_store, resume=True).execute()
    serial_db = store_level3(result.store, root / "serial.db")
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
# Serial: kill mid-window, resume sweeps the leaked lease
# ----------------------------------------------------------------------
def test_killed_run_leaks_lease_and_resume_reconciles(
    fault_free_reference, tmp_path
):
    desc = _desc()
    store = Level2Store(tmp_path / "exp.l2")
    faulty = SimulatedPlatform(
        desc, PlatformConfig(control_faults=[dict(KILL_MID_WINDOW)])
    )
    with pytest.raises((RpcTimeout, RunAbortedError)):
        ExperiMaster(faulty, desc, store).execute()

    journal = Journal(store)
    assert journal.completed_runs() == {0}
    aborted = journal.abort_reasons()
    assert set(aborted) == {1}
    assert aborted[1]["phase"] == "cleanup"

    # The crash left the msg_loss lease active on disk for the SU node.
    leases = FaultLeaseStore(store.root / "leases")
    active = leases.active(SU_NODE)
    assert len(active) == 1
    assert active[0]["kind"] == "msg_loss"
    assert active[0]["run_id"] == 1
    assert active[0]["expires_at"] is not None  # advisory TTL was stamped

    # Resume on a pristine platform: the startup sweep force-reverts the
    # leaked fault before any run executes, then runs 1 and 2 replay.
    result = _fresh_master(store, resume=True).execute()
    assert sorted(result.executed_runs) == [1, 2]
    assert leases.active(SU_NODE) == []

    reconciled = store.read_reconciled_leases()
    assert [r["kind"] for r in reconciled] == ["msg_loss"]
    assert reconciled[0]["node"] == SU_NODE
    assert reconciled[0]["run_id"] == 1

    # The sweep is visible in level 3 (FaultLeases side table) and the
    # Table I digest is byte-identical to the fault-free reference.
    db_path = store_level3(result.store, tmp_path / "resumed.db")
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
# CLI surface: repro inspect --leases over stores and databases
# ----------------------------------------------------------------------
def test_cli_inspect_leases_over_directory_and_db(tmp_path, capsys):
    desc = _desc(replications=2)
    store = Level2Store(tmp_path / "exp.l2")
    faulty = SimulatedPlatform(
        desc, PlatformConfig(control_faults=[dict(KILL_MID_WINDOW)])
    )
    with pytest.raises((RpcTimeout, RunAbortedError)):
        ExperiMaster(faulty, desc, store).execute()

    rc = cli_main(["inspect", str(store.root), "--leases"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "active leases: 1" in out
    assert "kind=msg_loss" in out
    assert "reconciled leases: 0" in out

    result = ExperiMaster(
        SimulatedPlatform(desc), desc, store, resume=True
    ).execute()
    rc = cli_main(["inspect", str(store.root), "--leases"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "active leases: 0" in out
    assert "reconciled leases: 1" in out

    # The same view over the level-3 database.
    db_path = store_level3(result.store, tmp_path / "resumed.db")
    rc = cli_main(["inspect", str(db_path), "--leases"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "fault leases: 1" in out
    assert "kind=msg_loss" in out

    # A directory without a view flag is a usage error.
    assert cli_main(["inspect", str(store.root)]) == 2
