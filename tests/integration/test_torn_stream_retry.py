"""Integration: a torn level-2 stream dies with its attempt (DESIGN.md §11).

A campaign run is a pure function of (description, run id) and its staging
store is scratch, so a corrupt frame is not repaired: conditioning refuses
it, the attempt fails with ``StorageError``, the campaign re-queues the run
and the retry commits exactly what an undamaged campaign commits.  Here one
frame of run k's staging ``events.jsonl`` is flipped with
``tools/corrupt_l2.py`` after ``master.execute()`` and before
``ShardWriter.stage_run`` reads it, on the first attempt only.
"""

import importlib.util
import threading
from pathlib import Path

import pytest

from repro.campaign import CampaignJournal, database_digest, run_campaign
from repro.campaign.merge import ShardWriter
from repro.core.errors import StorageError
from repro.sd.processlib import build_two_party_description

SM_NODE = "t9-100"
VICTIM = 1


def _desc():
    return build_two_party_description(name="torn", seed=17, replications=3, env_count=1)


def _corrupt_l2_tool():
    path = Path(__file__).resolve().parents[2] / "tools" / "corrupt_l2.py"
    spec = importlib.util.spec_from_file_location("corrupt_l2", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


@pytest.fixture(scope="module")
def reference_digest(tmp_path_factory):
    root = tmp_path_factory.mktemp("torn-reference")
    result = run_campaign(_desc(), root / "campaign", db_path=root / "ref.db",
                          jobs=1, pool="thread")
    return database_digest(result.db_path, ignore_columns=("AbortReason",))


@pytest.fixture
def tear_first_staging(monkeypatch):
    """Flip one frame of run VICTIM's staging events before its first
    ``stage_run``; returns the errors that attempt raised."""
    tool = _corrupt_l2_tool()
    real = ShardWriter.stage_run
    lock = threading.Lock()
    torn, raised = [], []

    def stage_run(self, store, run_id):
        with lock:
            first = run_id == VICTIM and not torn
            if first:
                torn.append(run_id)
        if not first:
            return real(self, store, run_id)
        assert tool.main([str(store.root), "--run", str(run_id), "--stream", "events.jsonl",
                          "--node", SM_NODE, "--index", "-1", "--flip-byte"]) == 0
        try:
            return real(self, store, run_id)
        except Exception as exc:
            raised.append(exc)
            raise

    monkeypatch.setattr(ShardWriter, "stage_run", stage_run)
    return raised


@pytest.mark.parametrize("jobs", [1, 2], ids=["jobs1", "jobs2-thread"])
def test_a_torn_staging_stream_fails_its_attempt_and_the_retry_commits(
    reference_digest, tear_first_staging, tmp_path, jobs
):
    result = run_campaign(_desc(), tmp_path / "campaign", db_path=tmp_path / "torn.db",
                          jobs=jobs, pool="thread", max_attempts=2)

    (error,) = tear_first_staging
    assert isinstance(error, StorageError)
    assert "events.jsonl" in str(error) and "crc_mismatch" in str(error)

    failed = CampaignJournal(tmp_path / "campaign").failure_reasons()
    assert list(failed) == [VICTIM]
    assert failed[VICTIM]["attempt"] == 1
    assert failed[VICTIM]["error"] == f"StorageError: {error}"

    assert result.failed_runs == {}
    assert result.telemetry["retried"] == 1
    assert database_digest(result.db_path, ignore_columns=("AbortReason",)) == reference_digest
