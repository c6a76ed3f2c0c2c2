"""Unit tests for the write-ahead campaign journal."""

import json

import pytest

from repro.campaign.journal import CampaignJournal
from repro.core.errors import RecoveryError
from repro.sd.processlib import build_two_party_description


def _desc(seed=7):
    return build_two_party_description(name="jrnl", seed=seed, replications=2)


def _started(journal, desc, total=2, plan_fp="pfp"):
    return journal.record_start(desc.fingerprint(), desc.seed, total, plan_fp)


def test_round_trip_and_session_index(tmp_path):
    journal = CampaignJournal(tmp_path)
    desc = _desc()
    assert not journal.started()
    assert _started(journal, desc) == 0
    journal.record_run_start(0, "s0w00", None)
    journal.record_run_complete(0, "s0w00", "shards/s0w00.db")
    assert journal.started() and not journal.finished()
    assert _started(journal, desc) == 1  # second session
    journal.record_complete()
    assert journal.finished()
    assert journal.session_count() == 2
    assert [e["type"] for e in journal.entries()] == [
        "campaign_start",
        "run_start",
        "run_complete",
        "campaign_start",
        "campaign_complete",
    ]


def test_completed_latest_entry_wins(tmp_path):
    journal = CampaignJournal(tmp_path)
    journal.record_run_complete(3, "s0w00", "shards/old.db")
    journal.record_run_complete(3, "s1w01", "shards/new.db")
    assert journal.completed()[3] == {
        "type": "run_complete",
        "run_id": 3,
        "worker": "s1w01",
        "shard": "shards/new.db",
    }


def test_prepare_resume_requires_a_start(tmp_path):
    with pytest.raises(RecoveryError, match="nothing to resume"):
        CampaignJournal(tmp_path).prepare_resume(_desc(), 2, "pfp")


def test_prepare_resume_rejects_finished_campaign(tmp_path):
    journal = CampaignJournal(tmp_path)
    _started(journal, _desc())
    journal.record_complete()
    with pytest.raises(RecoveryError, match="already completed"):
        journal.prepare_resume(_desc(), 2, "pfp")


def test_prepare_resume_rejects_changed_description(tmp_path):
    journal = CampaignJournal(tmp_path)
    _started(journal, _desc(seed=7))
    with pytest.raises(RecoveryError):
        journal.prepare_resume(_desc(seed=8), 2, "pfp")


def test_prepare_resume_rejects_changed_plan(tmp_path):
    journal = CampaignJournal(tmp_path)
    _started(journal, _desc(), plan_fp="original")
    with pytest.raises(RecoveryError, match="treatment plan changed"):
        journal.prepare_resume(_desc(), 2, "different")


def test_prepare_resume_drops_entries_with_missing_data(tmp_path):
    journal = CampaignJournal(tmp_path)
    desc = _desc()
    _started(journal, desc)
    # Journaled but its shard never materialized on disk.
    journal.record_run_complete(0, "s0w00", "shards/gone.db")
    assert journal.prepare_resume(desc, 2, "pfp") == {}


def test_append_tolerates_blank_lines(tmp_path):
    journal = CampaignJournal(tmp_path)
    _started(journal, _desc())
    with open(journal.path, "a", encoding="utf-8") as fh:
        fh.write("\n")  # e.g. a torn write that only got the newline out
    journal.record_complete()
    assert journal.finished()


def test_entries_are_plain_jsonl(tmp_path):
    """One record per line, plain JSON inside the durable-log frame."""
    journal = CampaignJournal(tmp_path)
    _started(journal, _desc())
    lines = journal.path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1
    assert all(json.loads(line.split("\t")[1])["type"] for line in lines)
