"""One crash scenario through every typed store that sits on the durable
log: a record torn mid-append is dropped (not an error, not a hole), the
next append reads back, and damage anywhere but the tail is refused.

Only the stores' public methods and raw bytes are used, so the file also
runs against a tree that predates :mod:`repro.durable` — where the strict
readers raise on the torn tail and the tolerant ones lose the record
appended after it.
"""

import pytest

from repro.campaign.journal import CampaignJournal
from repro.core.errors import StorageError
from repro.fabric.election import ElectionLedger
from repro.repo.fingerprint import ExperimentKey
from repro.repo.journal import IngestJournal
from repro.sd.processlib import build_two_party_description


class _Case:
    """``write(i)`` appends the i-th record; ``view()`` is what a fresh
    process folds out of the file; ``expect(ids)`` is that view when
    exactly the records *ids* are on disk."""

    def __init__(self, root):
        self.root = root


class _Campaign(_Case):
    def __init__(self, root):
        super().__init__(root)
        self.path = root / "campaign.jsonl"
        self.desc = build_two_party_description(name="torn", seed=7, replications=2)
        CampaignJournal(root).record_start(self.desc.fingerprint(), self.desc.seed, 2, "pfp")

    def write(self, i):
        CampaignJournal(self.root).record_run_complete(i, "w", f"shards/{i}.db")

    def view(self):
        journal = CampaignJournal(self.root)
        # Nothing is staged on disk, so resume validation keeps no entry —
        # but it has to read the whole journal to say so.
        assert journal.prepare_resume(self.desc, 2, "pfp") == {}
        return sorted(journal.completed())

    def expect(self, ids):
        return sorted(ids)


class _Election(_Case):
    def __init__(self, root):
        super().__init__(root)
        self.path = root / "election.jsonl"

    def _ledger(self):
        return ElectionLedger(self.root, ttl=10.0, clock=lambda: 1000.0)

    def write(self, i):
        assert self._ledger().campaign(f"c{i}", f"host:{i}", force=True) is not None

    def view(self):
        record = self._ledger().current()
        return (record.epoch, record.leader_id)

    def expect(self, ids):
        return (len(ids), f"c{ids[-1]}")


class _Ingest(_Case):
    def __init__(self, root):
        super().__init__(root)
        self.path = root / "journal" / "ingest.jsonl"

    def write(self, i):
        journal = IngestJournal(self.root)
        key = ExperimentKey(name="n", comment="", ee_version="v", exp_xml="<x/>",
                            factor_fingerprint="fp", content_digest=f"d{i}")
        journal.append_many([journal.begin_record(i, f"{i}.db", key)])

    def view(self):
        return [rec["ticket"] for rec in IngestJournal(self.root).incomplete()]

    def expect(self, ids):
        return list(ids)


CASES = [_Campaign, _Election, _Ingest]


@pytest.fixture(params=CASES, ids=lambda case: case.__name__.strip("_"))
def case(request, tmp_path):
    return request.param(tmp_path)


def test_torn_tail_is_dropped_and_the_next_append_reads_back(case):
    case.write(0)
    case.write(1)
    assert case.view() == case.expect([0, 1])
    case.path.write_bytes(case.path.read_bytes()[:-10])  # the crash tore record 1
    assert case.view() == case.expect([0])
    case.write(2)
    assert case.view() == case.expect([0, 2])
    assert case.path.read_bytes().endswith(b"\n")


def test_damage_before_the_tail_is_refused(case):
    for i in range(3):
        case.write(i)
    data = bytearray(case.path.read_bytes())
    lines = bytes(data).split(b"\n")
    target = len(lines) - 3  # the last-but-one record; lines[-1] is ""
    offset = sum(len(line) + 1 for line in lines[:target]) + len(lines[target]) // 2
    data[offset] ^= 0x01
    case.path.write_bytes(bytes(data))
    with pytest.raises(StorageError, match="corrupt record"):
        case.view()
