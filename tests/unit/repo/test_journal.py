"""The fsynced ingest journal: tickets, batching, crash tolerance."""

import json

from repro.durable import frame
from repro.repo.journal import IngestJournal
from repro.repo.fingerprint import ExperimentKey


def _key(digest="d1"):
    return ExperimentKey(name="n", comment="", ee_version="v", exp_xml="<x/>",
                         factor_fingerprint="fp", content_digest=digest)


def test_tickets_monotonic_across_reopen(tmp_path):
    journal = IngestJournal(tmp_path)
    t0, t1 = journal.next_ticket(), journal.next_ticket()
    journal.append_many([journal.begin_record(t0, "a.db", _key()),
                         journal.begin_record(t1, "b.db", _key("d2"))])
    reopened = IngestJournal(tmp_path)
    assert reopened.next_ticket() > t1


def test_append_many_batches_records_in_order(tmp_path):
    journal = IngestJournal(tmp_path)
    tickets = [journal.next_ticket() for _ in range(3)]
    journal.append_many(
        journal.begin_record(t, f"{t}.db", _key(f"d{t}")) for t in tickets
    )
    entries = journal.entries()
    assert [e["ticket"] for e in entries] == tickets
    assert all(e["type"] == "ingest_begin" for e in entries)


def test_incomplete_tracks_open_tickets(tmp_path):
    journal = IngestJournal(tmp_path)
    t0, t1, t2, t3 = (journal.next_ticket() for _ in range(4))
    journal.append_many([
        journal.begin_record(t0, "a.db", _key("da")),
        journal.begin_record(t1, "b.db", _key("db")),
        journal.begin_record(t2, "c.db", _key("dc")),
        journal.begin_record(t3, "d.db", _key("dd")),
        journal.done_record(t0, 1),
        journal.skip_record(t1, 1),
        journal.abandon_record(t2, "source missing"),
    ])
    open_tickets = [rec["ticket"] for rec in journal.incomplete()]
    assert open_tickets == [t3]


def test_torn_final_line_is_ignored(tmp_path):
    journal = IngestJournal(tmp_path)
    t0 = journal.next_ticket()
    journal.append_many([journal.begin_record(t0, "a.db", _key())])
    with open(journal.path, "ab") as fh:
        fh.write(frame("", '{"type": "ingest_done"}')[:-12])  # the crash wrote half a record
    reopened = IngestJournal(tmp_path)
    assert len(reopened.entries()) == 1
    assert [r["ticket"] for r in reopened.incomplete()] == [t0]


def test_empty_journal(tmp_path):
    journal = IngestJournal(tmp_path)
    assert journal.entries() == []
    assert journal.incomplete() == []
    assert journal.next_ticket() == 0
    journal.append_many([])  # no-op, creates nothing
    assert not journal.path.exists()


def test_records_are_plain_json(tmp_path):
    journal = IngestJournal(tmp_path)
    t = journal.next_ticket()
    journal.append_many([journal.begin_record(t, "x.db", _key("dx"))])
    _key_field, text, _crc = journal.path.read_text(encoding="utf-8").strip("\n").split("\t")
    record = json.loads(text)
    assert record["digest"] == "dx"
    assert record["source"] == "x.db"
