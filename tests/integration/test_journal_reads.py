"""Every reader of a campaign journal shares one fold of it.

A campaign reads ``campaign.jsonl`` from its first byte once per process:
the session's journal folds it into its ``CampaignState`` and follows the
file's tail from there, and the seal's merge reads that same state.  The
count is taken by wrapping ``DurableLog._read`` and counting the reads
that start at byte 0.  A warehouse reads its ingest journal once per
open the same way: recovery asks the journal's fold, not the file.
"""

import threading
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import pytest

from repro.campaign import merge_campaign, run_campaign
from repro.campaign.journal import JOURNAL_NAME
from repro.durable import DurableLog
from repro.fabric import FabricCoordinator, FabricWorker
from repro.repo import Warehouse
from repro.repo.journal import JOURNAL_FILE
from repro.sd.processlib import build_two_party_description

READ = DurableLog._read


def _desc(replications):
    return build_two_party_description(
        name="reads", seed=5, replications=replications, env_count=1
    )


@contextmanager
def whole_reads(name=JOURNAL_NAME):
    """Yields the list of reads of the journal file *name* that start at
    its first byte, made while the block runs."""
    reads = []

    def read(log, start):
        if log.path.name == name and start == 0:
            reads.append(log.path)
        return READ(log, start)

    with mock.patch.object(DurableLog, "_read", read):
        yield reads


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_local_campaign_reads_its_journal_once(tmp_path, jobs):
    with whole_reads() as reads:
        run_campaign(
            _desc(4), tmp_path / "c", db_path=tmp_path / "c.db", jobs=jobs, pool="thread"
        )
    assert len(reads) == 1


def test_a_merge_reads_the_journal_once(tmp_path):
    run_campaign(_desc(4), tmp_path / "c", jobs=1, pool="thread")
    with whole_reads() as reads:
        merge_campaign(tmp_path / "c", tmp_path / "again.db")
    assert len(reads) == 1


def test_a_fleet_coordinator_reads_its_journal_once(tmp_path):
    with whole_reads() as reads:
        with FabricCoordinator(
            _desc(6), tmp_path / "c", port=0, batch_size=2, lease_ttl=10.0
        ) as coordinator:
            threads = []
            for i in range(2):
                worker = FabricWorker(
                    coordinator.address, f"w{i}", tmp_path / f"w{i}", poll_interval=0.05
                )
                threads.append(threading.Thread(target=worker.run_forever, daemon=True))
                threads[-1].start()
            result = coordinator.run_until_complete(db_path=tmp_path / "f.db", timeout=120.0)
            for thread in threads:
                thread.join(timeout=30.0)
                assert not thread.is_alive()
    assert result.failed_runs == {}
    assert len(reads) == 1


def test_a_warehouse_open_reads_its_ingest_journal_once(tmp_path):
    run_campaign(_desc(1), tmp_path / "c", db_path=tmp_path / "c.db", jobs=1, pool="thread")
    with Warehouse(tmp_path / "wh") as warehouse:
        warehouse.ingest_many([tmp_path / "c.db"])
    with whole_reads(Path(JOURNAL_FILE).name) as reads:
        with Warehouse(tmp_path / "wh") as warehouse:
            assert warehouse.journal.next_ticket() == 1
    assert len(reads) == 1
