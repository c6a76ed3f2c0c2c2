"""Catalogue: partition keys, experiment rows, the older layout refused."""

import sqlite3

import pytest

from repro.core.errors import StorageError
from repro.repo import Warehouse
from repro.repo.catalog import CATALOG_FILE, Catalog
from repro.repo.fingerprint import ExperimentKey


def _key(name="exp", fp="f" * 16, digest="d1"):
    return ExperimentKey(name=name, comment="", ee_version="v",
                         exp_xml="<x/>", factor_fingerprint=fp,
                         content_digest=digest)


@pytest.fixture
def catalog(tmp_path):
    cat = Catalog(tmp_path / "wh")
    yield cat
    cat.close()


def test_partition_routing_is_stable(catalog):
    pid1 = catalog.get_or_create_partition("exp", "aa" * 8)
    assert catalog.get_or_create_partition("exp", "aa" * 8) == pid1
    pid3 = catalog.get_or_create_partition("exp", "bb" * 8)
    assert pid3 != pid1
    pid4 = catalog.get_or_create_partition("other", "aa" * 8)
    assert pid4 not in (pid1, pid3)
    assert len(catalog.partitions()) == 3


def test_find_by_digest_returns_oldest(catalog):
    first, pid = catalog.insert_experiment(_key(), "a.db", 1)
    second, pid_again = catalog.insert_experiment(_key(), "b.db", 2)
    catalog.conn.commit()
    assert pid == pid_again
    assert catalog.find_by_digest("d1")["ExpID"] == first
    # Newest wins for name resolution (latest ingest is the baseline).
    assert catalog.experiment_id_by_name("exp") == second


def test_ingest_seq_monotonic(catalog):
    assert catalog.next_ingest_seq() == 1
    catalog.insert_experiment(_key(), "a.db", 7)
    catalog.conn.commit()
    assert catalog.next_ingest_seq() == 8


def test_catalogue_persists_across_reopen(tmp_path):
    cat = Catalog(tmp_path / "wh")
    exp_id, pid = cat.insert_experiment(_key(), "a.db", 1)
    cat.conn.commit()
    cat.close()
    again = Catalog(tmp_path / "wh")
    assert [r["ExpID"] for r in again.experiments()] == [exp_id]
    assert again.get_or_create_partition("exp", "f" * 16) == pid
    again.close()


def test_a_warehouse_in_the_older_layout_is_refused(tmp_path):
    """A root written with one database per partition is not opened: its
    experiments' rows are not in the catalogue file, so every view would
    read empty."""
    with_dir = tmp_path / "with-dir"
    (with_dir / "shards").mkdir(parents=True)
    with_column = tmp_path / "with-column"
    with_column.mkdir()
    with sqlite3.connect(with_column / CATALOG_FILE) as conn:
        conn.execute("CREATE TABLE Partitions (PartitionID INTEGER PRIMARY KEY, "
                     "Name TEXT, FactorFingerprint TEXT, ShardFile TEXT)")
    for root in (with_dir, with_column):
        with pytest.raises(StorageError, match="re-ingest its packages into a fresh root"):
            Catalog(root)
        with pytest.raises(StorageError, match="older one-file-per-partition layout"):
            Warehouse(root)


def test_a_root_is_one_database_and_the_journal(tmp_path, make_level3):
    root = tmp_path / "wh"
    with Warehouse(root) as warehouse:
        warehouse.ingest_many([make_level3("alpha"), make_level3("beta", t0=40.0)])
        assert len(warehouse.partitions()) == 2
    assert sorted(p.name for p in root.iterdir()) == [CATALOG_FILE, "journal"]
