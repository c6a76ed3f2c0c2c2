"""Properties of the storage fast path (buffered L2 ingest, merge-by-key
conditioning, tuned L3 writes).

The optimizations are only admissible because they are invisible in the
data: the level-3 package they produce must hold *identical* table
contents — row for row, in order — to the pre-optimization pipeline, and
the campaign merge must stay byte-identical for any ``--jobs``.  These
tests pin both claims:

* a Hypothesis property comparing merge-by-key conditioning against the
  reference concatenate-and-stable-sort implementation over adversarial
  per-node streams (sorted, unsorted, mixed, cross-attributed nodes);
* an end-to-end test storing a seeded 18-run experiment through the
  optimized writer and through an inline copy of the pre-optimization
  writer, asserting identical table dumps;
* a campaign executed with different worker counts over the same 18-run
  plan, asserting digest equality.
"""

import json
import sqlite3

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Level2Store, store_level3
from repro.campaign import database_digest, run_campaign
from repro.core.description import EE_VERSION
from repro.sd.processlib import build_two_party_description
from repro.storage.conditioning import (
    _condition_stream,
    _merge_streams,
    condition_experiment,
)
from repro.storage.level3 import (
    TABLE_SCHEMAS,
    _addr_to_node_map,
    _name_comment,
    create_schema,
)

from tests.conftest import execute_plan


# ----------------------------------------------------------------------
# Reference implementations (the pre-optimization pipeline, verbatim)
# ----------------------------------------------------------------------


def _reference_condition_records(records, offsets, run_id):
    """The original conditioning: concatenate, then one stable full sort."""
    out = []
    for rec in records:
        node = rec.get("node", "master")
        offset = offsets.get(node, 0.0)
        conditioned = dict(rec)
        conditioned["common_time"] = float(rec["local_time"]) - offset
        conditioned.setdefault("run_id", run_id)
        out.append(conditioned)
    out.sort(key=lambda r: (r["common_time"], r.get("node", ""), r.get("seq", -1)))
    return out


def _reference_store_level3(store, db_path):
    """The original level-3 writer: full in-memory conditioning, default
    connection pragmas, per-row scope/run-info inserts, one commit."""
    data = condition_experiment(store)
    conn = sqlite3.connect(str(db_path))
    try:
        create_schema(conn)
        name, comment = _name_comment(data.description_xml)
        conn.execute(
            "INSERT INTO ExperimentInfo (ExpXML, EEVersion, Name, Comment) "
            "VALUES (?, ?, ?, ?)",
            (data.description_xml, EE_VERSION, name, comment),
        )
        for node_id, log in sorted(data.node_logs.items()):
            conn.execute("INSERT INTO Logs (NodeID, Log) VALUES (?, ?)",
                         (node_id, log))
        for file_id, content in sorted(data.eefiles.items()):
            conn.execute("INSERT INTO EEFiles (ID, File) VALUES (?, ?)",
                         (file_id, content))
        conn.execute(
            "INSERT INTO EEFiles (ID, File) VALUES (?, ?)",
            ("plan.json", json.dumps(data.plan, sort_keys=True)),
        )
        for mname, content in sorted(data.experiment_measurements.items()):
            conn.execute(
                "INSERT INTO ExperimentMeasurements (NodeID, Name, Content) "
                "VALUES (?, ?, ?)",
                ("master", mname, json.dumps(content, sort_keys=True)),
            )
        src_map = _addr_to_node_map(data.description_xml)
        for run in data.runs:
            for node_id, offset in sorted(run.offsets.items()):
                conn.execute(
                    "INSERT INTO RunInfos (RunID, NodeID, StartTime, TimeDiff) "
                    "VALUES (?, ?, ?, ?)",
                    (run.run_id, node_id, run.start_time, offset),
                )
            for node_id, plugins in sorted(run.extra_measurements.items()):
                for pname, content in sorted(plugins.items()):
                    conn.execute(
                        "INSERT INTO ExtraRunMeasurements "
                        "(RunID, NodeID, Name, Content) VALUES (?, ?, ?, ?)",
                        (run.run_id, node_id, pname,
                         json.dumps(content, sort_keys=True)),
                    )
            conn.executemany(
                "INSERT INTO Events (RunID, NodeID, CommonTime, EventType, "
                "Parameter) VALUES (?, ?, ?, ?, ?)",
                (
                    (rec.get("run_id"), rec["node"], rec["common_time"],
                     rec["name"], json.dumps(rec.get("params", []),
                                             sort_keys=True))
                    for rec in run.events
                ),
            )
            conn.executemany(
                "INSERT INTO Packets (RunID, NodeID, CommonTime, SrcNodeID, "
                "Data) VALUES (?, ?, ?, ?, ?)",
                (
                    (rec.get("run_id"), rec["node"], rec["common_time"],
                     src_map.get(rec.get("src", ""), rec.get("src", "")),
                     json.dumps(rec, sort_keys=True))
                    for rec in run.packets
                ),
            )
        conn.commit()
    finally:
        conn.close()
    return db_path


def _table_dump(db_path, table):
    """Every row of *table* in stored (rowid) order."""
    conn = sqlite3.connect(str(db_path))
    try:
        columns = ", ".join(TABLE_SCHEMAS[table])
        return conn.execute(f"SELECT {columns} FROM {table}").fetchall()
    finally:
        conn.close()


# ----------------------------------------------------------------------
# Conditioning equivalence (Hypothesis)
# ----------------------------------------------------------------------

_record = st.fixed_dictionaries({
    # Drawing the node label per record (not per stream) deliberately
    # produces cross-attributed streams whose sort keys interleave, so
    # the merge meets ties and out-of-order streams.
    "node": st.sampled_from(["n0", "n1", "master"]),
    "local_time": st.floats(min_value=0.0, max_value=100.0,
                            allow_nan=False, allow_infinity=False),
    "seq": st.integers(min_value=0, max_value=50),
    "name": st.sampled_from(["a", "b"]),
})

_streams = st.lists(
    st.lists(_record, max_size=12).map(
        # Half the streams arrive pre-sorted (the realistic collection
        # order), half in arrival order — both must condition identically.
        lambda recs: sorted(
            recs, key=lambda r: (r["local_time"], r["node"], r["seq"])
        )
    ) | st.lists(_record, max_size=12),
    max_size=5,
)


@settings(max_examples=200, deadline=None)
@given(streams=_streams)
def test_merge_by_key_matches_reference_sort(streams):
    offsets = {"n0": 0.25, "n1": -1.5, "master": 0.0}
    reference = _reference_condition_records(
        [rec for stream in streams for rec in stream], offsets, run_id=7
    )
    merged = _merge_streams(
        [_condition_stream(stream, offsets, 7) for stream in streams]
    )
    assert merged == reference


# ----------------------------------------------------------------------
# End-to-end byte-identity on a seeded 18-run plan
# ----------------------------------------------------------------------

REPLICATIONS = 18


def _description():
    return build_two_party_description(
        name="fastpath-prop", seed=1803, replications=REPLICATIONS, env_count=1,
    )


@pytest.fixture(scope="module")
def executed_store(tmp_path_factory):
    root = tmp_path_factory.mktemp("fastpath")
    assert len(execute_plan(_description(), root / "l2")) == REPLICATIONS
    return Level2Store(root / "l2")


def test_optimized_writer_identical_table_dumps(executed_store, tmp_path):
    fast = store_level3(executed_store, tmp_path / "fast.db")
    reference = _reference_store_level3(executed_store, tmp_path / "ref.db")
    for table in TABLE_SCHEMAS:
        assert _table_dump(fast, table) == _table_dump(reference, table), table


def test_campaign_merge_identical_for_any_jobs(tmp_path):
    digests = set()
    for jobs in (1, 3):
        run_campaign(_description(), tmp_path / f"j{jobs}",
                     db_path=tmp_path / f"j{jobs}.db", jobs=jobs, pool="thread")
        digests.add(database_digest(tmp_path / f"j{jobs}.db"))
    assert len(digests) == 1
