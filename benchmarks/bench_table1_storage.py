"""Table I — tables and attributes of the storage concept.

Regenerates: the exact table/attribute inventory of the paper's Table I
from a freshly stored level-3 database, plus row counts.
Measures: conditioning + SQLite write throughput for one experiment.
"""

from conftest import print_table, run_once

from repro import ExperiMaster, Level2Store, store_level3
from repro.platforms.simulated import SimulatedPlatform
from repro.sd.processlib import build_two_party_description
from repro.storage.level3 import TABLE_SCHEMAS, ExperimentDatabase


def test_table1_schema_regenerated(benchmark, workdir):
    desc = build_two_party_description(
        name="table1", seed=3, replications=4, env_count=3,
    )
    store = Level2Store(workdir / "l2")
    for run_id in range(desc.factors.total_runs()):
        ExperiMaster(SimulatedPlatform(desc), desc, store, run_id).execute()

    def condition_and_store():
        return store_level3(store, workdir / "table1.db")

    db_path = run_once(benchmark, condition_and_store)

    with ExperimentDatabase(db_path) as db:
        schema = db.schema()
        counts = db.row_counts()

    rows = [
        f"{table:<24} {', '.join(attrs):<55} ({counts[table]} rows)"
        for table, attrs in TABLE_SCHEMAS.items()
    ]
    print_table(
        "Table I: tables and attributes of the storage concept",
        f"{'Table':<24} {'Attributes':<55}",
        rows,
    )
    # The schema is Table I, attribute for attribute, in order.
    for table, attrs in TABLE_SCHEMAS.items():
        assert schema[table] == attrs, table
    # And it actually holds the experiment.
    assert counts["ExperimentInfo"] == 1
    assert counts["RunInfos"] == 4 * (len(desc.platform) + 1)  # +master
    assert counts["Events"] > 0 and counts["Packets"] > 0
    benchmark.extra_info["row_counts"] = counts
