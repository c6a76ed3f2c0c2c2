"""Property: the warehouse is invisible in the data.

A level-3 package routed through the L4 warehouse — partitioned shard
copy, ATTACH-based batch ingest, materialized read models — must answer
every query byte-identically to the ``ExperimentDatabase`` reader over
the original package.  Hypothesis drives adversarial package shapes
(run counts, factor spaces, event mixes, clock origins) through the full
ingest path and compares each query surface row for row.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.repo import Warehouse
from repro.storage.level3 import ExperimentDatabase

from tests.unit.repo.conftest import build_level3

packages = st.fixed_dictionaries(
    {
        "n_runs": st.integers(min_value=1, max_value=6),
        "t0": st.floats(min_value=0.0, max_value=1e4, allow_nan=False,
                        allow_infinity=False),
        "levels": st.lists(st.integers(min_value=0, max_value=9),
                           min_size=1, max_size=4, unique=True),
        "extra": st.lists(
            st.sampled_from(["custom_probe", "fault_cpu_run",
                             "fault_pl_setup", "watchdog_tick"]),
            max_size=3, unique=True),
    }
)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(shape=packages)
def test_warehouse_view_byte_equal_to_level3(tmp_path_factory, shape):
    root = tmp_path_factory.mktemp("prop")
    db_path = build_level3(
        root, "prop-exp", n_runs=shape["n_runs"], t0=shape["t0"],
        factor_levels=tuple(shape["levels"]),
        extra_events=tuple(shape["extra"]),
    )
    with Warehouse(root / "wh") as warehouse:
        exp_id = warehouse.ingest(db_path).exp_id
        view = warehouse.view(exp_id)
        with ExperimentDatabase(db_path) as level3:
            assert view.events() == level3.events()
            sd_types = {"sd_start_search", "sd_start_publish",
                        "sd_service_add"}
            assert view.events(event_type=tuple(sd_types)) == [
                e for e in level3.events() if e["name"] in sd_types
            ]
            assert view.packets() == level3.packets()
            assert view.run_infos() == level3.run_infos()
            assert view.run_ids() == level3.run_ids()
            assert view.node_ids() == level3.node_ids()
            assert view.plan() == level3.plan()
            # The shard holds the Table-I subset; L3 additionally carries
            # an operational table (RunTraces).
            direct_counts = level3.row_counts()
            for table, count in view.row_counts().items():
                assert count == direct_counts[table]

            stats = warehouse.stats(exp_id)
            counts = level3.row_counts()
            assert stats["Runs"] == len(level3.run_ids())
            assert stats["Events"] == counts["Events"]
            assert stats["Packets"] == counts["Packets"]

            mv_counts = {r["event_type"]: r["n"]
                         for r in warehouse.event_counts(exp_id=exp_id)}
            direct = {}
            for event in level3.events():
                direct[event["name"]] = direct.get(event["name"], 0) + 1
            assert mv_counts == direct
