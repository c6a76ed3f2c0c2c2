"""Unit tests for the case-study analysis (run outcomes, responsiveness)."""

import sqlite3

import pytest

from repro.analysis.responsiveness import (
    discover_roles,
    responsiveness_by_treatment,
    run_outcomes,
)
from repro.core.errors import StorageError
from repro.repo import Warehouse
from repro.sd.metrics import extract_run_discovery
from repro.storage.level2 import Level2Store
from repro.storage.level3 import ExperimentDatabase, store_level3

DESC_XML = """<experiment name="NAME" seed="1">
  <platform><actornode id="h1" address="10.0.0.1" abstract="A" /></platform>
</experiment>"""


def _event(name, node, t, *params):
    return {"name": name, "node": node, "local_time": t, "params": list(params)}


def _build(root, name, runs):
    """A level-3 package from ``runs``: one ``(treatment, {node: events})``
    per run id; event times are offsets into the run."""
    store = Level2Store(root / f"l2-{name}")
    store.write_description(DESC_XML.replace("NAME", name))
    store.write_plan(
        [{"run_id": r, "treatment": treatment} for r, (treatment, _) in enumerate(runs)]
    )
    for run_id, (treatment, by_node) in enumerate(runs):
        base = 100.0 * run_id
        store.write_timesync(run_id, {})
        info = {"run_id": run_id, "start_time": base, "treatment": treatment}
        store.write_run_info(run_id, info)
        with store.run_writer(run_id) as writer:
            for node, events in by_node.items():
                shifted = [dict(e, local_time=base + e["local_time"]) for e in events]
                writer.add_events(node, shifted)
    return store_level3(store, root / f"{name}.db")


def _sm(node):
    return [_event("sd_start_publish", node, 0.0)]


def _su(node, t_found, provider):
    """Searches from 1.0 on and adds *provider* at *t_found*."""
    search = _event("sd_start_search", node, 1.0)
    return [search, _event("sd_service_add", node, t_found, provider)]


def _one_pair(t_found):
    return {"h2": _sm("h2"), "h1": _su("h1", t_found, "h2")}


MIXED_RUNS = [
    # run 0: two SUs, both complete (h1 after 0.5 s, h3 after 0.75 s)
    (
        {"f": 0, "fact_replication_id": 0},
        {"h2": _sm("h2"), "h1": _su("h1", 1.5, "h2"), "h3": _su("h3", 1.75, "h2")},
    ),
    # run 1: two SMs published, only one found -> incomplete
    (
        {"f": 1, "fact_replication_id": 0},
        {"h2": _sm("h2"), "h4": _sm("h4"), "h1": _su("h1", 1.25, "h2")},
    ),
    # run 2: no SD events at all
    ({"f": 0, "fact_replication_id": 1}, {"h1": [_event("watchdog_tick", "h1", 0.5)]}),
    # run 3: complete, but slow (2 s)
    ({"f": 1, "fact_replication_id": 1}, _one_pair(3.0)),
]


@pytest.fixture
def mixed_db(tmp_path):
    return _build(tmp_path, "mixed", MIXED_RUNS)


def _per_run_reference(db, run_ids):
    """The analysis the slow way round: one run's full event log at a time."""
    outcomes = []
    for run_id in run_ids:
        events = db.events(run_id=run_id)
        sus, sms = discover_roles(db, run_id)
        outcomes.extend(extract_run_discovery(events, run_id, su, sms) for su in sus)
    return outcomes


def test_run_outcomes_cover_every_run_and_su(mixed_db):
    with ExperimentDatabase(mixed_db) as db:
        outcomes = run_outcomes(db)
        assert outcomes == _per_run_reference(db, db.run_ids())
    assert [(o.run_id, o.su_node, o.t_r) for o in outcomes] == [
        (0, "h1", 0.5),
        (0, "h3", 0.75),
        (1, "h1", None),  # h4 never found
        (3, "h1", 2.0),
    ]
    assert outcomes[2].required == {"h2", "h4"} and not outcomes[2].complete


def test_run_ids_argument_subsets_and_orders_the_outcomes(mixed_db):
    with ExperimentDatabase(mixed_db) as db:
        assert [(o.run_id, o.su_node) for o in run_outcomes(db, run_ids=[3, 0])] == [
            (3, "h1"),
            (0, "h1"),
            (0, "h3"),
        ]
        assert run_outcomes(db, run_ids=iter([2])) == []  # a run without SD events
        assert run_outcomes(db, run_ids=[]) == []
        assert run_outcomes(db, run_ids=[99]) == []


def test_discover_roles(mixed_db):
    with ExperimentDatabase(mixed_db) as db:
        assert discover_roles(db, 0) == (["h1", "h3"], ["h2"])
        assert discover_roles(db, 1) == (["h1"], ["h2", "h4"])
        assert discover_roles(db, 2) == ([], [])


def test_responsiveness_by_treatment_groups_replications(mixed_db):
    with ExperimentDatabase(mixed_db) as db:
        rows = responsiveness_by_treatment(db, deadlines=[1.0, 5.0])
    assert [row["treatment"] for row in rows] == [{"f": 0}, {"f": 1}]
    f0, f1 = rows
    # f=0: runs 0 and 2, but only run 0 has SUs (two of them).
    assert f0["runs"] == 2 and f0["summary"]["runs"] == 2 and f0["summary"]["complete"] == 2
    assert f0["R(1s)"]["p"] == 1.0
    # f=1: run 1 incomplete, run 3 complete after 2 s.
    assert f1["runs"] == 2 and f1["summary"]["complete"] == 1
    assert f1["summary"]["t_r_median"] == 2.0
    assert f1["R(1s)"]["p"] == 0.0 and f1["R(5s)"]["p"] == 0.5


def test_planless_package_keeps_both_behaviours(mixed_db, tmp_path):
    with sqlite3.connect(mixed_db) as conn:
        conn.execute("DELETE FROM EEFiles WHERE ID = 'plan.json'")
    with ExperimentDatabase(mixed_db) as db:
        with pytest.raises(StorageError, match="no plan.json"):
            responsiveness_by_treatment(db, deadlines=[1.0])
        assert len(run_outcomes(db)) == 4  # outcomes need no plan
    with Warehouse(tmp_path / "wh") as warehouse:
        exp_id = warehouse.ingest(mixed_db).exp_id
        surface = warehouse.responsiveness_surface(exp_id)
    assert [(r["treatment"], r["runs"], r["complete"]) for r in surface] == [("{}", 4, 3)]


def _statements(db_path):
    statements = []
    with ExperimentDatabase(db_path) as db:
        db.conn.set_trace_callback(statements.append)
        outcomes = run_outcomes(db)
        rows = responsiveness_by_treatment(db, [1.0, 5.0])
        db.conn.set_trace_callback(None)
    return statements, outcomes, rows


def test_statement_count_does_not_grow_with_the_number_of_runs(tmp_path):
    def replicated(n):
        return [({"f": r % 3, "fact_replication_id": r // 3}, _one_pair(1.5)) for r in range(n)]

    few, few_outcomes, few_rows = _statements(_build(tmp_path, "few", replicated(6)))
    many, many_outcomes, many_rows = _statements(_build(tmp_path, "many", replicated(18)))
    assert (len(few_outcomes), len(many_outcomes)) == (6, 18)
    assert [r["runs"] for r in few_rows] == [2, 2, 2]
    assert [r["runs"] for r in many_rows] == [6, 6, 6]
    assert len(many) == len(few) <= 6
    assert sum("FROM Events" in s for s in many) == 2  # one filtered pass per call
