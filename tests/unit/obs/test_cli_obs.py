"""CLI and storage round trips for the observability layer."""

import json
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.xmlio import description_to_xml
from repro.obs.trace import TRACE_ENV_VAR
from repro.sd.processlib import build_two_party_description
from repro.storage.level3 import ExperimentDatabase, store_level3

from tests.conftest import staging_store

sys.path.insert(0, str(Path(__file__).resolve().parents[3] / "tools"))
from check_prom import check_prometheus_text  # noqa: E402


@pytest.fixture
def desc_xml(tmp_path):
    path = tmp_path / "exp.xml"
    desc = build_two_party_description(
        name="obs-cli",
        seed=9,
        replications=2,
        env_count=1,
    )
    path.write_text(description_to_xml(desc), encoding="utf-8")
    return path


@pytest.fixture
def executed(desc_xml, tmp_path, monkeypatch):
    monkeypatch.setenv(TRACE_ENV_VAR, "1")
    campaign = tmp_path / "c"
    db = tmp_path / "exp.db"
    assert main(["run", str(desc_xml), "--dir", str(campaign), "--db", str(db), "--quiet"]) == 0
    return campaign, db


# ----------------------------------------------------------------------
# Level-2 / level-3 round trip
# ----------------------------------------------------------------------
def test_traces_survive_into_the_database(executed):
    campaign, db = executed
    store = staging_store(campaign, 0)
    assert store.read_run_traces("master", 0)
    # Experiment-scope spans (no run id) stay in each run's level-2 store.
    assert "experiment_init" in {rec["name"] for rec in store.read_experiment_traces()}
    with ExperimentDatabase(db) as dbh:
        records = dbh.run_traces(run_id=0)
        names = {rec["name"] for rec in records}
        assert {"preparation", "execution", "cleanup"} <= names
        run_span = next(rec for rec in records if rec["name"] == "run")
        assert run_span["attrs"]["replication"] == 0


# ----------------------------------------------------------------------
# repro trace
# ----------------------------------------------------------------------
def test_trace_tree_and_critical_path(executed, capsys):
    _, db = executed
    assert main(["trace", str(db), "--run", "0"]) == 0
    out = capsys.readouterr().out
    assert "span tree" in out and "run" in out
    assert "preparation" in out and "cleanup" in out
    assert main(["trace", str(db), "--run", "0", "--critical-path"]) == 0
    out = capsys.readouterr().out
    assert "critical path" in out and "total" in out and "self" in out


def test_trace_summary_across_runs(executed, capsys):
    _, db = executed
    assert main(["trace", str(db)]) == 0
    out = capsys.readouterr().out
    assert "runs with spans: 2" in out
    for phase in ("preparation", "execution", "cleanup"):
        assert phase in out
    assert "p50=" in out and "p95=" in out
    assert "critical path" in out


def test_trace_reports_absence(desc_xml, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(TRACE_ENV_VAR, "0")
    db = tmp_path / "exp.db"
    assert main(["run", str(desc_xml), "--dir", str(tmp_path / "c"), "--db", str(db), "--quiet"]) == 0
    assert main(["trace", str(db)]) == 1
    assert "no trace spans" in capsys.readouterr().err
    assert main(["trace", str(db), "--run", "0"]) == 1
    assert "no trace spans" in capsys.readouterr().err


# ----------------------------------------------------------------------
# repro metrics
# ----------------------------------------------------------------------
def test_metrics_prometheus_from_run_store(executed, capsys):
    campaign, _ = executed
    assert main(["metrics", str(campaign)]) == 0
    text = capsys.readouterr().out
    assert check_prometheus_text(text) == []
    assert "repro_rpc_calls_total" in text


def test_metrics_json_output(executed, capsys):
    campaign, _ = executed
    assert main(["metrics", str(campaign / "metrics.json"), "--format", "json"]) == 0
    snap = json.loads(capsys.readouterr().out)
    assert snap["repro_rpc_calls_total"]["kind"] == "counter"


def test_metrics_missing_snapshot(tmp_path, capsys):
    assert main(["metrics", str(tmp_path)]) == 1
    assert "no metrics snapshot" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Error spans from swallowed boundaries reconstruct the traceback
# ----------------------------------------------------------------------
def test_store_level3_keeps_error_span_tracebacks(executed, tmp_path):
    from repro.obs.trace import Tracer

    campaign, _ = executed
    store = staging_store(campaign, 0)
    tracer = Tracer(enabled=True)
    tracer.current_run = 0
    try:
        raise RuntimeError("revert failed")
    except RuntimeError as exc:
        tracer.record_error("fault_revert", exc, site="stop_all")
    # Appending to an executed store mimics a late swallowed error: the
    # run writer's trace stream is append-safe.
    with store.run_writer(0) as writer:
        writer.add_traces("master", tracer.drain(0))
    db = store_level3(store, tmp_path / "err.db")
    with ExperimentDatabase(db) as dbh:
        records = dbh.run_traces(run_id=0)
    (rec,) = [r for r in records if r["name"] == "fault_revert"]
    assert rec["status"] == "error"
    assert rec["attrs"]["site"] == "stop_all"
    assert "RuntimeError: revert failed" in rec["attrs"]["traceback"]
    assert "raise RuntimeError" in rec["attrs"]["traceback"]
