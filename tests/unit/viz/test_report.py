"""Unit tests for the markdown experiment report."""

import pytest

from repro import run_experiment
from repro.cli import main
from repro.sd.processlib import build_two_party_description
from repro.storage.level3 import ExperimentDatabase
from repro.viz.report import experiment_report


@pytest.fixture(scope="module")
def db_path(tmp_path_factory):
    root = tmp_path_factory.mktemp("report")
    desc = build_two_party_description(
        name="report-test", seed=77, replications=2, env_count=2,
    )
    return run_experiment(desc, root / "c").db_path


def test_report_sections_present(db_path):
    with ExperimentDatabase(db_path) as db:
        text = experiment_report(db)
    assert "# Experiment report: report-test" in text
    assert "## Informative parameters" in text
    assert "`sd_architecture` = two-party" in text
    assert "## Discovery results" in text
    assert "complete: 2/2" in text
    assert "## Clock synchronization quality" in text
    assert "measured node offsets" in text
    assert "## Packet-level statistics" in text
    assert "## Timeline of run 0" in text
    assert "t_R" in text


def test_report_responsiveness_table(db_path):
    with ExperimentDatabase(db_path) as db:
        text = experiment_report(db, deadlines=(1.0,))
    assert "R(1s)" in text
    assert "| 1.00 |" in text  # everything discovered within a second


def test_report_without_timeline(db_path):
    with ExperimentDatabase(db_path) as db:
        text = experiment_report(db, timeline_run=None)
    assert "## Timeline" not in text


def test_report_cli_stdout(db_path, capsys):
    assert main(["report", str(db_path)]) == 0
    out = capsys.readouterr().out
    assert "# Experiment report: report-test" in out


def test_report_cli_renders_the_chosen_run(db_path, capsys):
    assert main(["report", str(db_path), "--run", "1"]) == 0
    out = capsys.readouterr().out
    assert "## Timeline of run 1" in out and "## Timeline of run 0" not in out


def test_report_cli_to_file(db_path, tmp_path, capsys):
    out_file = tmp_path / "report.md"
    assert main(["report", str(db_path), "--out", str(out_file)]) == 0
    assert "report written" in capsys.readouterr().out
    assert "## Discovery results" in out_file.read_text()
