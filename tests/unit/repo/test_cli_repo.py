"""CLI surface of the L4 warehouse (`repro repo`)."""

import sqlite3

from repro.cli import main


def test_repo_ingest_and_list(make_level3, tmp_path, capsys):
    root = tmp_path / "wh"
    db_a = make_level3("alpha")
    db_b = make_level3("beta", t0=40.0)
    assert main(["repo", "ingest", str(root), str(db_a), str(db_b)]) == 0
    out = capsys.readouterr().out
    assert out.count("ingested ") == 2
    assert "warehouse holds 2 experiment(s)" in out

    # Re-ingest is a no-op without --force.
    assert main(["repo", "ingest", str(root), str(db_a)]) == 0
    assert "duplicate of experiment" in capsys.readouterr().out
    assert main(["repo", "ingest", str(root), str(db_a), "--force"]) == 0
    assert "warehouse holds 3 experiment(s)" in capsys.readouterr().out

    assert main(["repo", "list", str(root)]) == 0
    out = capsys.readouterr().out
    assert "alpha" in out and "beta" in out
    assert "3 experiment(s), 2 partition(s)" in out  # forced copy listed too


def test_repo_ingest_isolates_a_corrupt_package(make_level3, tmp_path, capsys):
    root = tmp_path / "wh"
    good_a = make_level3("good_a")
    good_b = make_level3("good_b", t0=40.0)
    corrupt = tmp_path / "corrupt.db"
    corrupt.write_bytes(b"this is not a database")
    argv = ["repo", "ingest", str(root), str(good_a), str(corrupt), str(good_b)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "corrupt.db" in captured.err
    assert f"ingested {good_a} as experiment" in captured.out
    assert f"ingested {good_b} as experiment" in captured.out
    assert "warehouse holds 2 experiment(s)" in captured.out

    assert main(["repo", "list", str(root)]) == 0
    out = capsys.readouterr().out
    assert "good_a" in out and "good_b" in out
    assert "2 experiment(s)" in out

    assert main(["repo", "ingest", str(root), str(good_a), str(good_b)]) == 0
    assert capsys.readouterr().out.count("duplicate of experiment") == 2


def test_repo_query_kinds(make_level3, tmp_path, capsys):
    root = tmp_path / "wh"
    db = make_level3("alpha", n_runs=4)
    assert main(["repo", "ingest", str(root), str(db)]) == 0
    capsys.readouterr()

    assert main(["repo", "query", str(root), "event-counts",
                 "--experiment", "alpha"]) == 0
    assert "sd_service_add" in capsys.readouterr().out

    assert main(["repo", "query", str(root), "faults"]) == 0
    assert "pl" in capsys.readouterr().out

    assert main(["repo", "query", str(root), "responsiveness",
                 "--experiment", "alpha"]) == 0
    assert "t_R median=" in capsys.readouterr().out

    assert main(["repo", "query", str(root), "trend",
                 "--event-type", "sd_service_add"]) == 0
    assert "alpha" in capsys.readouterr().out


def test_repo_diff(make_level3, tmp_path, capsys):
    root = tmp_path / "wh"
    db_a = make_level3("alpha")
    db_b = make_level3("beta", n_runs=4, t0=40.0)
    assert main(["repo", "ingest", str(root), str(db_a), str(db_b)]) == 0
    capsys.readouterr()
    assert main(["repo", "diff", str(root), "alpha", "beta"]) == 0
    out = capsys.readouterr().out
    assert "stats.Runs: 2 -> 4" in out


def test_repo_regression_check_pass_and_drift(make_level3, tmp_path, capsys):
    root = tmp_path / "wh"
    db = make_level3("alpha")
    assert main(["repo", "ingest", str(root), str(db)]) == 0
    capsys.readouterr()

    assert main(["repo", "regression-check", str(root), str(db)]) == 0
    assert "[ok]" in capsys.readouterr().out

    perturbed = tmp_path / "perturbed.db"
    import shutil
    shutil.copy(db, perturbed)
    with sqlite3.connect(perturbed) as conn:
        conn.execute("UPDATE Events SET CommonTime = CommonTime + 3.0 "
                     "WHERE EventType = 'sd_service_add'")
        conn.commit()
    assert main(["repo", "regression-check", str(root), str(perturbed),
                 "--baseline", "alpha"]) == 1
    captured = capsys.readouterr()
    assert "[DRIFT]" in captured.out
    assert "FAILED" in captured.err
