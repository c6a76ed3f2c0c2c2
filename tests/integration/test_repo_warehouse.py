"""Integration: campaigns flowing into the L4 warehouse.

* A real campaign's level-3 database round-trips through ``repro repo
  ingest`` and the materialized read models answer the same questions as
  the canonical analysis over the source database.
* ``repro repo diff`` and ``repro repo regression-check`` drive the
  drift-detection path end to end from the CLI.
* An ingest killed mid-flight (``os._exit`` inside an attach group's
  transaction, after a copy and before the commit) resumes on the next
  warehouse open with no duplicate and no missing experiments.
"""

import os
import shutil
import sqlite3
import subprocess
import sys

import pytest

from repro.campaign import run_campaign
from repro.cli import main as cli_main
from repro.repo import Warehouse
from repro.sd.processlib import build_two_party_description
from repro.storage.level3 import ExperimentDatabase

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))


def _campaign_db(root, name, seed, replications=4):
    desc = build_two_party_description(
        name=name, seed=seed, replications=replications, env_count=1,
    )
    db_path = root / f"{name}.db"
    run_campaign(desc, root / f"{name}-campaign", db_path=db_path,
                 jobs=1, pool="thread")
    return db_path


@pytest.fixture(scope="module")
def campaign_dbs(tmp_path_factory):
    root = tmp_path_factory.mktemp("repo-it")
    return (_campaign_db(root, "wh-a", seed=31),
            _campaign_db(root, "wh-b", seed=47))


def test_campaign_ingest_query_diff_regression(campaign_dbs, tmp_path,
                                               capsys):
    db_a, db_b = campaign_dbs
    root = tmp_path / "wh"

    assert cli_main(["repo", "ingest", str(root),
                     str(db_a), str(db_b)]) == 0
    assert "warehouse holds 2 experiment(s)" in capsys.readouterr().out

    assert cli_main(["repo", "query", str(root), "responsiveness",
                     "--experiment", "wh-a"]) == 0
    assert "t_R median=" in capsys.readouterr().out

    assert cli_main(["repo", "diff", str(root), "wh-a", "wh-b"]) == 0
    capsys.readouterr()

    # The archived package is its own baseline: no drift.
    assert cli_main(["repo", "regression-check", str(root), str(db_a)]) == 0
    assert "regression check passed" in capsys.readouterr().out

    # A perturbed Table-I digest is flagged.
    perturbed = tmp_path / "perturbed.db"
    shutil.copy(db_a, perturbed)
    with sqlite3.connect(perturbed) as conn:
        conn.execute("UPDATE Events SET CommonTime = CommonTime + 2.0 "
                     "WHERE EventType = 'sd_service_add'")
        conn.commit()
    assert cli_main(["repo", "regression-check", str(root), str(perturbed),
                     "--baseline", "wh-a"]) == 1
    assert "[DRIFT]" in capsys.readouterr().out
    # ... unless a tolerance admits the aggregates' drift.
    assert cli_main(["repo", "regression-check", str(root), str(perturbed),
                     "--baseline", "wh-a", "--tol", "100"]) == 0
    assert "regression check passed" in capsys.readouterr().out


def test_warehouse_models_match_canonical_analysis(campaign_dbs, tmp_path):
    from repro.analysis.responsiveness import responsiveness_by_treatment

    db_a, _ = campaign_dbs
    with Warehouse(tmp_path / "wh") as warehouse:
        exp_id = warehouse.ingest(db_a).exp_id
        surface = warehouse.responsiveness_surface(exp_id=exp_id)
        view = warehouse.view(exp_id)
        with ExperimentDatabase(db_a) as level3:
            canonical = responsiveness_by_treatment(level3, deadlines=[1.0])
            assert view.events() == level3.events()
            assert view.packets() == level3.packets()
    assert [(r["runs"], r["complete"], r["t_r_median"], r["t_r_mean"])
            for r in surface] == \
        [(c["summary"]["runs"], c["summary"]["complete"],
          c["summary"]["t_r_median"], c["summary"]["t_r_mean"])
         for c in canonical]


_KILL_SCRIPT = """
import os, sys

import repro.repo.shard as shard_mod

calls = []
original = shard_mod.refresh_experiment_views

def crashing_refresh(conn, exp_id):
    calls.append(exp_id)
    if len(calls) >= 2:
        os._exit(9)
    return original(conn, exp_id)

shard_mod.refresh_experiment_views = crashing_refresh

from repro.repo import Warehouse

warehouse = Warehouse(sys.argv[1])
warehouse.ingest_many(sys.argv[2:])
os._exit(1)  # unreachable: the crash fires first
"""


def test_kill_mid_ingest_resumes_without_duplicates(campaign_dbs, tmp_path):
    db_a, db_b = campaign_dbs
    root = tmp_path / "wh"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")

    proc = subprocess.run(
        [sys.executable, "-c", _KILL_SCRIPT, str(root), str(db_a), str(db_b)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 9, proc.stderr

    with Warehouse(root) as warehouse:
        report = warehouse.last_recovery
        assert any(report.values()), report
        experiments = warehouse.experiments()
        digests = [e["ContentDigest"] for e in experiments]
        assert sorted(digests) == sorted(set(digests))  # no duplicates
        assert len(experiments) == 2  # nothing missing
        # Recovered copies are faithful, not torn.
        for exp, src in zip(experiments, (db_a, db_b)):
            view = warehouse.view(exp["ExpID"])
            with ExperimentDatabase(src) as level3:
                assert view.events() == level3.events()
                assert view.run_ids() == level3.run_ids()
        # Re-offering the same packages is a pure no-op.
        results = warehouse.ingest_many([db_a, db_b])
        assert all(r.duplicate for r in results)
        assert len(warehouse.experiments()) == 2
