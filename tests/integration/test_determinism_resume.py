"""Integration: the repeatability and recovery claims.

* Two fresh executions of the same description are byte-identical at the
  level-3 Events table (absolute common times included) — Sec. IV-C1's
  "perfect repeatability".
* An execution aborted mid-series and resumed stores byte-identical
  level-3 contents to an uninterrupted one — Sec. VII's "recovers from
  failures by resuming aborted runs".
"""

import json

import pytest

from repro.campaign import CampaignJournal, database_digest, run_campaign
from repro.core.errors import CampaignError, RecoveryError
from repro.sd.processlib import build_two_party_description
from repro.storage.level3 import ExperimentDatabase


def _desc(seed=31):
    return build_two_party_description(
        replications=3, seed=seed, env_count=2,
        special_params={"run_spacing": 0.1},
    )


def _execute(desc, root, resume=False, abort_after=None):
    """The plan as a one-worker campaign — what ``run_experiment`` does."""
    return run_campaign(
        desc, root, db_path=root / "out.db", jobs=1, pool="thread",
        resume=resume, abort_after_runs=abort_after,
    )


def _events_table(root):
    with ExperimentDatabase(root / "out.db") as db:
        return db.events()


def test_fresh_executions_byte_identical(tmp_path):
    desc = _desc()
    _execute(desc, tmp_path / "a")
    _execute(desc, tmp_path / "b")
    ev_a = _events_table(tmp_path / "a")
    ev_b = _events_table(tmp_path / "b")
    assert json.dumps(ev_a, sort_keys=True) == json.dumps(ev_b, sort_keys=True)


def test_different_seed_differs(tmp_path):
    _execute(_desc(seed=31), tmp_path / "a")
    _execute(_desc(seed=32), tmp_path / "b")
    ev_a = _events_table(tmp_path / "a")
    ev_b = _events_table(tmp_path / "b")
    assert json.dumps(ev_a, sort_keys=True) != json.dumps(ev_b, sort_keys=True)


def test_abort_and_resume_completes_all_runs(tmp_path):
    desc = _desc()
    with pytest.raises(CampaignError, match="abort"):
        _execute(desc, tmp_path / "r", abort_after=1)
    result = _execute(desc, tmp_path / "r", resume=True)
    assert sorted(result.skipped_runs) == [0]
    assert sorted(result.executed_runs) == [1, 2]
    assert CampaignJournal(result.campaign_dir).state().complete


def test_resumed_runs_equivalent_to_uninterrupted(tmp_path):
    desc = _desc()
    # Reference: uninterrupted execution.
    _execute(desc, tmp_path / "full")
    # Aborted after one run, then resumed.
    with pytest.raises(CampaignError):
        _execute(desc, tmp_path / "resumed", abort_after=1)
    _execute(desc, tmp_path / "resumed", resume=True)
    # Every run's data is a pure function of (description, run id): the
    # resumed dataset is byte-identical, absolute common times included.
    assert database_digest(tmp_path / "resumed" / "out.db") == database_digest(
        tmp_path / "full" / "out.db")


def test_determinism_across_processes_and_hash_seeds(tmp_path):
    """The strongest repeatability form: two separate Python processes
    with different PYTHONHASHSEED values produce identical event tables.
    Guards against accidental dependence on set/dict iteration order or
    object identity anywhere in the stack."""
    import os
    import subprocess
    import sys
    import textwrap

    script = tmp_path / "det.py"
    script.write_text(textwrap.dedent(
        """
        import hashlib, json, tempfile
        from repro import run_experiment
        from repro.sd.processlib import build_two_party_description
        from repro.storage.level3 import ExperimentDatabase

        desc = build_two_party_description(
            replications=1, seed=55, env_count=2, traffic=True,
            pairs_levels=(2,), bw_levels=(50,),
        )
        result = run_experiment(desc, tempfile.mkdtemp())
        with ExperimentDatabase(result.db_path) as db:
            blob = json.dumps(db.events(), sort_keys=True).encode()
        print(hashlib.sha256(blob).hexdigest())
        """
    ))

    def digest(hash_seed):
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
        out = subprocess.run(
            [sys.executable, str(script)], env=env, capture_output=True,
            text=True, timeout=300, check=True,
        )
        return out.stdout.strip()

    assert digest(1) == digest(424242)


def test_second_execution_without_resume_refused(tmp_path):
    desc = _desc()
    _execute(desc, tmp_path / "x")
    with pytest.raises(RecoveryError, match="already holds a journal"):
        _execute(desc, tmp_path / "x")


def test_resume_completed_experiment_refused(tmp_path):
    desc = _desc()
    _execute(desc, tmp_path / "x")
    with pytest.raises(RecoveryError, match="already completed"):
        _execute(desc, tmp_path / "x", resume=True)


def test_resume_with_changed_description_refused(tmp_path):
    desc = _desc()
    with pytest.raises(CampaignError):
        _execute(desc, tmp_path / "x", abort_after=1)
    changed = _desc()
    changed.comment = "edited since the abort"
    with pytest.raises(RecoveryError, match="description changed"):
        _execute(changed, tmp_path / "x", resume=True)
