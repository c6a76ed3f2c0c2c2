"""Differential property: one run model, one dataset per (description, seed).

Sec. IV-C1 claims perfect repeatability: the same description and seed
give the same data.  A run's data is a pure function of (description, run
id), so however the plan's runs are dispatched — one worker, two threaded
workers, a campaign aborted after its first run and resumed, or
``run_experiment`` / ``repro run`` (one-worker campaigns) — the merged
Table-I digest must be one value.  Descriptions come from
``test_execution_robustness.random_descriptions`` (terminating actions,
flags, timed event waits, message-loss faults, environment processes),
with at least two replications so that every arm executes a run after
the first.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import run_experiment
from repro.campaign import database_digest, run_campaign
from repro.cli import main
from repro.core.errors import CampaignError
from repro.core.factors import ReplicationFactor
from repro.core.xmlio import description_to_xml
from repro.platforms.simulated import PlatformConfig
from repro.sd.processlib import build_two_party_description

from tests.property.test_execution_robustness import random_descriptions


@st.composite
def multi_run_descriptions(draw):
    desc = draw(random_descriptions())
    desc.factors.replication = ReplicationFactor(count=draw(st.integers(2, 3)))
    return desc


CONFIG = PlatformConfig(topology="full")


def _campaign_digest(desc, root, **kwargs):
    result = run_campaign(desc, root, db_path=root / "out.db", config=CONFIG, **kwargs)
    return database_digest(result.db_path)


@given(desc=multi_run_descriptions())
@settings(
    max_examples=10, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large,
                           HealthCheck.function_scoped_fixture],
)
def test_every_dispatch_of_a_description_stores_one_dataset(tmp_path_factory, desc):
    root = tmp_path_factory.mktemp("run-model")
    serial = _campaign_digest(desc, root / "jobs1", jobs=1, pool="thread")
    assert _campaign_digest(desc, root / "jobs2", jobs=2, pool="thread") == serial

    with pytest.raises(CampaignError, match="abort_after_runs"):
        run_campaign(desc, root / "resumed", jobs=1, pool="thread", config=CONFIG,
                     abort_after_runs=1)
    assert _campaign_digest(desc, root / "resumed", jobs=1, pool="thread",
                            resume=True) == serial

    result = run_experiment(desc, root / "run-experiment", config=CONFIG)
    assert database_digest(result.db_path) == serial


def test_run_experiment_repro_run_and_campaigns_store_one_dataset(tmp_path):
    """Every run starts its own kernel timeline whichever entry point runs
    it: run 1 of this description starts at 0.007 s of common time, never
    where run 0 ended (0.945 s)."""
    desc = build_two_party_description(replications=3, seed=7)
    digests = {
        "run_experiment": database_digest(run_experiment(desc, tmp_path / "api").db_path),
    }
    xml = tmp_path / "exp.xml"
    xml.write_text(description_to_xml(desc), encoding="utf-8")
    cli_db = tmp_path / "cli.db"
    assert main(["run", str(xml), "--dir", str(tmp_path / "cli"), "--db", str(cli_db),
                 "--quiet"]) == 0
    digests["repro run"] = database_digest(cli_db)
    for jobs in (1, 2):
        root = tmp_path / f"jobs{jobs}"
        result = run_campaign(desc, root, db_path=root / "out.db", jobs=jobs, pool="thread")
        digests[f"jobs={jobs}"] = database_digest(result.db_path)
    assert len(set(digests.values())) == 1, digests
