"""Integration: the registry/broker discovery family end to end.

Three layers of assertions:

* each scenario variant (direct polling, broker dissemination,
  3-replica gossip) runs end-to-end **from its XML form** and produces
  Table-I-style outcomes;
* churn and population manipulations leave their events in the level-3
  database;
* the determinism invariant extends to the new family: the merged
  level-3 database of the full registry campaign (3 replicas + broker +
  churn + population factors) is byte-identical across ``--jobs 1``,
  ``--jobs 4`` and a 3-worker fleet.
"""

import threading

import pytest

from repro import run_experiment
from repro.analysis.responsiveness import run_outcomes
from repro.campaign import database_digest, run_campaign
from repro.core.xmlio import description_from_xml, description_to_xml
from repro.fabric import FabricCoordinator, FabricWorker
from repro.core.errors import PlatformError
from repro.platforms.simulated import PlatformConfig, SimulatedPlatform
from repro.sd.processlib import build_registry_description
from repro.storage.level3 import ExperimentDatabase


def _config():
    # Registry traffic is unicast; a clean full mesh keeps the scenario
    # assertions about *protocol* behaviour free of loss noise.
    return PlatformConfig(protocol="registry", topology="full", base_loss=0.0)


def _run_from_xml(tmp_path, tag, desc, config=None):
    """XML round-trip the description, execute, return (outcomes, db)."""
    desc = description_from_xml(description_to_xml(desc))
    db_path = run_experiment(desc, tmp_path / tag, config=config or _config()).db_path
    db = ExperimentDatabase(db_path)
    return run_outcomes(db), db


def test_direct_scenario_end_to_end(tmp_path):
    desc = build_registry_description(
        name="registry-direct", seed=41, replications=3, env_count=1
    )
    outcomes, db = _run_from_xml(tmp_path, "direct", desc)
    with db:
        assert len(outcomes) == 3
        assert all(o.complete for o in outcomes)
        assert all(o.t_r is not None and o.t_r < 10.0 for o in outcomes)
        # The provider reached its home registry (scm_found) and the
        # registry accounted the registration.
        assert db.events(event_type="scm_found")
        assert db.events(event_type="scm_registration_add")


def test_registry_nodes_may_be_named_by_platform_node_id():
    """``sd_registry_nodes`` takes abstract ids or platform node ids,
    mixed, in listed order; any other token is refused."""
    desc = build_registry_description(
        name="registry-ids", seed=41, replications=1, env_count=1, registry_count=2
    )
    reg0, reg1 = (desc.platform.for_abstract(a) for a in ("REG0", "REG1"))
    desc.special_params["sd_registry_nodes"] = f"{reg1.node_id}, REG0"
    platform = SimulatedPlatform(desc, _config())
    assert {tuple(a.config["registry_addrs"]) for a in platform.agents.values()} == {
        (reg1.address, reg0.address)
    }

    desc.special_params["sd_registry_nodes"] = "REG0 nowhere"
    with pytest.raises(PlatformError, match="'nowhere' is neither an abstract nor a platform"):
        SimulatedPlatform(desc, _config())


def test_broker_scenario_end_to_end(tmp_path):
    desc = build_registry_description(
        name="registry-broker",
        seed=42,
        replications=3,
        env_count=1,
        broker_count=1,
    )
    outcomes, db = _run_from_xml(tmp_path, "broker", desc)
    with db:
        assert all(o.complete for o in outcomes)
        # Clients subscribed at the relay instead of polling: every run
        # carries the subscription handshake event.
        subscribed = db.events(event_type="sd_subscribed")
        assert {e["run_id"] for e in subscribed} == {o.run_id for o in outcomes}


def test_replicated_gossip_scenario_end_to_end(tmp_path):
    desc = build_registry_description(
        name="registry-gossip",
        seed=43,
        replications=2,
        env_count=1,
        registry_count=3,
        replica_levels=(3,),
        hold_time=6.0,  # > 2 gossip rounds (gossip_interval 2.0 s)
    )
    outcomes, db = _run_from_xml(tmp_path, "gossip", desc)
    with db:
        assert all(o.complete for o in outcomes)
        # With three active replicas only the provider's home replica has
        # the record at first; the first anti-entropy push to either peer
        # must therefore merge real changes.
        syncs = db.events(event_type="scm_gossip_sync")
        assert {e["run_id"] for e in syncs} == {o.run_id for o in outcomes}


def test_churn_and_population_events_recorded(tmp_path):
    desc = build_registry_description(
        name="registry-churn",
        seed=44,
        replications=2,
        env_count=2,
        sm_count=2,
        churn=True,
        churn_interval_levels=(1.5,),
        population=True,
        population_levels=(200,),
        hold_time=6.0,
    )
    outcomes, db = _run_from_xml(tmp_path, "churn", desc)
    with db:
        assert all(o.complete for o in outcomes)
        run_ids = {o.run_id for o in outcomes}
        started = db.events(event_type="env_churn_started")
        assert {e["run_id"] for e in started} == run_ids
        # The hold window is 4x the churn cadence: every run sees churn.
        events = db.events(event_type="env_churn_event")
        assert {e["run_id"] for e in events} == run_ids
        assert {e["params"][1] for e in events} >= {"leave", "rejoin"}
        population = db.events(event_type="env_population_started")
        assert {e["run_id"] for e in population} == run_ids
        for e in population:
            users, total_qps = e["params"][0], e["params"][1]
            assert users == 200
            assert total_qps == pytest.approx(20.0)


# ----------------------------------------------------------------------
# Determinism: --jobs 1 == --jobs 4 == 3-worker fleet, byte for byte
# ----------------------------------------------------------------------
def _campaign_desc():
    """The full-family campaign: broker dissemination over 3 gossiping
    replicas, with churn and population factors in the treatment grid."""
    return build_registry_description(
        name="registry-campaign",
        seed=47,
        replications=2,
        env_count=2,
        sm_count=2,
        registry_count=3,
        broker_count=1,
        replica_levels=(1, 3),
        churn=True,
        churn_interval_levels=(2.0,),
        population=True,
        population_levels=(100,),
        hold_time=5.0,
    )


def _table_i_stats(db_path):
    from repro.sd.metrics import summarize_runs

    with ExperimentDatabase(db_path) as db:
        return summarize_runs(run_outcomes(db))


@pytest.fixture(scope="module")
def jobs1_reference(tmp_path_factory):
    """The serial (``--jobs 1``) campaign every other mode must match."""
    root = tmp_path_factory.mktemp("registry-jobs1")
    result = run_campaign(
        _campaign_desc(),
        root / "campaign",
        db_path=root / "ref.db",
        jobs=1,
        pool="thread",
        config=_config(),
    )
    assert result.failed_runs == {}
    stats = _table_i_stats(root / "ref.db")
    assert stats["runs"] == len(result.plan)
    return database_digest(root / "ref.db"), stats


def test_jobs4_campaign_byte_identical(jobs1_reference, tmp_path):
    ref_digest, ref_stats = jobs1_reference
    result = run_campaign(
        _campaign_desc(),
        tmp_path / "campaign",
        db_path=tmp_path / "jobs4.db",
        jobs=4,
        pool="thread",
        config=_config(),
    )
    assert result.failed_runs == {}
    assert database_digest(tmp_path / "jobs4.db") == ref_digest
    assert _table_i_stats(tmp_path / "jobs4.db") == ref_stats


def _spawn_worker(address, workdir, worker_id):
    worker = FabricWorker(
        address,
        worker_id,
        workdir,
        capacity=2,
        poll_interval=0.1,
        reconnect_budget=30.0,
    )
    thread = threading.Thread(
        target=worker.run_forever, daemon=True, name=f"fleet-{worker_id}"
    )
    thread.start()
    return worker, thread


def test_three_worker_fleet_byte_identical(jobs1_reference, tmp_path):
    ref_digest, ref_stats = jobs1_reference
    coordinator = FabricCoordinator(
        _campaign_desc(),
        tmp_path / "campaign",
        port=0,
        batch_size=2,
        lease_ttl=10.0,
        config=_config(),
    )
    with coordinator:
        workers = [
            _spawn_worker(coordinator.address, tmp_path / f"w{i}", f"w{i}")
            for i in range(3)
        ]
        result = coordinator.run_until_complete(
            db_path=tmp_path / "fleet.db",
            timeout=240.0,
        )
        for _, thread in workers:
            thread.join(timeout=10.0)
    assert result.pool == "fleet"
    assert result.failed_runs == {}
    assert database_digest(tmp_path / "fleet.db") == ref_digest
    assert _table_i_stats(tmp_path / "fleet.db") == ref_stats
