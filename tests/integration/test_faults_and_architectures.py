"""Integration: fault injection effects and architecture comparison.

These tests assert the *qualitative shapes* the case study predicts:
message loss delays discovery along the mDNS retry schedule; an interface
fault during the deadline window makes discovery fail; the three-party
and hybrid architectures complete the same task.
"""


from repro import run_experiment
from repro.analysis.responsiveness import run_outcomes
from repro.core.description import ManipulationProcess
from repro.core.processes import DomainAction
from repro.platforms.simulated import PlatformConfig
from repro.sd.processlib import (
    build_three_party_description,
    build_two_party_description,
)
from repro.storage.level3 import ExperimentDatabase


def _median_t_r(tmp_path, tag, desc, config=None):
    result = run_experiment(desc, tmp_path / tag, config=config)
    db_path = result.db_path
    with ExperimentDatabase(db_path) as db:
        outcomes = run_outcomes(db)
    times = sorted(o.t_r for o in outcomes if o.t_r is not None)
    return outcomes, (times[len(times) // 2] if times else None)


def _loss_manipulation(probability, target_actor="actor1"):
    return ManipulationProcess(
        actor_id=target_actor,
        actions=[
            DomainAction(
                name="msg_loss_start",
                params={"probability": probability, "direction": "both"},
            )
        ],
    )


def test_message_loss_slows_discovery(tmp_path):
    # Two nodes only: on a denser mesh, flooding delivers redundant copies
    # of every multicast and each copy rolls the loss dice independently,
    # which (realistically) masks even heavy per-packet loss.  Announcements
    # are disabled so discovery must go query -> response, making the retry
    # schedule the observable.
    config = PlatformConfig(sd_config={"announce_count": 0})
    clean = build_two_party_description(replications=8, seed=21, env_count=0)
    outcomes, t_clean = _median_t_r(tmp_path, "clean", clean, config)
    assert all(o.complete for o in outcomes)
    assert t_clean < 0.5

    lossy = build_two_party_description(replications=8, seed=21, env_count=0)
    lossy.manipulations.append(_loss_manipulation(0.5))
    outcomes_lossy, t_lossy = _median_t_r(tmp_path, "lossy", lossy, config)
    # 50% loss each way means a query round trip succeeds 1 time in 4;
    # the back-off schedule (1 s, 2 s, 4 s, ...) dominates the median.
    assert t_lossy is not None
    assert t_lossy > t_clean
    assert t_lossy > 0.5  # at least one ~1 s retry interval was needed


def test_flooding_redundancy_masks_loss(tmp_path):
    """The flip side, asserted deliberately: with environment nodes
    re-flooding multicast, the same loss probability barely hurts."""
    lossy = build_two_party_description(replications=4, seed=21, env_count=3)
    lossy.manipulations.append(_loss_manipulation(0.7))
    outcomes, t_med = _median_t_r(tmp_path, "flood", lossy)
    assert all(o.complete for o in outcomes)
    assert t_med < 1.0


def test_interface_fault_window_blocks_discovery(tmp_path):
    desc = build_two_party_description(
        replications=3, seed=22, env_count=2, deadline=3.0
    )
    desc.manipulations.append(
        ManipulationProcess(
            actor_id="actor1",
            actions=[
                DomainAction(
                    name="iface_fault_start",
                    params={"direction": "both", "duration": 60.0},
                ),
            ],
        )
    )
    result = run_experiment(desc, tmp_path / "dead")
    db_path = result.db_path
    with ExperimentDatabase(db_path) as db:
        outcomes = run_outcomes(db)
        assert all(not o.complete for o in outcomes)
        # The SU's own deadline fired and it still cleaned up properly.
        assert len(db.events(event_type="wait_timeout")) == 3
        assert len(db.events(event_type="sd_exit_done")) > 0


def test_fault_events_recorded(tmp_path):
    desc = build_two_party_description(replications=1, seed=23, env_count=2)
    desc.manipulations.append(_loss_manipulation(0.2))
    result = run_experiment(desc, tmp_path / "ev")
    db_path = result.db_path
    with ExperimentDatabase(db_path) as db:
        assert db.events(event_type="fault_msg_loss_started")


def test_three_party_slp_completes(tmp_path):
    desc = build_three_party_description(replications=2, seed=24, env_count=2)
    outcomes, t_med = _median_t_r(
        tmp_path, "slp", desc, PlatformConfig(protocol="slp")
    )
    assert all(o.complete for o in outcomes)
    assert t_med is not None and t_med < 30.0


def test_three_party_registration_visible(tmp_path):
    desc = build_three_party_description(replications=1, seed=25, env_count=2)
    result = run_experiment(
        desc, tmp_path / "reg", config=PlatformConfig(protocol="slp")
    )
    db_path = result.db_path
    with ExperimentDatabase(db_path) as db:
        assert db.events(event_type="scm_started")
        assert db.events(event_type="scm_found")
        assert db.events(event_type="scm_registration_add")


def test_hybrid_protocol_two_party_scenario(tmp_path):
    desc = build_two_party_description(replications=2, seed=26, env_count=2)
    outcomes, _ = _median_t_r(
        tmp_path, "hyb", desc, PlatformConfig(protocol="hybrid")
    )
    assert all(o.complete for o in outcomes)


def test_multiple_sms_and_sus(tmp_path):
    desc = build_two_party_description(
        sm_count=2, su_count=2, replications=2, seed=27, env_count=2
    )
    result = run_experiment(desc, tmp_path / "multi")
    db_path = result.db_path
    with ExperimentDatabase(db_path) as db:
        outcomes = run_outcomes(db)
        # Two SUs per run, each needing both SMs.
        assert len(outcomes) == 4
        assert all(o.complete for o in outcomes)
        assert all(len(o.required) == 2 for o in outcomes)
