"""Integration: the echo process domain — framework generality.

Demonstrates (and pins) the extension path of Secs. IV-B/IV-D2: a new
process domain registered purely through the plugin/handler machinery,
executing through the unchanged master, storage and analysis layers.
"""


from repro import Level2Store, store_level3
from repro.core.description import ManipulationProcess
from repro.core.plan import generate_plan
from repro.core.plugins import PluginManager
from repro.core.processes import DomainAction
from repro.core.validation import validate_description
from repro.platforms.simulated import SimulatedPlatform
from repro.procs.echo import EchoPlugin, build_echo_description, install_echo_agent
from repro.storage.level3 import ExperimentDatabase

from tests.conftest import execute_run


def _execute(desc, root, config=None):
    """Every run on its own echo-equipped platform, into one level-2 store."""
    for run in generate_plan(desc.factors, desc.seed):
        platform = SimulatedPlatform(desc, config)
        for nm in platform.node_managers.values():
            install_echo_agent(nm)
        plugins = PluginManager(action=[EchoPlugin()])
        execute_run(desc, root, run.run_id, platform=platform, plugins=plugins)
    return Level2Store(root)


def test_echo_description_validates_with_plugin():
    from repro.core.actions import default_registry

    desc = build_echo_description(replications=1)
    registry = default_registry()
    PluginManager(action=[EchoPlugin()]).extend_registry(registry)
    report = validate_description(desc, registry)
    assert report.ok, report.errors


def test_echo_description_rejected_without_plugin():
    desc = build_echo_description(replications=1)
    report = validate_description(desc)
    assert any("echo_init" in e for e in report.errors)


def test_echo_availability_run(tmp_path):
    desc = build_echo_description(
        replications=2, probe_rate=10.0, measure_seconds=3.0, seed=5,
    )
    store = _execute(desc, tmp_path / "echo")
    assert store.run_ids() == [0, 1]
    db_path = store_level3(store, tmp_path / "echo.db")
    with ExperimentDatabase(db_path) as db:
        for run_id in db.run_ids():
            replies = db.events(run_id=run_id, event_type="echo_reply")
            timeouts = db.events(run_id=run_id, event_type="echo_timeout")
            # ~30 probes in 3 s at 10 Hz on a healthy mesh: nearly all answered.
            assert len(replies) >= 20
            assert len(timeouts) <= len(replies) * 0.2
            # RTT parameters recorded with each reply.
            rtts = [e["params"][1] for e in replies]
            assert all(0.0 < r < 0.5 for r in rtts)
        # The client's lifecycle events came through the generic machinery.
        names = [e["name"] for e in db.events(run_id=0, node_id="echo-cli")]
        for expected in ("echo_init_done", "echo_start", "echo_stop",
                         "echo_exit_done", "done"):
            assert expected in names


def test_echo_under_interface_fault_loses_probes(tmp_path):
    desc = build_echo_description(
        replications=1, probe_rate=10.0, measure_seconds=4.0, seed=6,
    )
    # Kill the server's radio for the middle of the run.
    desc.manipulations.append(
        ManipulationProcess(
            actor_id="server",
            actions=[DomainAction(
                name="iface_fault_start",
                params={"direction": "both", "duration": 6.0, "rate": 0.4,
                        "randomseed": 3},
            )],
        )
    )
    db_path = store_level3(_execute(desc, tmp_path / "echo-fault"), tmp_path / "echo-fault.db")
    with ExperimentDatabase(db_path) as db:
        replies = db.events(event_type="echo_reply")
        timeouts = db.events(event_type="echo_timeout")
        assert timeouts, "the fault window must cost probes"
        assert replies, "outside the window, probes still succeed"
        # The timeouts cluster inside the fault's activation window.
        window_start = db.events(event_type="fault_iface_fault_started")[0]
        _kind, active_from, active_until = window_start["params"]
        for t in timeouts:
            probe_time = t["common_time"] - 0.5  # deadline before the event
            assert probe_time >= active_from - 0.6


def test_echo_deterministic(tmp_path):
    import json

    def events_of(root):
        desc = build_echo_description(replications=1, measure_seconds=2.0, seed=9)
        db_path = store_level3(_execute(desc, root), root / "db.sqlite")
        with ExperimentDatabase(db_path) as db:
            return json.dumps(db.events(), sort_keys=True)

    assert events_of(tmp_path / "a") == events_of(tmp_path / "b")
