"""Platform calibration via the echo process (framework generality).

Regenerates: a baseline characterization of the emulated platform —
probe availability and RTT quantiles for a trivial request/response
process — demonstrating at the same time that a *non-SD* process domain
runs through the unchanged master/storage/analysis stack (the generality
the paper claims for ExCovery, proven via the Sec. IV-D2 plugin path).
Measures: wall time of the calibration experiment.
"""

from conftest import print_table, run_once

from repro import ExperiMaster, Level2Store, store_level3
from repro.analysis.stats import summarize
from repro.core.plugins import PluginManager
from repro.platforms.simulated import SimulatedPlatform
from repro.procs.echo import EchoPlugin, build_echo_description, install_echo_agent
from repro.storage.level3 import ExperimentDatabase


def test_echo_platform_calibration(benchmark, workdir):
    desc = build_echo_description(
        name="calibration", seed=12, replications=3,
        probe_rate=20.0, probe_deadline=0.5, measure_seconds=4.0,
    )

    def run_calibration():
        store = Level2Store(workdir / "l2")
        for run_id in range(desc.factors.total_runs()):
            platform = SimulatedPlatform(desc)
            for nm in platform.node_managers.values():
                install_echo_agent(nm)
            plugins = PluginManager(action=[EchoPlugin()])
            ExperiMaster(platform, desc, store, run_id, plugins=plugins).execute()
        return store_level3(store, workdir / "cal.db")

    db_path = run_once(benchmark, run_calibration)
    with ExperimentDatabase(db_path) as db:
        replies = db.events(event_type="echo_reply")
        timeouts = db.events(event_type="echo_timeout")
        rtts = [e["params"][1] for e in replies]
    availability = len(replies) / max(1, len(replies) + len(timeouts))
    s = summarize(rtts)
    print_table(
        "Echo calibration (20 Hz probes, 3 runs x 4 s)",
        "metric            value",
        [
            f"probes answered   {len(replies)}",
            f"probes lost       {len(timeouts)}",
            f"availability      {availability:.3f}",
            f"RTT p50 / p95     {s['p50'] * 1000:.1f} / {s['p95'] * 1000:.1f} ms",
        ],
    )
    assert availability > 0.9
    assert s["p50"] < 0.1  # healthy one-hop-ish mesh
    benchmark.extra_info["availability"] = availability
    benchmark.extra_info["rtt_ms_p50"] = s["p50"] * 1000
