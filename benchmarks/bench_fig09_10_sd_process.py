"""Figs. 9 + 10 — the two-party SD processes, executed verbatim.

Regenerates: the event choreography of the publisher (Fig. 9) and the
requester (Fig. 10) actor descriptions, parsed from the paper's XML and
executed on the emulated testbed.
Measures: wall time of the complete experiment (every run, all phases).
"""

from conftest import print_table, run_once

from repro import ExperiMaster, Level2Store
from repro.core.xmlio import description_from_xml
from repro.paper import full_paper_experiment_xml
from repro.platforms.simulated import SimulatedPlatform

XML = full_paper_experiment_xml(replications=1, seed=5)


def test_fig09_10_processes_execute(benchmark, workdir):
    def run_all():
        desc = description_from_xml(XML)
        masters = []
        for run_id in range(desc.factors.total_runs()):
            platform = SimulatedPlatform(desc)
            masters.append(ExperiMaster(platform, desc, Level2Store(workdir / "l2"), run_id))
            masters[-1].execute()
        return masters

    masters = run_once(benchmark, run_all)
    assert len(masters) == 6
    master = masters[0]

    su_events = [
        e.name for e in master.bus.log if e.node == "t9-108" and e.run_id == 0
    ]
    sm_events = [
        e.name for e in master.bus.log if e.node == "t9-105" and e.run_id == 0
    ]
    print_table(
        "Figs. 9/10: event choreography of run 0",
        "role  events",
        [f"SM    {' -> '.join(sm_events)}",
         f"SU    {' -> '.join(su_events)}"],
    )
    # Fig. 9: publisher lifecycle in order.
    for expected in ("sd_init_done", "sd_start_publish", "sd_stop_publish",
                     "sd_exit_done"):
        assert expected in sm_events
    assert sm_events.index("sd_start_publish") < sm_events.index("sd_stop_publish")
    # Fig. 10: requester lifecycle, discovery before the done flag.
    assert su_events.index("sd_service_add") < su_events.index("done")
    assert su_events.index("sd_start_search") < su_events.index("sd_service_add")
    benchmark.extra_info["runs"] = len(masters)
