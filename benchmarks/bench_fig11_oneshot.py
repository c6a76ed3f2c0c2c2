"""Fig. 11 — visualization of a one-shot discovery process.

Regenerates: the figure itself (as ASCII art): per-actor lanes,
preparation/execution/clean-up phases, the response time t_R between
``sd_start_search`` and ``sd_service_add``.
Measures: timeline extraction + rendering from a stored experiment.
"""


from repro import run_experiment
from repro.analysis.timeline import build_run_timeline
from repro.sd.processlib import build_two_party_description
from repro.storage.level3 import ExperimentDatabase
from repro.viz.timeline_art import render_timeline


def test_fig11_oneshot_timeline(benchmark, workdir):
    # The Fig. 11 scenario: one SM, one SU, a settle delay after the
    # publish event "to let unsolicited announcements of SM1 pass".
    desc = build_two_party_description(
        name="fig11-oneshot", seed=11, replications=1, env_count=2,
        settle_after_publish=3.5,
    )
    db_path = run_experiment(desc, workdir / "campaign").db_path

    with ExperimentDatabase(db_path) as db:
        events = db.events(run_id=0)

        def extract_and_render():
            tl = build_run_timeline(events, 0)
            return tl, render_timeline(tl)

        timeline, art = benchmark(extract_and_render)

    print(f"\n=== Fig. 11: one-shot discovery ===\n{art}")
    assert timeline.t_r is not None and timeline.t_r > 0
    durations = timeline.durations()
    # The settle delay dominates preparation, like the figure shows.
    assert durations["preparation"] > 3.0
    assert durations["execution"] > 0
    assert durations["cleanup"] > 0
    benchmark.extra_info["t_r"] = timeline.t_r
    benchmark.extra_info["phases"] = durations
