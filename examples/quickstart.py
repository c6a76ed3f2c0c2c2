#!/usr/bin/env python3
"""Quickstart: describe, execute, store and analyze one SD experiment.

This walks the full ExCovery workflow of Fig. 3 in ~60 lines of user code:

1. build the abstract experiment description (the Figs. 9/10 two-party
   service discovery scenario, 3 replications),
2. execute it on the emulated wireless-mesh testbed (a one-worker
   campaign: every run in its own kernel, each run's raw data in its own
   level-2 store, conditioned into the level-3 SQLite package of Table I),
3. locate the package and the run's raw level-2 data,
4. query the database: discovery times, responsiveness, and the Fig. 11
   timeline of the first run.

Run:  python examples/quickstart.py
"""

import tempfile
from pathlib import Path

from repro import run_experiment
from repro.analysis.responsiveness import run_outcomes
from repro.analysis.timeline import build_run_timeline
from repro.sd.metrics import responsiveness, summarize_runs
from repro.sd.processlib import build_two_party_description
from repro.storage.level3 import ExperimentDatabase
from repro.viz.describe import describe_description, describe_result
from repro.viz.timeline_art import render_timeline


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="excovery-quickstart-"))

    # 1. The abstract experiment description (storage level 1).
    description = build_two_party_description(
        name="quickstart",
        seed=2014,
        replications=3,
        env_count=3,
        deadline=30.0,
    )
    print(describe_description(description))
    print()

    # 2. Execute on the emulated testbed (platforms, masters, conditioning
    #    and the level-3 merge in one call).
    result = run_experiment(description, workdir / "campaign")
    print(describe_result(result.summary()))
    print()

    # 3. The level-3 package (the Table I database) and the raw data.
    db_path = result.db_path
    print(f"level-3 database: {db_path}")
    print(f"level-2 stores: {result.campaign_dir / 'staging'}")
    print()

    # 4. Analyze.
    with ExperimentDatabase(db_path) as db:
        outcomes = run_outcomes(db)
        print("discovery outcomes per run:")
        for o in outcomes:
            status = f"t_R = {o.t_r:.3f} s" if o.t_r is not None else "MISSED"
            print(f"  run {o.run_id}: {o.su_node} -> {sorted(o.required)}: {status}")
        print()
        print("summary:", summarize_runs(outcomes))
        for deadline in (0.1, 0.5, 2.0):
            print(f"responsiveness R({deadline}s) = "
                  f"{responsiveness(outcomes, deadline):.2f}")
        print()
        print(render_timeline(build_run_timeline(db.events(run_id=0), 0)))


if __name__ == "__main__":
    main()
