#!/usr/bin/env python3
"""Crash recovery and the level-4 warehouse.

Demonstrates two framework features around the experiment *series*:

1. **Recovery** (Sec. VII): a series is aborted after a few runs
   (simulating a crash), then resumed from the journal; the series
   completes without re-executing finished runs, and stores the same
   bytes as an uninterrupted series.
2. **Level-4 warehouse** (Sec. IV-F — the paper's unrealized fourth
   storage level): two experiments with different seeds are ingested into
   one :class:`repro.repo.Warehouse` and compared.

Run:  python examples/resume_and_repository.py
"""

import tempfile
from pathlib import Path

from repro.campaign import run_campaign
from repro.core.errors import CampaignError
from repro.repo import Warehouse
from repro.sd.processlib import build_two_party_description


def execute(desc, root, db_path=None, resume=False, abort_after=None):
    """The series as a one-worker campaign (what ``repro run`` does)."""
    return run_campaign(
        desc, root, db_path=db_path, jobs=1, pool="thread",
        resume=resume, abort_after_runs=abort_after,
    )


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="excovery-resume-"))

    # ------------------------------------------------------------------
    # 1. Abort and resume.
    # ------------------------------------------------------------------
    desc = build_two_party_description(
        name="recovery-demo", seed=99, replications=5, env_count=2,
    )
    print(f"experiment: {desc.factors.total_runs()} runs planned")
    try:
        execute(desc, workdir / "series", abort_after=2)
    except CampaignError as exc:
        print(f"crash simulated: {exc}")

    db_a = workdir / "exp-seed99.db"
    result = execute(desc, workdir / "series", db_path=db_a, resume=True)
    print(f"resumed: skipped runs {result.skipped_runs}, "
          f"executed runs {result.executed_runs}")
    assert result.skipped_runs == [0, 1]
    assert result.executed_runs == [2, 3, 4]

    # ------------------------------------------------------------------
    # 2. A second experiment, then the level-4 warehouse.
    # ------------------------------------------------------------------
    desc_b = build_two_party_description(
        name="recovery-demo-seed7", seed=7, replications=5, env_count=2,
    )
    db_b = workdir / "exp-seed7.db"
    execute(desc_b, workdir / "series-b", db_path=db_b)

    with Warehouse(workdir / "warehouse") as warehouse:
        id_a = warehouse.ingest(db_a).exp_id
        id_b = warehouse.ingest(db_b).exp_id
        print(f"\nwarehouse: {workdir / 'warehouse'}")
        for exp in warehouse.experiments():
            print(f"  #{exp['ExpID']}: {exp['Name']} "
                  f"({len(warehouse.run_ids(exp['ExpID']))} runs)")
        counts = {row["name"]: row["n"] for row in warehouse.trend("sd_service_add")}
        print(f"cross-experiment comparison, sd_service_add events: {counts}")
        # Per-experiment discovery times straight from the warehouse.
        for exp_id, name in ((id_a, desc.name), (id_b, desc_b.name)):
            adds = warehouse.events(exp_id, event_type="sd_service_add")
            searches = warehouse.events(exp_id, event_type="sd_start_search")
            start = {e["run_id"]: e["common_time"] for e in searches}
            t_rs = sorted(
                e["common_time"] - start[e["run_id"]]
                for e in adds if e["run_id"] in start
            )
            print(f"  {name}: median t_R = {t_rs[len(t_rs) // 2]:.3f} s "
                  f"over {len(t_rs)} discoveries")


if __name__ == "__main__":
    main()
