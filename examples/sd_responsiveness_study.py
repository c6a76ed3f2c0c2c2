#!/usr/bin/env python3
"""The paper's case study: SD responsiveness under generated network load.

Reproduces the Sec. V/VI experiment with the Fig. 5 factorial design —
``fact_pairs`` traffic pairs x ``fact_bw`` kbit/s per pair — on the
emulated wireless mesh, then reports responsiveness per treatment the way
the companion studies ([25], [26]) tabulate it.

The paper runs 1000 replications per treatment on the DES testbed; this
example scales to 10 per treatment so it finishes in seconds.  Pass a
number to override:  python examples/sd_responsiveness_study.py 50
"""

import sys
import tempfile
from pathlib import Path

from repro import run_experiment
from repro.analysis.responsiveness import responsiveness_by_treatment
from repro.platforms.simulated import PlatformConfig
from repro.sd.processlib import build_two_party_description
from repro.storage.level3 import ExperimentDatabase


def main(replications: int = 10) -> None:
    workdir = Path(tempfile.mkdtemp(prefix="excovery-responsiveness-"))

    description = build_two_party_description(
        name="responsiveness-study",
        seed=42,
        replications=replications,
        env_count=6,
        deadline=10.0,
        traffic=True,                   # the Fig. 7 environment process
        pairs_levels=(2, 6),            # scaled-down Fig. 5 levels
        bw_levels=(10, 100, 150, 200),
        # Let the generated load establish before the SU starts searching
        # (the Fig. 11 preparation-phase settle delay) — otherwise the
        # sub-100ms discovery races ahead of the first CBR packets.
        settle_after_publish=2.0,
        special_params={"run_spacing": 0.1, "max_run_duration": 30.0},
    )
    total = description.factors.total_runs()
    print(f"{total} runs ({description.factors.treatment_count()} treatments "
          f"x {replications} replications) ...")

    config = PlatformConfig(
        topology="mesh",
        mesh_radius=0.5,
        base_loss=0.05,
    )
    result = run_experiment(description, workdir / "campaign", config=config)
    print(f"executed {len(result.executed_runs)} runs "
          f"({len(result.timed_out_runs)} hit the run backstop)")

    with ExperimentDatabase(result.db_path) as db:
        rows = responsiveness_by_treatment(db, deadlines=(0.2, 1.0, 5.0))

    header = f"{'pairs':>5} {'bw':>5} {'runs':>5} {'median t_R':>11} " \
             f"{'R(0.2s)':>8} {'R(1s)':>8} {'R(5s)':>8}"
    print()
    print(header)
    print("-" * len(header))
    for row in rows:
        t = row["treatment"]
        s = row["summary"]
        median = f"{s['t_r_median']:.3f}s" if s["t_r_median"] is not None else "-"
        print(
            f"{t.get('fact_pairs', '-'):>5} {t.get('fact_bw', '-'):>5} "
            f"{row['runs']:>5} {median:>11} "
            f"{row['R(0.2s)']['p']:>8.2f} {row['R(1s)']['p']:>8.2f} "
            f"{row['R(5s)']['p']:>8.2f}"
        )
    print()
    print("expected shape: responsiveness decreases (and median t_R grows)")
    print("as pairs x bandwidth load the shared medium.")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 10)
