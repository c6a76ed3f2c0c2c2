#!/usr/bin/env python3
"""Experiment design study: custom treatment plans and convergence.

Sec. II grounds ExCovery in design-of-experiments methodology; Sec. IV-C1
lets a description override the default OFAT expansion with a *custom
factor level variation plan*.  This example:

1. builds the same discovery-under-load factor structure three ways —
   default OFAT, completely randomized, and blocked by bandwidth — and
   prints the resulting run sequences side by side,
2. executes the completely randomized design,
3. applies the replication-convergence analysis (Sec. II-A3): how many
   replications the responsiveness estimate actually needed.

Run:  python examples/experiment_design_study.py
"""

import tempfile
from pathlib import Path

from repro.analysis.convergence import (
    replications_to_converge,
    running_responsiveness,
)
from repro.analysis.responsiveness import run_outcomes
from repro.core.designs import (
    completely_randomized_design,
    randomized_complete_block_design,
)
from repro.campaign import run_campaign
from repro.core.plan import generate_plan
from repro.sd.processlib import build_two_party_description
from repro.storage.level3 import ExperimentDatabase

REPLICATIONS = 4


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="excovery-design-"))
    desc = build_two_party_description(
        name="design-study", seed=33, replications=1, env_count=4,
        traffic=True, pairs_levels=(2, 4), bw_levels=(10, 100),
    )
    fl = desc.factors

    # ------------------------------------------------------------------
    # 1. Three treatment plans over the same factors.
    # ------------------------------------------------------------------
    def sequence(plan):
        return [
            f"({r.treatment['fact_pairs']},{r.treatment['fact_bw']})"
            for r in plan
        ]

    ofat = generate_plan(fl, desc.seed)
    crd = generate_plan(
        fl, desc.seed,
        custom_treatments=completely_randomized_design(
            fl, seed=desc.seed, replications=REPLICATIONS
        ),
    )
    rcbd = generate_plan(
        fl, desc.seed,
        custom_treatments=randomized_complete_block_design(
            fl, "fact_bw", seed=desc.seed
        ),
    )
    print("treatment sequences (pairs, bw):")
    print(f"  OFAT (default):        {' '.join(sequence(ofat))}")
    print(f"  completely randomized: {' '.join(sequence(crd)[:12])} ...")
    print(f"  blocked by fact_bw:    {' '.join(sequence(rcbd))}")
    print()

    # ------------------------------------------------------------------
    # 2. Execute the randomized design.
    # ------------------------------------------------------------------
    # Two nodes, announcements off, 50% loss on the SU: discovery hinges
    # on lossy query/response exchanges against a 3 s deadline, so the
    # responsiveness estimate has real variance to converge over.
    desc_crd = build_two_party_description(
        name="design-study-crd", seed=33, replications=1, env_count=0,
        pairs_levels=(2, 4), bw_levels=(10, 100), traffic=False,
        deadline=3.0,
        special_params={"run_spacing": 0.1},
    )
    # Re-attach the swept factors (traffic=False drops them) so the
    # custom design has something to vary; they are inert without the
    # traffic process but keep the plan structure of part 1.
    from repro.core.description import ManipulationProcess
    from repro.core.factors import Factor, Level, Usage
    from repro.core.processes import DomainAction

    for fid, levels in (("fact_pairs", (2, 4)), ("fact_bw", (10, 100))):
        if fid not in desc_crd.factors:
            desc_crd.factors.add(
                Factor(id=fid, type="int", usage=Usage.CONSTANT,
                       levels=[Level(v) for v in levels])
            )
    desc_crd.manipulations.append(
        ManipulationProcess(
            actor_id="actor1",
            actions=[DomainAction(
                name="msg_loss_start",
                params={"probability": 0.5, "direction": "both"},
            )],
        )
    )
    custom = completely_randomized_design(
        desc_crd.factors, seed=33, replications=REPLICATIONS
    )
    from repro.platforms.simulated import PlatformConfig

    result = run_campaign(
        desc_crd, workdir / "campaign", db_path=workdir / "design.db", jobs=1,
        pool="thread", config=PlatformConfig(sd_config={"announce_count": 0}),
        custom_treatments=custom,
    )
    print(f"executed {len(result.executed_runs)} runs in completely "
          f"randomized order")

    with ExperimentDatabase(result.db_path) as db:
        outcomes = run_outcomes(db)

    # ------------------------------------------------------------------
    # 3. Convergence of the responsiveness estimate.
    # ------------------------------------------------------------------
    deadline = 3.0  # the SU's own search deadline
    series = running_responsiveness(outcomes, deadline)
    settle = replications_to_converge(outcomes, deadline, tolerance=0.1)
    print()
    print(f"running responsiveness estimate, R({deadline:g}s):")
    for point in series:
        bar = "#" * int(point["p"] * 30)
        print(f"  n={point['n']:>2}  p={point['p']:.2f} "
              f"[{point['ci_low']:.2f}, {point['ci_high']:.2f}] {bar}")
    print(f"\nestimate stays within ±0.1 of its final value from n={settle}")


if __name__ == "__main__":
    main()
