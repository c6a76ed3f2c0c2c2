#!/usr/bin/env python3
"""Fault injection study: message loss vs discovery time, and a
two-party vs three-party architecture comparison under faults.

Demonstrates the Sec. IV-D manipulation machinery:

* a node manipulation process injecting ``msg_loss`` on the SU with the
  common temporal parameters (duration / rate / randomseed),
* a sweep over loss probabilities showing the mDNS retry schedule
  stepping the median discovery time up,
* the same sweep against the SLP directory architecture, whose
  acknowledged unicast transactions degrade more gracefully.

Run:  python examples/fault_injection_study.py
"""

import tempfile
from pathlib import Path

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

LOSS_LEVELS = (0.0, 0.2, 0.4, 0.6)
REPLICATIONS = 8


def run_sweep(architecture: str, workdir: Path):
    """Run the loss sweep for one architecture; returns result rows."""
    rows = []
    for loss in LOSS_LEVELS:
        if architecture == "two-party":
            desc = build_two_party_description(
                name=f"loss-{architecture}-{loss}",
                seed=7,
                replications=REPLICATIONS,
                env_count=0,        # point-to-point: loss is not masked
                deadline=20.0,      # by flooded duplicate copies
            )
            config = PlatformConfig(sd_config={"announce_count": 0})
        else:
            desc = build_three_party_description(
                name=f"loss-{architecture}-{loss}",
                seed=7,
                replications=REPLICATIONS,
                env_count=0,
                deadline=20.0,
            )
            config = PlatformConfig(protocol="slp")
        if loss > 0:
            desc.manipulations.append(
                ManipulationProcess(
                    actor_id="actor1",  # the SU's interface suffers
                    actions=[
                        DomainAction(
                            name="msg_loss_start",
                            params={"probability": loss, "direction": "both"},
                        )
                    ],
                )
            )
        tag = f"{architecture}-{loss}"
        result = run_experiment(desc, workdir / tag, config=config)
        with ExperimentDatabase(result.db_path) as db:
            outcomes = run_outcomes(db)
        times = sorted(o.t_r for o in outcomes if o.t_r is not None)
        rows.append({
            "loss": loss,
            "complete": len(times),
            "runs": len(outcomes),
            "median": times[len(times) // 2] if times else None,
            "worst": times[-1] if times else None,
        })
    return rows


def print_table(architecture: str, rows) -> None:
    print(f"\n{architecture} (SU-side message loss, both directions)")
    header = f"{'loss':>5} {'found':>9} {'median t_R':>11} {'worst t_R':>10}"
    print(header)
    print("-" * len(header))
    for row in rows:
        median = f"{row['median']:.3f}s" if row["median"] is not None else "-"
        worst = f"{row['worst']:.3f}s" if row["worst"] is not None else "-"
        print(f"{row['loss']:>5.1f} {row['complete']:>4}/{row['runs']:<4} "
              f"{median:>11} {worst:>10}")


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="excovery-faults-"))
    for architecture in ("two-party", "three-party"):
        rows = run_sweep(architecture, workdir)
        print_table(architecture, rows)
    print("\nexpected shape: two-party medians climb the 1s/2s/4s query")
    print("retry ladder as loss grows; the directory architecture's")
    print("0.5s-timeout acknowledged unicast degrades in smaller steps.")


if __name__ == "__main__":
    main()
