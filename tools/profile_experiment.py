#!/usr/bin/env python3
"""Profile a representative experiment execution.

"No optimization without measuring" — this script runs a mid-sized
two-party experiment under cProfile and prints the hot spots, so
performance work on the kernel/medium/agents starts from data rather
than guesses.

Run:  python tools/profile_experiment.py [replications]
"""

from __future__ import annotations

import cProfile
import pstats
import sys
import tempfile


def workload(replications: int) -> None:
    """Every run's master on this thread (cProfile sees one thread), then
    conditioning and the level-3 write."""
    from repro import ExperiMaster, Level2Store, SimulatedPlatform, store_level3
    from repro.sd.processlib import build_two_party_description

    desc = build_two_party_description(
        name="profile", seed=1, replications=replications, env_count=4,
        traffic=True, pairs_levels=(4,), bw_levels=(100,),
        special_params={"run_spacing": 0.05},
    )
    workdir = tempfile.mkdtemp(prefix="excovery-profile-")
    store = Level2Store(f"{workdir}/l2")
    for run_id in range(desc.factors.total_runs()):
        ExperiMaster(SimulatedPlatform(desc, None), desc, store, run_id).execute()
    store_level3(store, f"{workdir}/profile.db")


def main() -> int:
    replications = int(sys.argv[1]) if len(sys.argv) > 1 else 10
    profiler = cProfile.Profile()
    profiler.enable()
    workload(replications)
    profiler.disable()

    stats = pstats.Stats(profiler)
    print(f"\n=== top 25 by cumulative time ({replications} replications) ===")
    stats.sort_stats("cumulative").print_stats(25)
    print("\n=== top 25 by internal time ===")
    stats.sort_stats("tottime").print_stats(25)
    return 0


if __name__ == "__main__":
    sys.exit(main())
