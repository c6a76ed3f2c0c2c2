"""Case study D — the registry/broker discovery family (ROADMAP item 4).

Regenerates: a Table-I-style summary per registry scenario — direct
polling, broker dissemination, 3-replica anti-entropy gossip, provider
churn, and the client-population scaling sweep (Sec. IV-D2's traffic
generator shaped as registry queries).  Every scenario executes as a
real campaign twice (``--jobs 1`` and ``--jobs 2``) and the level-3
digests must match byte for byte — the determinism invariant extended
to the new family (the fleet leg lives in
``tests/integration/test_registry_family.py``).

Run standalone (CI smoke job)::

    PYTHONPATH=src python benchmarks/bench_case_registry.py --quick \
        --out BENCH_registry.json \
        --check-baseline benchmarks/BENCH_registry.baseline.json

or under pytest-benchmark::

    pytest benchmarks/bench_case_registry.py --benchmark-only -s
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

from repro.analysis.responsiveness import responsiveness_by_treatment, run_outcomes
from repro.campaign import database_digest, run_campaign
from repro.platforms.simulated import PlatformConfig
from repro.sd.metrics import summarize_runs
from repro.sd.processlib import build_registry_description
from repro.storage.level3 import ExperimentDatabase

REPLICATIONS = 3
#: population levels per mode: quick stops at 10^3, full climbs to 10^5
POPULATION_QUICK = (100, 1000)
POPULATION_FULL = (100, 1000, 10000, 100000)


def _scenarios(population_levels):
    """name -> description builder kwargs (one scenario per family mode)."""
    return {
        "direct": dict(seed=61, env_count=1),
        "broker": dict(seed=62, env_count=1, broker_count=1),
        "gossip3": dict(
            seed=63, env_count=1, registry_count=3, replica_levels=(3,),
            hold_time=5.0,
        ),
        "churn": dict(
            seed=64, env_count=2, sm_count=2, churn=True,
            churn_interval_levels=(1.5,), hold_time=6.0,
        ),
        "population": dict(
            seed=65, env_count=2, population=True,
            population_levels=population_levels, hold_time=3.0,
            # 10^4+ simulated users generate far too many query packets to
            # archive; the load still shapes t_R, which is the measurement.
            special_params={"collect_packets": False},
        ),
    }


def _config():
    return PlatformConfig(protocol="registry", topology="full", base_loss=0.0)


def run_scenario(workdir: Path, name: str, kwargs) -> dict:
    desc_kwargs = dict(kwargs)
    desc_kwargs.setdefault("replications", REPLICATIONS)
    root = workdir / name
    start = time.perf_counter()
    digests = {}
    for jobs in (1, 2):
        build = build_registry_description(name=f"bench-{name}", **desc_kwargs)
        db_path = root / f"jobs{jobs}.db"
        result = run_campaign(
            build, root / f"campaign-j{jobs}", db_path=db_path,
            jobs=jobs, pool="thread", config=_config(),
        )
        assert result.failed_runs == {}, (name, result.failed_runs)
        digests[jobs] = database_digest(db_path)
    elapsed = time.perf_counter() - start
    assert digests[1] == digests[2], (
        f"{name}: level-3 digest differs between --jobs 1 and --jobs 2"
    )

    with ExperimentDatabase(root / "jobs1.db") as db:
        stats = summarize_runs(run_outcomes(db))
        by_treatment = responsiveness_by_treatment(db, deadlines=(5.0,))
    row = {
        "runs": stats["runs"],
        "success_rate": stats["success_rate"],
        "t_r_median": stats["t_r_median"],
        "t_r_p95": stats["t_r_p95"],
        "digest": digests[1],
        "digest_deterministic": True,
        "wall_s": round(elapsed, 3),
    }
    # The factor sweeps the family adds: surface each treatment level so
    # the churn cadence and the population size are visible in the table.
    series = []
    for group in by_treatment:
        treatment = {
            k: v for k, v in group["treatment"].items()
            if k not in ("fact_nodes", "fact_replication_id")
        }
        summary = group["summary"]
        series.append({
            "treatment": treatment,
            "runs": group["runs"],
            "t_r_median": summary["t_r_median"],
            "responsiveness_5s": group["R(5s)"]["p"],
        })
    row["series"] = series
    return row


def print_report(results):
    print("\n=== Registry family: Table-I summary per scenario ===")
    header = (f"{'scenario':>10} | {'runs':>4} | {'success':>7} | "
              f"{'med t_R':>8} | {'p95 t_R':>8} | {'jobs-digest':>11} | {'wall (s)':>8}")
    print(header)
    print("-" * len(header))
    for name, res in results.items():
        med = f"{res['t_r_median']:.3f}" if res["t_r_median"] is not None else "-"
        p95 = f"{res['t_r_p95']:.3f}" if res["t_r_p95"] is not None else "-"
        print(f"{name:>10} | {res['runs']:>4} | {res['success_rate']:>7.2f} | "
              f"{med:>8} | {p95:>8} | {'match':>11} | {res['wall_s']:>8.2f}")
    pop = results.get("population")
    if pop:
        print("\npopulation sweep (users -> med t_R, R(5s)):")
        for entry in pop["series"]:
            users = entry["treatment"].get("fact_users")
            med = entry["t_r_median"]
            med_s = f"{med:.3f}s" if med is not None else "-"
            print(f"  {users:>7} users: t_R {med_s:>8}  "
                  f"R(5s) {entry['responsiveness_5s']:.2f}")


def check_baseline(results, baseline_path):
    """Fail (return False) when a scenario loses discoveries or its median
    t_R regresses by more than 2x against the committed baseline.  Raw
    digests are machine-local and deliberately not compared — the bench
    asserts digest determinism *within* the run instead."""
    baseline = json.loads(Path(baseline_path).read_text())
    ok = True
    for name, res in results.items():
        base = baseline.get("scenarios", {}).get(name)
        if base is None:
            continue
        if res["success_rate"] < base["success_rate"] - 0.25:
            print(f"REGRESSION {name}: success rate {res['success_rate']:.2f} "
                  f"vs baseline {base['success_rate']:.2f}", file=sys.stderr)
            ok = False
        if (base.get("t_r_median") and res["t_r_median"] is not None
                and res["t_r_median"] > base["t_r_median"] * 2.0):
            print(f"REGRESSION {name}: median t_R {res['t_r_median']:.3f}s vs "
                  f"baseline {base['t_r_median']:.3f}s (> 2x)", file=sys.stderr)
            ok = False
    return ok


def measure(population_levels, workdir=None):
    owned = workdir is None
    workdir = Path(workdir or tempfile.mkdtemp(prefix="excovery-bench-registry-"))
    try:
        return {
            name: run_scenario(workdir, name, kwargs)
            for name, kwargs in _scenarios(population_levels).items()
        }
    finally:
        if owned:
            shutil.rmtree(workdir, ignore_errors=True)


# ----------------------------------------------------------------------
# pytest-benchmark entry point
# ----------------------------------------------------------------------
def test_case_registry_family(benchmark, workdir):
    from conftest import run_once

    results = run_once(benchmark, measure, POPULATION_QUICK, workdir)
    print_report(results)
    benchmark.extra_info["results"] = {
        name: {k: v for k, v in res.items() if k != "digest"}
        for name, res in results.items()
    }
    assert all(res["success_rate"] == 1.0 for res in results.values()), results
    users_levels = [e["treatment"]["fact_users"]
                    for e in results["population"]["series"]]
    assert sorted(users_levels) == sorted(POPULATION_QUICK)


# ----------------------------------------------------------------------
# Standalone CLI (CI smoke job)
# ----------------------------------------------------------------------
def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="population sweep stops at 10^3 users (CI smoke)")
    parser.add_argument("--out", default="BENCH_registry.json",
                        help="result JSON path (default: BENCH_registry.json)")
    parser.add_argument("--check-baseline", metavar="PATH",
                        help="fail on lost discoveries or >2x t_R regression")
    parser.add_argument("--workdir", help="scratch directory (default: temp)")
    args = parser.parse_args(argv)

    levels = POPULATION_QUICK if args.quick else POPULATION_FULL
    results = measure(levels, args.workdir)
    print_report(results)

    payload = {"benchmark": "case_registry", "scenarios": results}
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {args.out}")

    if args.check_baseline:
        if not check_baseline(results, args.check_baseline):
            return 1
        print(f"within tolerance of baseline {args.check_baseline}")
    failed = [n for n, r in results.items() if r["success_rate"] < 1.0]
    if failed:
        print(f"FAIL: scenarios with missed discoveries: {failed}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
