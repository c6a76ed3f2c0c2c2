"""Case study C — discovery architectures compared (Fig. 2 / Sec. III-B).

Regenerates: the same discovery task executed two-party (mDNS-style),
three-party (SLP-style directory) and hybrid (adaptive), with their
characteristic latencies.

Shape to hold: two-party one-shot discovery on an idle mesh is fastest
(one multicast round trip); the directory architecture pays SCM discovery
+ registration + polling before the first hit, but every exchange is
acknowledged unicast; the hybrid matches two-party speed while also
registering with the SCM.
Measures: wall time of the three-architecture comparison.
"""

from conftest import print_table, run_once

from repro import run_experiment
from repro.analysis.responsiveness import run_outcomes
from repro.platforms.simulated import PlatformConfig
from repro.sd.processlib import (
    build_three_party_description,
    build_two_party_description,
)
from repro.storage.level3 import ExperimentDatabase

REPLICATIONS = 4


def _run(workdir, tag, desc, protocol):
    result = run_experiment(desc, workdir / tag, config=PlatformConfig(protocol=protocol))
    with ExperimentDatabase(result.db_path) as db:
        outcomes = run_outcomes(db)
        has_scm = bool(db.events(event_type="scm_registration_add"))
    times = sorted(o.t_r for o in outcomes if o.t_r is not None)
    return {
        "architecture": tag,
        "complete": len(times),
        "runs": len(outcomes),
        "median": times[len(times) // 2] if times else None,
        "scm_registration": has_scm,
    }


def test_case_architecture_comparison(benchmark, workdir):
    def compare():
        rows = []
        rows.append(_run(
            workdir, "two-party",
            build_two_party_description(
                name="arch-2p", seed=13, replications=REPLICATIONS, env_count=2),
            "mdns",
        ))
        rows.append(_run(
            workdir, "three-party",
            build_three_party_description(
                name="arch-3p", seed=13, replications=REPLICATIONS, env_count=2),
            "slp",
        ))
        rows.append(_run(
            workdir, "hybrid",
            build_three_party_description(
                name="arch-hy", seed=13, replications=REPLICATIONS, env_count=2),
            "hybrid",
        ))
        return rows

    rows = run_once(benchmark, compare)
    print_table(
        "Case study: discovery architectures (idle mesh)",
        f"{'architecture':<12} {'found':>7} {'median t_R':>11} {'SCM reg.':>9}",
        [
            f"{r['architecture']:<12} {r['complete']:>3}/{r['runs']:<3} "
            f"{(f'{r_median:.3f}s' if (r_median := r['median']) is not None else '-'):>11} "
            f"{str(r['scm_registration']):>9}"
            for r in rows
        ],
    )
    two, three, hybrid = rows
    assert two["complete"] == two["runs"]
    assert three["complete"] == three["runs"]
    assert hybrid["complete"] == hybrid["runs"]
    # Directory architecture pays its registration/poll overhead up front.
    assert three["median"] > two["median"]
    # The hybrid keeps two-party-class latency while using the SCM too.
    assert hybrid["median"] < three["median"]
    assert hybrid["scm_registration"] and three["scm_registration"]
    assert not two["scm_registration"]
    benchmark.extra_info["series"] = rows
