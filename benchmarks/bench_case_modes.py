"""Case study D — discovery communication schemes (Sec. III-B taxonomy).

Regenerates: the passive (lazy) vs active (aggressive) discovery
comparison implied by the paper's taxonomy, plus the replication
convergence analysis (Sec. II-A3) over the active series.

Shape to hold: when the SU joins *before* the SM publishes, both modes
discover via the announcement burst with comparable latency; when the SU
joins *after* the announcements have passed, passive discovery must wait
for the next refresh cycle while active discovery resolves in one query
round trip — the reason aggressive discovery exists.
"""

from conftest import print_table, run_once

from repro import run_experiment
from repro.analysis.convergence import replications_to_converge
from repro.core.processes import DomainAction
from repro.platforms.simulated import PlatformConfig
from repro.sd.processlib import build_two_party_description
from repro.storage.level3 import ExperimentDatabase

REPLICATIONS = 4


def _median_t_r(result, runs):
    times = []
    with ExperimentDatabase(result.db_path) as db:
        per_run = [db.events(run_id=run_id) for run_id in range(runs)]
    for events in per_run:
        start = next((e["common_time"] for e in events
                      if e["name"] == "sd_start_search"), None)
        add = next((e["common_time"] for e in events
                    if e["name"] == "sd_service_add"), None)
        if start is not None and add is not None:
            times.append(add - start)
    times.sort()
    return times[len(times) // 2] if times else None


def _late_join_desc(mode, record_ttl):
    """SU joins 5 s after the announcement burst finished."""
    desc = build_two_party_description(
        name=f"mode-{mode}", seed=19, replications=REPLICATIONS, env_count=0,
        deadline=float(record_ttl),
        settle_after_publish=5.0,
    )
    su = desc.actor("actor1")
    for action in su.actions:
        if isinstance(action, DomainAction) and action.name == "sd_start_search":
            action.params["mode"] = mode
    return desc


def test_case_discovery_modes(benchmark, workdir):
    record_ttl = 12.0  # refresh at 80% = 9.6 s -> passive waits for it

    def compare():
        rows = []
        for mode in ("active", "passive"):
            desc = _late_join_desc(mode, record_ttl)
            config = PlatformConfig(
                topology="full", sd_config={"record_ttl": record_ttl}
            )
            result = run_experiment(desc, workdir / mode, config=config)
            rows.append({"mode": mode,
                         "median": _median_t_r(result, REPLICATIONS)})
        return rows

    rows = run_once(benchmark, compare)
    print_table(
        "Case study: active vs passive discovery (SU joins late)",
        f"{'mode':<8} {'median t_R':>11}",
        [f"{r['mode']:<8} "
         f"{(f'{r_m:.3f}s' if (r_m := r['median']) is not None else '-'):>11}"
         for r in rows],
    )
    active, passive = rows
    assert active["median"] is not None and passive["median"] is not None
    # Active: one query round trip (well under a second).  Passive: waits
    # for the publisher's TTL-refresh announcement (~several seconds).
    assert active["median"] < 0.5
    assert passive["median"] > 2.0
    assert passive["median"] > 5 * active["median"]
    benchmark.extra_info["series"] = rows


def test_case_replication_convergence(benchmark, workdir):
    """Sec. II-A3: how many replications until the responsiveness
    estimate stabilizes?  Regenerated from a 16-replication series."""
    from repro.analysis.responsiveness import run_outcomes

    desc = build_two_party_description(
        name="convergence", seed=23, replications=16, env_count=0,
        deadline=5.0,
    )

    def run_series():
        result = run_experiment(desc, workdir / "conv")
        with ExperimentDatabase(result.db_path) as db:
            return run_outcomes(db)

    outcomes = run_once(benchmark, run_series)
    settle = replications_to_converge(outcomes, deadline=5.0, tolerance=0.1)
    print_table(
        "Case study: replication convergence (deadline 5 s, tolerance 0.1)",
        "metric                     value",
        [f"replications executed      {len(outcomes)}",
         f"estimate settles after     {settle}"],
    )
    assert settle is not None
    assert settle <= len(outcomes)
    benchmark.extra_info["settle_after"] = settle
