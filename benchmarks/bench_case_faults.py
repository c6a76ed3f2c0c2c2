"""Case study B — message-loss sweep (Sec. IV-D fault injection).

Regenerates: discovery time vs injected loss probability for the
two-party protocol, discovery driven by the query/response exchange.

Shape to hold: the success fraction decreases and the surviving medians
climb the exponential retry ladder (1 s, 2 s, 4 s, ...) as loss grows —
the mechanism behind the responsiveness models of refs [25]/[26].
Measures: wall time of the loss sweep.
"""

from conftest import print_table, run_once

from repro import run_experiment
from repro.analysis.responsiveness import run_outcomes
from repro.core.description import ManipulationProcess
from repro.core.processes import DomainAction
from repro.platforms.simulated import PlatformConfig
from repro.sd.processlib import build_two_party_description
from repro.storage.level3 import ExperimentDatabase

LOSS_LEVELS = (0.0, 0.3, 0.6)
REPLICATIONS = 6


def _one_level(workdir, loss):
    desc = build_two_party_description(
        name=f"case-loss-{loss}", seed=7, replications=REPLICATIONS,
        env_count=0, deadline=25.0,
    )
    if loss > 0:
        desc.manipulations.append(
            ManipulationProcess(
                actor_id="actor1",
                actions=[DomainAction(
                    name="msg_loss_start",
                    params={"probability": loss, "direction": "both"},
                )],
            )
        )
    config = PlatformConfig(sd_config={"announce_count": 0})
    result = run_experiment(desc, workdir / f"loss{loss}", config=config)
    with ExperimentDatabase(result.db_path) as db:
        outcomes = run_outcomes(db)
    times = sorted(o.t_r for o in outcomes if o.t_r is not None)
    return {
        "loss": loss,
        "complete": len(times),
        "runs": len(outcomes),
        "median": times[len(times) // 2] if times else None,
        "worst": times[-1] if times else None,
    }


def test_case_loss_sweep(benchmark, workdir):
    def sweep():
        return [_one_level(workdir, loss) for loss in LOSS_LEVELS]

    rows = run_once(benchmark, sweep)
    printable = []
    for row in rows:
        median = f"{row['median']:.3f}s" if row["median"] is not None else "-"
        worst = f"{row['worst']:.3f}s" if row["worst"] is not None else "-"
        printable.append(
            f"{row['loss']:>5.1f} {row['complete']:>4}/{row['runs']:<4} "
            f"{median:>10} {worst:>10}"
        )
    print_table(
        "Case study: discovery vs injected message loss",
        f"{'loss':>5} {'found':>9} {'median':>10} {'worst':>10}",
        printable,
    )
    clean, worst_case = rows[0], rows[-1]
    assert clean["complete"] == clean["runs"]
    assert clean["median"] < 0.5
    # Heavier loss must cost: fewer completions or visibly slower medians.
    degraded = (
        worst_case["complete"] < worst_case["runs"]
        or (worst_case["median"] is not None and worst_case["median"] > 2 * clean["median"])
    )
    assert degraded, rows
    benchmark.extra_info["series"] = rows
