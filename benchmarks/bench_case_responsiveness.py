"""Case study A — SD responsiveness under generated load (Secs. V–VI).

Regenerates: the responsiveness-vs-load series of the case study the
framework was built for (refs [25], [26]): P(discovery <= deadline) per
(pairs x bandwidth) treatment of the Fig. 5 design, on the emulated mesh.

Shape to hold vs the paper's companion studies: responsiveness is ~1 at
low load and collapses as offered load approaches the channel capacity;
the median t_R climbs the retry ladder on the way down.
Measures: wall time of the full factorial sweep.
"""

from conftest import print_table, run_once

from repro import run_experiment
from repro.analysis.responsiveness import responsiveness_by_treatment
from repro.platforms.simulated import PlatformConfig
from repro.sd.processlib import build_two_party_description
from repro.storage.level3 import ExperimentDatabase

REPLICATIONS = 5
DEADLINES = (0.2, 1.0, 5.0)


def test_case_responsiveness_vs_load(benchmark, workdir):
    desc = build_two_party_description(
        name="case-responsiveness", seed=42, replications=REPLICATIONS,
        env_count=6, deadline=10.0, traffic=True,
        pairs_levels=(2, 6), bw_levels=(10, 150, 250),
        settle_after_publish=2.0,
        special_params={"run_spacing": 0.1, "max_run_duration": 30.0},
    )
    config = PlatformConfig(topology="mesh", mesh_radius=0.5, base_loss=0.05)

    def sweep():
        result = run_experiment(desc, workdir / "campaign", config=config)
        with ExperimentDatabase(result.db_path) as db:
            return responsiveness_by_treatment(db, deadlines=DEADLINES)

    rows = run_once(benchmark, sweep)

    def load_kbps(t):
        return 2 * t["fact_pairs"] * t["fact_bw"]  # bidirectional pairs

    rows.sort(key=lambda r: load_kbps(r["treatment"]))
    printable = []
    for row in rows:
        t, s = row["treatment"], row["summary"]
        median = f"{s['t_r_median']:.3f}" if s["t_r_median"] is not None else "  -  "
        printable.append(
            f"{t['fact_pairs']:>5} {t['fact_bw']:>5} {load_kbps(t):>8} "
            f"{median:>9} "
            + " ".join(f"{row[f'R({d:g}s)']['p']:>7.2f}" for d in DEADLINES)
        )
    print_table(
        "Case study: responsiveness vs offered load",
        f"{'pairs':>5} {'bw':>5} {'offered':>8} {'med t_R':>9} "
        + " ".join(f"R({d:g}s)".rjust(7) for d in DEADLINES),
        printable,
    )

    # Shape assertions: the laziest deadline's responsiveness is monotone
    # non-increasing from the lightest to the heaviest treatment, with a
    # real drop somewhere; light load is near-perfect.
    r5 = [row[f"R({DEADLINES[-1]:g}s)"]["p"] for row in rows]
    assert r5[0] >= 0.8, "light load must be nearly always responsive"
    assert min(r5) < r5[0], "heavy load must hurt responsiveness"
    assert r5[-1] <= r5[0]
    benchmark.extra_info["series"] = [
        {"treatment": row["treatment"],
         **{f"R({d:g}s)": row[f"R({d:g}s)"]["p"] for d in DEADLINES}}
        for row in rows
    ]
