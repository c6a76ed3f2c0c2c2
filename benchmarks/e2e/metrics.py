"""Every metric the benchmark reports: name, unit, direction, bound.

``USER`` are the numbers a user of the pipeline sees.  The four that every
workload has are the bounded ``end_to_end`` metrics of ``BENCHMARK.json``;
the rest belong to some workloads only and therefore travel with the
per-layer metrics there (where a workload that does not have one reports 0).
``--check-repeat`` holds all of them to their bounds.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

CAMPAIGNS = ("sd_campaign", "fleet_registry")
ALL = ("sd_campaign", "mesh_storm", "measurement_store", "fleet_registry")


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    #: Relative worsening of the median that counts as a regression.
    bound: Optional[float] = None
    workloads: Tuple[str, ...] = ALL
    #: Must repeat bit-for-bit at a fixed seed.
    exact: bool = False


USER: List[Metric] = [
    Metric("setup_s", "s", "lower", 0.25),
    Metric("pipeline_s", "s", "lower", 0.25),
    Metric("work_per_s", "1/s", "higher", 0.25),
    Metric("peak_rss_mb", "MiB", "lower", 0.20),
    Metric("runs_per_s", "1/s", "higher", 0.25, CAMPAIGNS),
    Metric("run_wall_p50_s", "s", "lower", 0.25, CAMPAIGNS),
    Metric("bytes_per_run", "B", "lower", 0.01, CAMPAIGNS),
    Metric("callbacks_per_s", "1/s", "higher", 0.25, ("mesh_storm",)),
    Metric("transmissions_per_s", "1/s", "higher", 0.25, ("mesh_storm",)),
    Metric("records_per_s", "1/s", "higher", 0.25, ("measurement_store",)),
    Metric("l3_query_ms", "ms", "lower", 0.25, ("measurement_store",)),
    Metric("wh_packages_per_s", "1/s", "higher", 0.25, ("measurement_store",)),
    Metric("wh_query_ms", "ms", "lower", 0.25,
           ("measurement_store",) + CAMPAIGNS),
]

#: The user metrics every workload reports: BENCHMARK.json's ``end_to_end``.
UNIFORM = [m for m in USER if m.workloads == ALL]


def _t(name: str) -> Metric:
    return Metric(name, "s", "lower")


def _n(name: str, exact: bool = True, better: str = "lower") -> Metric:
    return Metric(name, "count", better, exact=exact)


LAYER: List[Metric] = [
    _t("core.xmlio.parse_s"), _t("core.plan.generate_s"), _n("core.plan.runs"),
    _t("platforms.simulated.build_s_per_run"),
    _t("core.master.prep_s_per_run"), _t("core.master.exec_s_per_run"),
    _t("core.master.cleanup_s_per_run"), _t("core.master.busy_s"),
    _n("core.rpc.calls_per_run"), Metric("core.rpc.bytes_per_run", "B", "lower", exact=True),
    _t("core.rpc.busy_s"), _n("core.rpc.retries", exact=False),
    _n("core.rpc.timeouts", exact=False),
    _t("core.timesync.busy_s"), _t("core.topomeasure.busy_s"),
    _n("sim.callbacks"), _t("sim.busy_s"),
    Metric("sim.callbacks_per_busy_s", "1/s", "higher"),
    _n("net.transmissions"), _n("net.deliveries"), _n("net.drops"),
    _t("net.transmit_busy_s"), _n("net.capture_records"), _t("net.capture_busy_s"),
    _n("sd.actions"), _t("sd.busy_s"), _n("sd.discoveries", better="higher"),
    Metric("sd.t_r_median_s", "s", "lower", exact=True),
    _t("storage.level2.write_s"), _n("storage.level2.records"),
    Metric("storage.level2.bytes_per_run", "B", "lower"),
    _t("storage.level2.topology_write_s"), _t("storage.level2.read_s"),
    _t("storage.conditioning.busy_s"),
    Metric("storage.conditioning.records_per_s", "1/s", "higher"),
    _t("storage.level3.store_s"), _n("storage.level3.rows"),
    Metric("storage.level3.bytes", "B", "lower"), _t("storage.level3.query_s"),
    _t("campaign.overhead_s_per_run"), _n("campaign.journal_appends"),
    _t("campaign.journal_s"), _t("campaign.stage_s"), _t("campaign.merge_s"),
    _t("campaign.digest_s"), _t("campaign.run_wall_p90_s"),
    _t("fabric.overhead_s_per_run"), _n("fabric.lease_grants"),
    _t("fabric.lease_idle_s_per_lease"), _n("fabric.renewals", exact=False),
    _n("fabric.ledger_appends", exact=False), _t("fabric.ledger_s"),
    _n("fabric.wire_calls", exact=False), _t("fabric.wire_busy_s"),
    Metric("fabric.ship_bytes_per_run", "B", "lower"),
    _t("fabric.encode_s"), _t("fabric.ack_s"), _t("fabric.shutdown_s"),
    _t("repo.ingest_s"), _n("repo.ingest_batches", exact=False),
    _n("repo.journal_appends"), _t("repo.view_refresh_s"),
    _n("repo.cache_hits", exact=False, better="higher"), _n("repo.cache_misses", exact=False),
    Metric("repo.cache_hit_ratio", "ratio", "higher"),
    Metric("repo.query_miss_ms", "ms", "lower"), Metric("repo.query_hit_ms", "ms", "lower"),
    Metric("repo.stored_bytes_per_source_byte", "ratio", "lower"),
    _t("analysis.responsiveness_s"),
    Metric("bench.trace_overhead_pct", "%", "lower"), _t("bench.unattributed_s"),
    _t("bench.traced_wall_s"), _t("bench.rows_sum_s"),
]

BY_NAME: Dict[str, Metric] = {m.name: m for m in USER + LAYER}


def benchmark_json() -> dict:
    """The contract file, generated from this table (see test_bench.py)."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": 30,
        "workloads": [
            {"name": "sd_campaign", "why": (
                "the paper's case study end to end: XML, local campaign of a 31-node "
                "mDNS experiment, merged L3, L4 ingest and queries; core.rpc/master/sd/"
                "storage do the work, fabric none")},
            {"name": "mesh_storm", "why": (
                "1000-node ping storm on kernel and medium alone; a sim/net gain must "
                "show here and predict no change on measurement_store")},
            {"name": "measurement_store", "why": (
                "synthetic records through L2, conditioning, L3 and the warehouse with "
                "reads beside writes; sim/net/rpc do nothing, so it is their bypass")},
            {"name": "fleet_registry", "why": (
                "300-node registry campaign leased to two loopback workers; the only "
                "workload where fabric and per-run platform/topology set-up dominate")},
        ],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in UNIFORM
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in USER + LAYER if m not in UNIFORM
        ],
    }
