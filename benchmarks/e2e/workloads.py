"""The four workloads.  Each stresses different layers and is the *bypass*
for an optimisation of the others (see README.md for the reasoning).

A workload builds its inputs from the seed in :meth:`setup`, then runs
identical repetitions.  One repetition returns its wall seconds, the seconds
of its named stages and any pooled samples; exact counts are handed to
``self.exact`` which fails an op when a count differs between repetitions.
"""

from __future__ import annotations

import contextlib
import gc
import random
import shutil
import threading
import time
from pathlib import Path
from typing import Any, Dict, List

from repro.campaign import engine as campaign_engine
from repro.campaign import journal as campaign_journal
from repro.core import xmlio
from repro.fabric import coordinator as fabric_coordinator
from repro.fabric import leases as fabric_leases
from repro.fabric import worker as fabric_worker
from repro.net import medium as net_medium
from repro.net import node as net_node
from repro.net import packet as net_packet
from repro.net import topology as net_topology
from repro.platforms.simulated import PlatformConfig, SimulatedPlatform
from repro.repo import journal as repo_journal
from repro.repo import queue as repo_queue
from repro.repo import warehouse as repo_warehouse
from repro.sd import processlib
from repro.sim import kernel as sim_kernel
from repro.storage import level2, level3

import pipeline
from tracer import ROOT
from common import (
    SCALES, TESTBED_SEED, ExactCounts, Ops, Samples, file_bytes, journal_lines, phase_seconds,
    safe_div, tree_bytes,
)


class Workload:
    """Base: seed, scale, scratch directory, op and exact-count ledgers."""

    name = ""
    #: Timed repetitions when ``--seconds`` does not cut them short.  Many
    #: short repetitions: this box slows down in bursts of a second or two,
    #: and a median needs most of its samples outside them.
    reps = 10
    #: Traced repetitions; the one with the median wall is reported.
    traced_reps = 3
    #: Unit of ``work_per_s`` for this workload.
    work_unit = ""

    def __init__(self, seed: int, scale: str, workdir: Path) -> None:
        self.seed = seed
        self.size = SCALES[scale]
        self.workdir = Path(workdir)
        self.ops = Ops()
        self.exact = ExactCounts(self.ops)
        #: Set for the traced repetition only.
        self.tracer = None
        self._rep_index = 0

    def setup(self) -> None:
        raise NotImplementedError

    def warmup(self) -> None:
        """Untimed pass that fills caches before the first timed rep."""
        self.rep()

    def rep(self) -> Dict[str, Any]:
        raise NotImplementedError

    def fresh_dir(self) -> Path:
        """A new empty directory for one repetition; the previous one goes."""
        previous = self.workdir / f"rep{self._rep_index:03d}"
        shutil.rmtree(previous, ignore_errors=True)
        self._rep_index += 1
        current = self.workdir / f"rep{self._rep_index:03d}"
        current.mkdir(parents=True)
        return current

    def pipeline_span(self):
        """The root span of the traced repetition: exactly the region whose
        wall the repetition reports, so the table's rows sum to that wall."""
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(ROOT)

    def metrics(self, samples: Samples) -> Dict[str, float]:
        """Workload-specific metrics from the untraced reps' samples."""
        raise NotImplementedError

    def traced_metrics(self) -> Dict[str, float]:
        """Workload-specific metrics only ``self.tracer`` can give."""
        return {}


def _repo_metrics(samples: Samples, info: Dict[str, Any]) -> Dict[str, float]:
    """Warehouse metrics every workload with a warehouse stage reports."""
    hits, misses = info["cache_hits"], info["cache_misses"]
    return {
        "repo.ingest_s": samples.median("wh_ingest_s"),
        "repo.journal_appends": info["repo_journal_appends"],
        "repo.cache_hits": hits,
        "repo.cache_misses": misses,
        "repo.cache_hit_ratio": safe_div(hits, hits + misses),
        "repo.query_miss_ms": samples.median("wh_query_miss_s") * 1e3,
        "repo.query_hit_ms": samples.median("wh_query_hit_s") * 1e3,
        "repo.stored_bytes_per_source_byte": safe_div(
            info["wh_bytes"], info["source_bytes"]),
    }


# ----------------------------------------------------------------------
# Campaign workloads share result handling
# ----------------------------------------------------------------------
class _CampaignWorkload(Workload):
    work_unit = "runs"

    def _record(self, out: Dict[str, Any], result, campaign_s: float,
                durations: List[float], tail: Dict[str, Any], runs: int) -> None:
        telemetry = result.telemetry or {}
        self.ops.add(runs, len(result.failed_runs) + len(result.timed_out_runs),
                     "runs failed or timed out")
        self.exact.observe("core.plan.runs", runs)
        out["work"] = runs
        out["work_s"] = campaign_s
        out["stages"] = {
            "campaign_s": campaign_s,
            "digest_s": tail["digest_s"],
            "analysis_s": tail["analysis_s"],
            "wh_ingest_s": tail["wh_ingest_s"],
            "wh_query_s": tail["wh_query_miss_s"] + tail["wh_query_hit_s"],
            "wh_query_miss_s": tail["wh_query_miss_s"],
            "wh_query_hit_s": tail["wh_query_hit_s"],
            "overhead_s_per_run": safe_div(campaign_s - sum(durations), runs),
            "prep_s_per_run": safe_div(phase_seconds(telemetry, "preparation"), runs),
            "exec_s_per_run": safe_div(phase_seconds(telemetry, "execution"), runs),
            "cleanup_s_per_run": safe_div(phase_seconds(telemetry, "cleanup"), runs),
        }
        out["pooled"] = {"run_wall_s": durations}
        out["info"] = {
            "runs": runs,
            "rpc_retries": telemetry.get("rpc_retries", 0),
            "rpc_timeouts": telemetry.get("rpc_timeouts", 0),
            "discoveries": tail["summary"]["complete"],
            "t_r_median_s": tail["summary"]["t_r_median"],
            "source_bytes": tail["l3_bytes"],
            **{key: tail[key] for key in (
                "l2_bytes", "l3_bytes", "l3_rows", "wh_bytes", "packets",
                "cache_hits", "cache_misses", "repo_journal_appends")},
        }

    def metrics(self, samples: Samples) -> Dict[str, float]:
        info = self.last_info
        runs = info["runs"]
        return {
            "runs_per_s": safe_div(runs, samples.median("campaign_s")),
            "run_wall_p50_s": samples.median("run_wall_s"),
            "bytes_per_run": safe_div(info["l2_bytes"] + info["l3_bytes"], runs),
            "wh_query_ms": samples.median("wh_query_s") * 1e3,
            "core.plan.runs": runs,
            "core.master.prep_s_per_run": samples.median("prep_s_per_run"),
            "core.master.exec_s_per_run": samples.median("exec_s_per_run"),
            "core.master.cleanup_s_per_run": samples.median("cleanup_s_per_run"),
            "core.rpc.retries": info["rpc_retries"],
            "core.rpc.timeouts": info["rpc_timeouts"],
            "net.capture_records": info["packets"],
            "sd.discoveries": info["discoveries"],
            "sd.t_r_median_s": info["t_r_median_s"],
            "storage.level2.bytes_per_run": safe_div(info["l2_bytes"], runs),
            "storage.level3.rows": info["l3_rows"],
            "storage.level3.bytes": info["l3_bytes"],
            "campaign.run_wall_p90_s": samples.percentile("run_wall_s", 0.9),
            "campaign.digest_s": samples.median("digest_s"),
            "analysis.responsiveness_s": samples.median("analysis_s"),
            "repo.ingest_batches": 1,
            **_repo_metrics(samples, info),
        }


class SdCampaign(_CampaignWorkload):
    """The paper's case study as users run it: XML → local campaign → L4."""

    name = "sd_campaign"

    def setup(self) -> None:
        desc = processlib.build_two_party_description(
            name="e2e-sd-campaign", seed=self.seed,
            replications=self.size["sd_replications"],
            env_count=self.size["sd_env_count"],
            traffic=True, pairs_levels=(4,), bw_levels=(100,),
            special_params={"run_spacing": 0.05},
        )
        self.xml_text = xmlio.description_to_xml(desc)
        # The default mesh/mDNS platform, placed once: the mesh the program
        # would build for TESTBED_SEED, whatever seed the experiment has.
        desc.seed = TESTBED_SEED
        self.config = PlatformConfig(topology=SimulatedPlatform(desc).topology)

    def rep(self) -> Dict[str, Any]:
        root = self.fresh_dir()
        completions: List[float] = []

        def progress(line: str) -> None:
            if " ok (" in line:
                completions.append(time.perf_counter())

        out: Dict[str, Any] = {}
        with self.pipeline_span():
            started = time.perf_counter()
            desc = xmlio.description_from_xml(self.xml_text)
            parse_s = time.perf_counter() - started
            campaign_started = time.perf_counter()
            result = campaign_engine.run_campaign(
                desc, root / "campaign", db_path=root / "l3.db",
                jobs=1, pool="thread", progress=progress, config=self.config,
            )
            campaign_s = time.perf_counter() - campaign_started
            tail = pipeline.campaign_tail(root / "l3.db", root)
            out["wall"] = time.perf_counter() - started
        runs = len(result.plan)
        pipeline.verify_tail(tail, root / "l3.db", [root / "campaign"], runs, root,
                             self.ops, self.exact)

        # One worker: a run's wall is the time between two completions.
        edges = [campaign_started] + completions
        durations = [b - a for a, b in zip(edges, edges[1:])]
        self.ops.check(len(durations) == runs,
                       f"{len(durations)} completions reported for {runs} planned runs")
        self.exact.observe("campaign.journal_appends", journal_lines(
            root / "campaign" / campaign_journal.JOURNAL_NAME))
        self._record(out, result, campaign_s, durations, tail, runs)
        out["stages"]["parse_s"] = parse_s
        out["info"]["journal_appends"] = self.exact.first["campaign.journal_appends"]
        self.last_info = out["info"]
        return out

    def metrics(self, samples: Samples) -> Dict[str, float]:
        m = super().metrics(samples)
        m["core.xmlio.parse_s"] = samples.median("parse_s")
        m["campaign.overhead_s_per_run"] = samples.median("overhead_s_per_run")
        m["campaign.journal_appends"] = self.last_info["journal_appends"]
        return m


WORKER_THREAD = "fleet-w"


class FleetRegistry(_CampaignWorkload):
    """ROADMAP item 1's scenario: a 500-node registry population campaign
    served to two in-process workers over loopback, then the shared tail."""

    name = "fleet_registry"
    reps = 6
    traced_reps = 1
    WORKERS = 2

    def setup(self) -> None:
        desc = processlib.build_registry_description(
            name="e2e-fleet-registry", seed=self.seed,
            replications=self.size["fleet_replications"],
            env_count=self.size["fleet_env_count"],
            population=True, population_levels=(self.size["fleet_users"],),
            hold_time=3.0, special_params={"collect_packets": False},
        )
        self.xml_text = xmlio.description_to_xml(desc)
        self.config = PlatformConfig(protocol="registry", topology="mesh", base_loss=0.0)
        self.reference_digest = None

    def warmup(self) -> None:
        """The local ``jobs=1`` reference campaign doubles as the warm-up: it
        runs the same platform build, run and merge code the fleet reps do."""
        root = self.fresh_dir()
        campaign_engine.run_campaign(
            xmlio.description_from_xml(self.xml_text), root / "campaign",
            db_path=root / "l3.db", jobs=1, pool="thread", config=self.config,
        )
        from repro.campaign.merge import database_digest

        self.reference_digest = database_digest(root / "l3.db")

    def rep(self) -> Dict[str, Any]:
        root = self.fresh_dir()
        out: Dict[str, Any] = {}
        threads = []
        with self.pipeline_span():
            started = time.perf_counter()
            desc = xmlio.description_from_xml(self.xml_text)
            campaign_started = time.perf_counter()
            coordinator = fabric_coordinator.FabricCoordinator(
                desc, root / "campaign", port=0, batch_size=2, lease_ttl=10.0,
                config=self.config,
            )
            with coordinator:
                for i in range(self.WORKERS):
                    worker = fabric_worker.FabricWorker(
                        coordinator.address, f"w{i}", root / f"w{i}",
                        capacity=1, poll_interval=0.05,
                    )
                    thread = threading.Thread(
                        target=worker.run_forever, name=f"{WORKER_THREAD}{i}", daemon=True)
                    thread.start()
                    threads.append(thread)
                result = coordinator.run_until_complete(
                    db_path=root / "l3.db", timeout=150.0)
                campaign_s = time.perf_counter() - campaign_started
                durations = list(coordinator.telemetry.run_durations)
                stop_started = time.perf_counter()
            shutdown_s = time.perf_counter() - stop_started
            tail = pipeline.campaign_tail(root / "l3.db", root)
            out["wall"] = time.perf_counter() - started
        runs = len(result.plan)
        pipeline.verify_tail(
            tail, root / "l3.db", [root / f"w{i}" for i in range(self.WORKERS)],
            runs, root, self.ops, self.exact)
        # Workers leave on their own once the coordinator says "done"; they
        # must be gone before the next rep but are not part of the pipeline.
        for thread in threads:
            thread.join(timeout=30.0)
            self.ops.check(not thread.is_alive(), f"{thread.name} did not exit")

        self.ops.check(tail["digest"] == self.reference_digest,
                       "fleet merged digest differs from the jobs=1 reference")
        ledger = journal_lines(root / "campaign" / fabric_leases.LEASES_NAME)
        self._record(out, result, campaign_s, durations, tail, runs)
        out["stages"]["shutdown_s"] = shutdown_s
        out["stages"]["fabric_overhead_s_per_run"] = safe_div(
            campaign_s - sum(durations) / self.WORKERS, runs)
        out["info"]["ledger_appends"] = ledger
        out["info"]["journal_appends"] = journal_lines(
            root / "campaign" / campaign_journal.JOURNAL_NAME)
        self.last_info = out["info"]
        return out

    def traced_metrics(self) -> Dict[str, float]:
        """Worker wall from a lease's run ending to the next lease's run
        starting (or to the worker loop exiting after its last lease)."""
        gaps: List[float] = []
        for thread, spans in self.tracer.kept_spans().items():
            if not thread.startswith(WORKER_THREAD):
                continue
            runs = sorted((s, e) for n, s, e, _p in spans if n == "core.master:spec_run")
            loop_end = max((e for n, _s, e, _p in spans if n == "fabric:worker_loop"),
                           default=None)
            starts = [s for s, _e in runs[1:]] + ([loop_end] if loop_end else [])
            gaps.extend(nxt - end for (_s, end), nxt in zip(runs, starts))
        return {"fabric.lease_idle_s_per_lease": safe_div(sum(gaps), len(gaps))}

    def metrics(self, samples: Samples) -> Dict[str, float]:
        m = super().metrics(samples)
        m["campaign.journal_appends"] = self.last_info["journal_appends"]
        m["fabric.overhead_s_per_run"] = samples.median("fabric_overhead_s_per_run")
        m["fabric.ledger_appends"] = self.last_info["ledger_appends"]
        m["fabric.shutdown_s"] = samples.median("shutdown_s")
        return m


# ----------------------------------------------------------------------
# mesh_storm: kernel + medium only
# ----------------------------------------------------------------------
PING_PORT, PONG_PORT = 7, 8


def _pong(payload, packet, node) -> None:
    node.send_datagram({"r": payload["n"]}, dst_addr=packet.src_addr,
                       dst_port=PONG_PORT, src_port=PING_PORT, size=64, flow="load")


def _ping_tick(sim, node, dst_addr, interval, seq, remaining) -> None:
    node.send_datagram({"n": seq}, dst_addr=dst_addr, dst_port=PING_PORT,
                       src_port=PING_PORT, size=64, flow="load")
    if remaining > 1:
        sim.call_later(interval, _ping_tick, sim, node, dst_addr, interval,
                       seq + 1, remaining - 1)


class MeshStorm(Workload):
    """``bench_scale.py``'s fast-flavour packet storm, re-stated here: a
    geometric mesh where every node pings its farthest peer."""

    name = "mesh_storm"
    work_unit = "callbacks"

    def setup(self) -> None:
        size = self.size
        self.interval = size["storm_duration"] / (size["storm_ticks"] + 5)
        # The seed staggers the flows' first pings and drives the medium's
        # loss and back-off draws; the mesh itself is the fixed testbed.
        rng = random.Random(self.seed)
        self.phase = [rng.randrange(100) * 0.001 for _ in range(size["storm_nodes"])]
        # Farthest-pair selection on a throwaway topology so the timed mesh's
        # route caches are not warmed outside the timed region.
        topo = self._topology()
        ids = topo.intern_ids()
        names = topo.node_names
        index_of = {name: i for i, name in enumerate(names)}
        self.pairs = []
        for i, src in enumerate(names):
            src_id = ids[src]
            topo._route_row(src_id)
            dist = topo._dist_rows[src_id]
            far_id = max(range(len(dist)), key=lambda j: (dist[j], -j))
            self.pairs.append((i, index_of[topo.node_name(far_id)]))

    def _topology(self):
        return net_topology.random_geometric_topology(
            self.size["storm_nodes"], self.size["storm_radius"], seed=TESTBED_SEED)

    def rep(self) -> Dict[str, Any]:
        size = self.size
        with self.pipeline_span():
            started = time.perf_counter()
            net_packet.reset_uid_counter(1)
            topo = self._topology()
            sim = sim_kernel.Simulator()
            medium = net_medium.WirelessMedium(
                sim, topo, random.Random(self.seed * 7 + 1),
                congestion=net_medium.CongestionModel(capacity_bps=size["storm_capacity"]),
            )
            pongs = [0]

            def count_pong(payload, packet, node) -> None:
                pongs[0] += 1

            nodes = []
            for i, name in enumerate(topo.node_names):
                node = net_node.NetNode(sim, name, f"10.{i >> 16}.{(i >> 8) & 255}.{i & 255}")
                node.capture.enabled = False
                node.bind(PING_PORT, _pong)
                node.bind(PONG_PORT, count_pong)
                medium.attach(node)
                nodes.append(node)
            for i, (src, dst) in enumerate(self.pairs):
                sim.call_later(0.05 + self.phase[i], _ping_tick, sim, nodes[src],
                               nodes[dst].address, self.interval, 0, size["storm_ticks"])
            build_s = time.perf_counter() - started

            # The cycle collector's pauses depend on process history, not on the
            # kernel; refcounting still frees packets.
            gc.collect()
            gc.disable()
            try:
                run_started = time.perf_counter()
                sim.run(until=size["storm_duration"])
                run_s = time.perf_counter() - run_started
            finally:
                gc.enable()
            stats = medium.stats
            wall = time.perf_counter() - started
        self.exact.observe_all({
            "sim.callbacks": sim.executed_callbacks,
            "net.transmissions": stats.transmissions,
            "net.deliveries": stats.deliveries,
            "net.drops": stats.losses,
            "storm.pongs": pongs[0],
        })
        sent = len(self.pairs) * size["storm_ticks"]
        self.ops.check(0 < pongs[0] <= sent,
                       f"{pongs[0]} pongs came back for {sent} pings")
        self.ops.check(stats.deliveries + stats.losses >= stats.transmissions > sent,
                       "medium counters do not cover the pings sent")
        self.last_info = {
            "callbacks": sim.executed_callbacks, "transmissions": stats.transmissions,
            "deliveries": stats.deliveries, "drops": stats.losses,
        }
        return {
            "wall": wall, "work": sim.executed_callbacks, "work_s": run_s,
            "stages": {"build_s": build_s, "run_s": run_s}, "pooled": {},
            "info": self.last_info,
        }

    def metrics(self, samples: Samples) -> Dict[str, float]:
        info = self.last_info
        run_s = samples.median("run_s")
        return {
            "callbacks_per_s": safe_div(info["callbacks"], run_s),
            "transmissions_per_s": safe_div(info["transmissions"], run_s),
            "sim.callbacks": info["callbacks"],
            "net.transmissions": info["transmissions"],
            "net.deliveries": info["deliveries"],
            "net.drops": info["drops"],
        }


# ----------------------------------------------------------------------
# measurement_store: storage and warehouse only
# ----------------------------------------------------------------------
STORE_DESC_XML = """<experiment name="{name}" seed="{seed}">
  <platform>
    <actornode id="h1" address="10.0.0.1" abstract="A" />
    <actornode id="h2" address="10.0.0.2" abstract="B" />
    <envnode id="h3" address="10.0.0.3" />
    <envnode id="h4" address="10.0.0.4" />
  </platform>
</experiment>"""

STORE_NODES = ("h1", "h2", "h3", "h4")


def _store_records(run_id: int, node: str, count: int, offset: float):
    """One (run, node) collection batch in local chronological order."""
    base = run_id * 100.0
    events = [
        {"name": "op_start" if i % 2 == 0 else "op_done", "node": node,
         "local_time": base + i * 0.001 + offset, "params": [i],
         "run_id": run_id, "seq": i}
        for i in range(count)
    ]
    packets = [
        {"node": node, "local_time": base + i * 0.002 + offset, "uid": i,
         "src": "10.0.0.1", "dst": "10.0.0.2", "direction": "tx",
         "payload": f"pkt{i}", "run_id": run_id, "seq": i}
        for i in range(count // 2)
    ]
    return events, packets


def _small_package(root: Path, index: int, seed: int) -> Path:
    """One small level-3 package; four experiment families share partitions."""
    store = level2.Level2Store(root / f"l2-{index:03d}")
    store.write_description(
        STORE_DESC_XML.format(name=f"e2e-small-{index % 4}", seed=seed))
    runs = 10
    plan = [
        {"run_id": r, "treatment": {"f": r % 2}, "replication": r // 2,
         "treatment_index": r % 2, "seed": 1000 * index + r + seed}
        for r in range(runs)
    ]
    store.write_plan(plan)
    for r in range(runs):
        base = 1000.0 * index + 100.0 * r
        store.write_timesync(r, {"h1": {"offset": 0.0, "rtt": 0.001,
                                        "error_bound": 0.0005, "probes": 5}})
        store.write_run_info(r, {"run_id": r, "start_time": base,
                                 "treatment": plan[r]["treatment"]})
        events = [
            {"name": "sd_start_publish", "node": "h2", "local_time": base,
             "params": [], "run_id": r},
            {"name": "sd_start_search", "node": "h1", "local_time": base + 0.1,
             "params": [], "run_id": r},
            {"name": "sd_service_add", "node": "h1",
             "local_time": base + 0.4 + 0.01 * ((r + seed) % 3),
             "params": ["svc", "h2"], "run_id": r},
        ]
        events.extend(
            {"name": "probe_tick", "node": "h1", "local_time": base + 1.0 + 0.001 * i,
             "params": [i], "run_id": r}
            for i in range(247)
        )
        store.write_run_data("h1", r, events, [])
    return level3.store_level3(store, root / f"pkg-{index:03d}.db")


class MeasurementStore(Workload):
    """Synthetic campaign data through L2 → conditioning → L3 → L4 with
    reads beside writes; no simulator, no control plane."""

    name = "measurement_store"
    reps = 8
    work_unit = "records"
    READ_EVERY = 8

    def setup(self) -> None:
        size = self.size
        self.runs = size["store_runs"]
        self.per_run_node = size["store_events"] // (self.runs * len(STORE_NODES))
        rng = random.Random(self.seed)
        self.offsets = {node: round(rng.uniform(-0.5, 0.5), 6) for node in STORE_NODES}
        self.small = [
            _small_package(self.workdir / "small", i, self.seed)
            for i in range(size["store_packages"])
        ]
        self.records = self.runs * len(STORE_NODES) * (
            self.per_run_node + self.per_run_node // 2)

    def _ingest_l2(self, root: Path):
        """Level-2 ingest, one record per call as collection delivers them;
        only the writer calls are timed, not the record generation."""
        store = level2.Level2Store(root / "l2")
        store.write_description(STORE_DESC_XML.format(name="e2e-store", seed=self.seed))
        store.write_plan([{"run_id": r, "treatment": {}} for r in range(self.runs)])
        busy = 0.0
        for run_id in range(self.runs):
            batches = [
                (node,) + _store_records(run_id, node, self.per_run_node, self.offsets[node])
                for node in STORE_NODES
            ]
            started = time.perf_counter()
            store.write_timesync(run_id, {
                node: {"offset": off, "rtt": 0.001, "error_bound": 0.0005, "probes": 5}
                for node, off in self.offsets.items()
            })
            store.write_run_info(run_id, {"run_id": run_id, "start_time": run_id * 100.0,
                                          "treatment": {}})
            with store.run_writer(run_id) as writer:
                for node, events, packets in batches:
                    for ev in events:
                        writer.add_events(node, [ev])
                    for pk in packets:
                        writer.add_packets(node, [pk])
            busy += time.perf_counter() - started
        return store, busy

    def _l3_queries(self, db_path: Path) -> Dict[str, Any]:
        with level3.ExperimentDatabase(db_path) as db:
            pairs = db.event_pair_latencies("op_start", "op_done")
            scanned = sum(1 for _ in db.iter_events())
            infos = db.run_infos()
        return {"pairs": len(pairs), "scanned": scanned, "infos": len(infos)}

    def rep(self) -> Dict[str, Any]:
        root = self.fresh_dir()
        packages: List[Path] = [root / "l3.db"] + self.small
        wh_root = root / "wh"
        with self.pipeline_span():
            started = time.perf_counter()
            store, l2_s = self._ingest_l2(root)
            l3_started = time.perf_counter()
            db_path = level3.store_level3(store, packages[0])
            l3_s = time.perf_counter() - l3_started

            q_started = time.perf_counter()
            answers = self._l3_queries(db_path)
            l3_query_s = time.perf_counter() - q_started

            with repo_warehouse.Warehouse(wh_root) as warehouse:
                wh_started = time.perf_counter()
                with repo_queue.WriteBehindIngester(warehouse, batch_size=16) as queue:
                    for i, package in enumerate(packages, 1):
                        queue.submit(package)
                        if i % self.READ_EVERY == 0:
                            warehouse.event_counts()
                            warehouse.trend("probe_tick")
                    results = queue.flush()
                wh_ingest_s = time.perf_counter() - wh_started
                big = results[0].exp_id if results[0] is not None else 1
                passes = pipeline.timed_query_passes(warehouse, big)
                hits, misses = warehouse.cache.hits, warehouse.cache.misses
            wall = time.perf_counter() - started

        events = self.runs * len(STORE_NODES) * self.per_run_node
        # RunInfos holds one row per (run, node) plus the master's.
        infos = self.runs * (len(STORE_NODES) + 1)
        self.ops.check(
            (answers["pairs"], answers["scanned"], answers["infos"])
            == (self.runs, events, infos),
            f"L3 query set answered {answers}")
        refused = sum(1 for r in results if r is None or r.duplicate)
        self.ops.add(len(packages), refused, "warehouse refused packages")
        with repo_warehouse.Warehouse(wh_root) as warehouse:
            pipeline.check_warehouse_against_l3(warehouse, big, db_path, self.ops)
            self.ops.check(len(warehouse.experiments()) == len(packages),
                           "warehouse does not list every ingested package")

        l2_bytes = tree_bytes(root / "l2")
        l3_bytes = file_bytes(db_path)
        source_bytes = l3_bytes + sum(file_bytes(p) for p in self.small)
        self.exact.observe_all({
            "storage.level2.records": self.records,
            "storage.level2.bytes_per_run": safe_div(l2_bytes, self.runs),
            "storage.level3.rows": self.records + infos,
            "storage.level3.bytes": l3_bytes,
            "repo.journal_appends": journal_lines(wh_root / repo_journal.JOURNAL_FILE),
        })
        self.last_info = {
            "l2_bytes": l2_bytes, "l3_bytes": l3_bytes,
            "l3_rows": self.exact.first["storage.level3.rows"],
            "wh_bytes": tree_bytes(wh_root), "source_bytes": source_bytes,
            "repo_journal_appends": self.exact.first["repo.journal_appends"],
            "cache_hits": hits, "cache_misses": misses, "packages": len(packages),
        }
        return {
            "wall": wall, "work": self.records, "work_s": l2_s + l3_s,
            "stages": {
                "l2_s": l2_s, "l3_s": l3_s, "l3_query_s": l3_query_s,
                "wh_ingest_s": wh_ingest_s,
                "wh_query_s": passes["miss"] + passes["hit"],
                "wh_query_miss_s": passes["miss"], "wh_query_hit_s": passes["hit"],
            },
            "pooled": {}, "info": self.last_info,
        }

    def metrics(self, samples: Samples) -> Dict[str, float]:
        info = self.last_info
        return {
            "records_per_s": safe_div(
                self.records, samples.median("l2_s") + samples.median("l3_s")),
            "l3_query_ms": samples.median("l3_query_s") * 1e3,
            "wh_packages_per_s": safe_div(info["packages"], samples.median("wh_ingest_s")),
            "wh_query_ms": samples.median("wh_query_s") * 1e3,
            "storage.level2.write_s": samples.median("l2_s"),
            "storage.level2.records": self.records,
            "storage.level2.bytes_per_run": safe_div(info["l2_bytes"], self.runs),
            "storage.level3.store_s": samples.median("l3_s"),
            "storage.level3.rows": info["l3_rows"],
            "storage.level3.bytes": info["l3_bytes"],
            "storage.level3.query_s": samples.median("l3_query_s"),
            **_repo_metrics(samples, info),
        }


WORKLOADS = {
    cls.name: cls for cls in (SdCampaign, MeshStorm, MeasurementStore, FleetRegistry)
}
