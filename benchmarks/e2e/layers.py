"""The fixed entry-point table the traced run wraps, and what is read off it.

Span names are ``<layer>:<op>`` where *layer* is the module path under
``src/repro/``.  Nothing outside this table is wrapped; spans inside ``src/``
are a later change (ROADMAP item 5).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List

from repro.sd.agent import SDAgent
from repro.storage.level2 import Level2Store
from repro.storage.level3 import ExperimentDatabase

from common import safe_div
from tracer import Target, Tracer, by_layer

#: Spans in which the main thread only waits for other threads' work; the
#: table shares their time out over what those threads did meanwhile.
WAIT_SPANS = ("campaign:execute", "fabric:coordinator_wait", "repo:flush_wait")
#: Other threads' own waiting: takes no share of the main thread's wait.
IDLE_SPANS = ("fabric:worker_loop",)

FABRIC_SERVER = "fabric-coordinator"


# ----------------------------------------------------------------------
# Observers: counts taken where the work happens
# ----------------------------------------------------------------------
def _observe_handle_request(st, args, _kwargs, response_xml) -> None:
    server, request_xml = args[0], args[1]
    prefix = "fabric.server" if server.name == FABRIC_SERVER else "core.rpc"
    st.count(f"{prefix}.calls")
    st.count(f"{prefix}.bytes", len(request_xml) + len(response_xml))


def _observe_master_execute(st, args, _kwargs, _result) -> None:
    platform = args[0].platform
    st.count("sim.callbacks", platform.sim.executed_callbacks)
    medium = getattr(platform, "medium", None)
    if medium is not None:
        stats = medium.stats
        st.count("net.transmissions", stats.transmissions)
        st.count("net.deliveries", stats.deliveries)
        st.count("net.drops", stats.losses)


def _observe_spec_run(st, _args, _kwargs, result) -> None:
    st.count("campaign.runs")
    st.count("campaign.run_wall_s", result["duration"])


def _observe_writer_close(st, args, _kwargs, _result) -> None:
    # close() is idempotent; only the first close of a writer reports.
    writer = args[0]
    if not getattr(writer, "_bench_counted", False):
        writer._bench_counted = True
        st.count("storage.level2.records", writer.records_written)


def _observe_encode(st, _args, _kwargs, text) -> None:
    st.count("fabric.ship_bytes", len(text))


def _observe_lease_append(name: str):
    def observe(st, _args, _kwargs, _result) -> None:
        st.count(name)
    return observe


# ----------------------------------------------------------------------
# The table
# ----------------------------------------------------------------------
def _prefixed_methods(cls, module: str, prefixes: Iterable[str], span: str,
                      skip: Iterable[str] = ()) -> List[Target]:
    names = sorted(
        name for name, value in vars(cls).items()
        if callable(value) and name.startswith(tuple(prefixes)) and name not in skip
    )
    return [Target(span, f"{module}:{cls.__name__}.{name}") for name in names]


def _sd_action_targets() -> List[Target]:
    """``action_*`` on SDAgent and on every loaded subclass that overrides one."""
    import repro.platforms.simulated  # noqa: F401 - loads every agent class

    seen, stack, out = set(), [SDAgent], []
    while stack:
        cls = stack.pop()
        if cls in seen:
            continue
        seen.add(cls)
        stack.extend(cls.__subclasses__())
        out.extend(_prefixed_methods(cls, cls.__module__, ("action_",), "sd:action"))
    return out


def targets() -> List[Target]:
    L2, L3 = "repro.storage.level2", "repro.storage.level3"
    table = [
        Target("core.xmlio:parse", "repro.core.xmlio:description_from_xml"),
        Target("core.xmlio:serialise", "repro.core.xmlio:description_to_xml"),
        Target("core.plan:generate", "repro.core.plan:generate_plan"),
        Target("platforms.simulated:build",
               "repro.platforms.simulated:SimulatedPlatform.__init__"),
        Target("core.master:spec_run", "repro.core.master:execute_spec_run",
               observe=_observe_spec_run),
        Target("core.master:execute", "repro.core.master:ExperiMaster.execute",
               observe=_observe_master_execute),
        Target("core.rpc:call", "repro.core.rpc:ControlChannel.call", kind="gen", hot=True),
        Target("core.rpc:handle_request", "repro.core.rpc:RpcServer.handle_request",
               hot=True, observe=_observe_handle_request),
        Target("core.rpc:dump_request", "repro.core.rpc:dump_request", hot=True),
        Target("core.rpc:load_response", "repro.core.rpc:load_response", hot=True),
        Target("core.timesync:measure", "repro.core.timesync:measure_offsets", kind="gen"),
        Target("core.topomeasure:snapshot", "repro.core.topomeasure:snapshot_topology"),
        Target("core.topomeasure:hop_counts", "repro.core.topomeasure:measure_hop_counts"),
        Target("sim:run", "repro.sim.kernel:Simulator.run"),
        Target("net:topology", "repro.net.topology:random_geometric_topology"),
        Target("net:attach", "repro.net.medium:WirelessMedium.attach"),
        Target("net:transmit", "repro.net.medium:WirelessMedium.transmit", hot=True),
        Target("net:capture", "repro.net.capture:PacketCapture.record", hot=True),
        Target("storage.level2:write", f"{L2}:RunWriter.append", hot=True),
        Target("storage.level2:write", f"{L2}:RunWriter.close",
               observe=_observe_writer_close),
        Target("storage.level2:write_topology", f"{L2}:Level2Store.write_topology"),
        Target("storage.conditioning:run", "repro.storage.conditioning:condition_run"),
        Target("storage.conditioning:scope", "repro.storage.conditioning:condition_scope"),
        Target("storage.level3:store", f"{L3}:store_level3"),
        Target("storage.level3:insert", f"{L3}:insert_run"),
        Target("storage.level3:insert", f"{L3}:insert_experiment_scope"),
        Target("storage.level3:query", f"{L3}:ExperimentDatabase.iter_events", kind="gen"),
        Target("storage.level3:query", f"{L3}:ExperimentDatabase.iter_packets", kind="gen"),
        Target("campaign:execute", "repro.campaign.engine:CampaignEngine.execute"),
        Target("campaign:stage", "repro.campaign.merge:ShardWriter.stage_run"),
        Target("campaign:merge", "repro.campaign.merge:merge_shards"),
        Target("campaign:digest", "repro.campaign.merge:database_digest"),
        Target("fabric:coordinator_start", "repro.fabric.coordinator:FabricCoordinator.start"),
        Target("fabric:coordinator_wait",
               "repro.fabric.coordinator:FabricCoordinator.run_until_complete"),
        Target("fabric:finalize", "repro.fabric.coordinator:FabricCoordinator.finalize"),
        Target("fabric:coordinator_stop", "repro.fabric.coordinator:FabricCoordinator.stop"),
        Target("fabric:worker_loop", "repro.fabric.worker:FabricWorker.run_forever"),
        Target("fabric:wire", "repro.fabric.wire:FleetChannel.call"),
        Target("fabric:ledger", "repro.fabric.leases:LeaseStore.grant",
               observe=_observe_lease_append("fabric.lease_grants")),
        Target("fabric:ledger", "repro.fabric.leases:LeaseStore.renew",
               observe=_observe_lease_append("fabric.renewals")),
        Target("fabric:ledger", "repro.fabric.leases:LeaseStore.ack"),
        Target("fabric:ledger", "repro.fabric.leases:LeaseStore.close"),
        Target("fabric:ledger", "repro.fabric.leases:LeaseStore.fence"),
        Target("fabric:ack", "repro.fabric.dispatch:LeaseDispatcher.ack_completed"),
        Target("fabric:ack", "repro.fabric.shipping:decode_payload"),
        Target("fabric:ack", "repro.fabric.shipping:CoordinatorShard.ingest"),
        Target("fabric:encode", "repro.fabric.shipping:encode_payload",
               observe=_observe_encode),
        Target("fabric:encode", "repro.fabric.shipping:extract_run_rows"),
        Target("fabric:encode", "repro.fabric.shipping:encode_scope"),
        Target("repo:ingest", "repro.repo.warehouse:Warehouse.ingest_many"),
        Target("repo:fingerprint", "repro.repo.fingerprint:fingerprint_package"),
        Target("repo:journal", "repro.repo.journal:IngestJournal.append_many"),
        Target("repo:copy", "repro.repo.shard:copy_batch_into_shard"),
        Target("repo:view_refresh", "repro.repo.views:refresh_experiment_views"),
        Target("repo:query", "repro.repo.warehouse:Warehouse.stats"),
        Target("repo:query", "repro.repo.warehouse:Warehouse.event_counts"),
        Target("repo:query", "repro.repo.warehouse:Warehouse.fault_breakdown"),
        Target("repo:query", "repro.repo.warehouse:Warehouse.responsiveness_surface"),
        Target("repo:query", "repro.repo.warehouse:Warehouse.trend"),
        Target("repo:flush_wait", "repro.repo.queue:WriteBehindIngester.flush"),
        Target("analysis:responsiveness", "repro.analysis.responsiveness:run_outcomes"),
        Target("analysis:responsiveness",
               "repro.analysis.responsiveness:responsiveness_by_treatment"),
    ]
    table += _prefixed_methods(
        Level2Store, L2, ("write_", "append_"), "storage.level2:write",
        skip=("write_topology",),
    )
    table += _prefixed_methods(Level2Store, L2, ("read_",), "storage.level2:read")
    table += [
        Target("storage.level3:query", f"{L3}:ExperimentDatabase.{name}")
        for name in ("events", "packets", "run_infos", "event_pair_latencies",
                     "row_counts", "run_ids", "node_ids", "plan")
        if name in vars(ExperimentDatabase)
    ]
    table += [
        Target("campaign:journal", f"repro.campaign.journal:CampaignJournal.{name}")
        for name in ("record_start", "record_run_start", "record_run_complete",
                     "record_complete", "record_worker_registered")
    ]
    table += _sd_action_targets()
    return table


# ----------------------------------------------------------------------
# Read-out
# ----------------------------------------------------------------------
def breakdown(tracer: Tracer) -> Dict[str, float]:
    """Per-layer self seconds plus ``bench`` (wall under no wrapped call);
    the values sum to the traced wall."""
    return by_layer(tracer.table(WAIT_SPANS, IDLE_SPANS))


def traced_metrics(tracer: Tracer, runs: int) -> Dict[str, float]:
    """Per-layer metrics that only the traced run can give.

    ``<layer>.busy_s`` is self time over all threads; every other ``*_s`` is
    the inclusive time of the named entry point(s).
    """
    self_s = tracer.self_times()
    total = tracer.total_times()
    calls = tracer.span_counts()
    counts = tracer.counters()
    busy = by_layer(self_s)

    def c(name: str) -> float:
        return counts.get(name, 0)

    m: Dict[str, Any] = {f"{layer}.busy_s": busy.get(layer, 0.0) for layer in (
        "core.master", "core.rpc", "core.timesync", "core.topomeasure", "sim", "sd",
        "storage.conditioning",
    )}
    m.update({
        "core.xmlio.parse_s": total.get("core.xmlio:parse", 0.0),
        "core.plan.generate_s": total.get("core.plan:generate", 0.0),
        "platforms.simulated.build_s_per_run":
            safe_div(total.get("platforms.simulated:build", 0.0), runs),
        "core.rpc.calls_per_run": safe_div(c("core.rpc.calls"), runs),
        "core.rpc.bytes_per_run": safe_div(c("core.rpc.bytes"), runs),
        "sim.callbacks": c("sim.callbacks"),
        "net.transmissions": c("net.transmissions"),
        "net.deliveries": c("net.deliveries"),
        "net.drops": c("net.drops"),
        "net.transmit_busy_s": self_s.get("net:transmit", 0.0),
        "net.capture_busy_s": self_s.get("net:capture", 0.0),
        "sd.actions": calls.get("sd:action", 0),
        "storage.level2.write_s": total.get("storage.level2:write", 0.0)
            + total.get("storage.level2:write_topology", 0.0),
        "storage.level2.records": c("storage.level2.records"),
        "storage.level2.topology_write_s": total.get("storage.level2:write_topology", 0.0),
        "storage.level2.read_s": total.get("storage.level2:read", 0.0),
        "storage.conditioning.records_per_s": safe_div(
            c("storage.level2.records"), busy.get("storage.conditioning", 0.0)),
        "storage.level3.store_s": self_s.get("storage.level3:store", 0.0)
            + self_s.get("storage.level3:insert", 0.0),
        "storage.level3.query_s": total.get("storage.level3:query", 0.0),
        "campaign.journal_s": total.get("campaign:journal", 0.0),
        "campaign.stage_s": total.get("campaign:stage", 0.0),
        "campaign.merge_s": total.get("campaign:merge", 0.0),
        "campaign.digest_s": total.get("campaign:digest", 0.0),
        "fabric.lease_grants": c("fabric.lease_grants"),
        "fabric.renewals": c("fabric.renewals"),
        "fabric.ledger_s": total.get("fabric:ledger", 0.0),
        "fabric.wire_calls": calls.get("fabric:wire", 0),
        "fabric.wire_busy_s": self_s.get("fabric:wire", 0.0),
        "fabric.ship_bytes_per_run": safe_div(c("fabric.ship_bytes"), runs),
        "fabric.encode_s": total.get("fabric:encode", 0.0),
        "fabric.ack_s": self_s.get("fabric:ack", 0.0),
        "repo.ingest_s": total.get("repo:ingest", 0.0),
        "repo.ingest_batches": calls.get("repo:ingest", 0),
        "repo.view_refresh_s": total.get("repo:view_refresh", 0.0),
        "analysis.responsiveness_s": total.get("analysis:responsiveness", 0.0),
    })
    return m
