"""The ExperiMaster: the controlling entity of an experiment run.

Sec. VI-A: *"The controlling ExperiMaster maintains a list of objects
corresponding to the active nodes in the experiment, on which actions will
be executed. ... Which action is executed at which time is specified in
process descriptions loaded from the experiment description file."*

A master drives the workflow of Fig. 3 over exactly one run of the
treatment plan:

1. validate the description, generate the treatment plan, store the
   description, the plan and the EE version,
2. ``experiment_init`` everywhere, topology snapshot *before*,
3. the run: **preparation** (reset, settle, clock sync), **execution**
   (spawn actor / manipulation / environment processes, wait for the
   actor processes, backstopped by ``max_run_duration``), **clean-up**
   (drain manipulations, stop leftovers, ``run_exit``, collect into
   level-2 storage),
4. the ``run_spacing`` quiet time, topology snapshot *after*, plugin +
   node collection, ``experiment_exit``.

A series of runs is a campaign (:mod:`repro.campaign`): every run gets
its own master, platform and kernel, so a run's data is a pure function
of (description, run id) whichever entry point executed it.  Everything
the master does is a simulation process; :meth:`execute` spins the kernel
until the run's experiment lifecycle completes.
"""

from __future__ import annotations

import gc
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.core.actions import default_registry
from repro.core.description import EE_VERSION, ExperimentDescription
from repro.core.errors import ExCoveryError, ExecutionError, RunAbortedError
from repro.core.events import EventBus, ExEvent
from repro.core.params import SpecialParams
from repro.core.plan import Run, TreatmentPlan, generate_plan
from repro.core.runner import ProcessInterpreter, ProcessScope, RunBinding
from repro.core.timesync import measure_offsets
from repro.core.validation import validate_description
from repro.core.plugins import PluginManager
from repro.faults.manipulations import EnvContext, EnvironmentController
from repro.obs.trace import Tracer
from repro.obs.metrics import get_registry
from repro.sim.kernel import SimulationError
from repro.storage.level2 import Level2Store, encode_block

__all__ = ["ExperiMaster", "ExperimentResult", "MASTER_NODE_ID", "execute_spec_run"]

#: Node identifier under which master-side events and data are stored.
MASTER_NODE_ID = "master"


@dataclass
class ExperimentResult:
    """What :meth:`ExperiMaster.execute` returns."""

    description: ExperimentDescription
    store: Level2Store
    plan: TreatmentPlan
    run_id: int
    #: The run hit the ``max_run_duration`` backstop.
    timed_out: bool = False
    #: Reference (kernel) duration of the whole execution, seconds.
    duration: float = 0.0


class ExperiMaster:
    """Executes one run of an experiment description on a platform.

    Parameters
    ----------
    platform:
        A platform object satisfying :class:`repro.platforms.base.Platform`.
    description:
        The abstract experiment description.
    store:
        Level-2 store receiving the run's raw data and the experiment
        scope (description, plan, topology, node logs).
    run_id:
        The plan's run to execute.
    plugins:
        A :class:`~repro.core.plugins.PluginManager` (optional); its
        actions join the built-ins in the master's action registry.
    custom_treatments:
        Optional explicit treatment sequence replacing the default OFAT
        expansion — the paper's "custom factor level variation plan"
        (Sec. IV-C1).  Build one with :mod:`repro.core.designs`.

    Each master builds its own harness span tracer
    (:class:`repro.obs.trace.Tracer`, honouring ``REPRO_TRACE``) and hands
    it to the control channel, the fault controllers and the environment
    controller; the run's spans are drained into the level-2 store during
    collection.  Tracing is wall-clocked and RNG-free, so it never
    perturbs results (DESIGN.md §12).
    """

    def __init__(
        self,
        platform,
        description: ExperimentDescription,
        store: Level2Store,
        run_id: int,
        *,
        plugins: Optional[PluginManager] = None,
        custom_treatments: Optional[List[Dict[str, Any]]] = None,
    ) -> None:
        self.platform = platform
        self.description = description
        self.store = store
        self.run_id = run_id
        self.plugins = plugins or PluginManager()
        self.registry = default_registry()
        self.plugins.extend_registry(self.registry)
        self.custom_treatments = custom_treatments

        self.sim = platform.sim
        self.channel = platform.channel
        self.params = SpecialParams(description.special_params)
        self.bus = EventBus(self.sim)
        #: Harness observability: one tracer per master, shared with every
        #: component the master drives (never across masters — campaign
        #: workers each build their own, so spans cannot interleave).
        self.tracer = Tracer()
        self.env_controller = EnvironmentController(
            self.sim, self.channel, emit=self._emit_env_event
        )
        self.env_controller.tracer = self.tracer
        self.channel.tracer = self.tracer
        self.channel.set_master_handler(self._on_node_upcall)

        self._run_events: Dict[int, List[Dict[str, Any]]] = {}
        self._exp_events: List[Dict[str, Any]] = []
        self._current_run_id: Optional[int] = None

    # ------------------------------------------------------------------
    # Event plumbing
    # ------------------------------------------------------------------
    def _on_node_upcall(self, record: Dict[str, Any]) -> None:
        """A node forwarded an event over the control channel."""
        self.bus.register(ExEvent.from_record(record))

    def emit_master(self, name: str, params=(), run_id: Optional[int] = None) -> ExEvent:
        """Generate a master-side event (reference clock timestamps)."""
        event = ExEvent(
            name=name,
            node=MASTER_NODE_ID,
            local_time=self.sim.now,
            params=tuple(params),
            run_id=run_id,
        )
        record = event.as_record()
        if run_id is None:
            self._exp_events.append(record)
        else:
            self._run_events.setdefault(run_id, []).append(record)
        self.bus.register(event)
        return event

    def _emit_env_event(self, name: str, params=()) -> None:
        self.emit_master(name, params=params, run_id=self._current_run_id)

    def env_context(self, binding: RunBinding) -> EnvContext:
        acting = binding.acting_platform_nodes()
        all_nodes = [n.node_id for n in self.description.platform.nodes]
        env_nodes = [n for n in all_nodes if n not in acting]
        return EnvContext(
            run_id=binding.run.run_id,
            replication=binding.run.replication,
            acting_nodes=acting,
            env_nodes=env_nodes,
            addr_of=self.platform.addr_of,
        )

    # ------------------------------------------------------------------
    # Public entry point
    # ------------------------------------------------------------------
    def execute(self) -> ExperimentResult:
        """Run the experiment lifecycle around the run; returns the result.

        Any unhandled failure propagates after the kernel stops; the
        master's own framework errors (:class:`ExecutionError`,
        :class:`RunAbortedError`, ...) are unwrapped from the kernel's
        crash report.
        """
        plan = generate_plan(
            self.description.factors,
            self.description.seed,
            custom_treatments=self.custom_treatments,
        )
        if not 0 <= self.run_id < len(plan):
            raise ExecutionError(f"plan has no run {self.run_id} ({len(plan)} runs)")
        started_at = self.sim.now
        done = self.sim.event(name="experiment-done")
        result = ExperimentResult(
            description=self.description, store=self.store, plan=plan, run_id=self.run_id
        )
        self.sim.process(self._main(result, done), name="experimaster")
        try:
            self.sim.run(
                until_event=done,
                realtime_factor=getattr(self.platform, "realtime_factor", None),
            )
        except SimulationError as exc:
            # The master runs as a simulation process: callers see its
            # framework error, not the kernel's crash report.
            if isinstance(exc.__cause__, ExCoveryError):
                raise exc.__cause__ from exc
            raise
        result.duration = self.sim.now - started_at
        return result

    # ------------------------------------------------------------------
    # Main experiment process
    # ------------------------------------------------------------------
    def _main(self, result: ExperimentResult, done):
        desc = self.description
        report = validate_description(desc, self.registry)
        report.raise_if_failed()

        from repro.core.xmlio import description_to_xml

        self.store.write_description(description_to_xml(desc))
        self.store.write_plan(result.plan.describe())
        self.store.write_eefile(
            "VERSION", f"{EE_VERSION}\nfingerprint={desc.fingerprint()}\n"
        )

        node_ids = [n.node_id for n in desc.platform.nodes]
        self.platform.check_nodes(node_ids)
        self._install_plugin_handlers(node_ids)
        for node_id in node_ids:
            manager = self.platform.node_managers.get(node_id)
            if manager is not None:
                manager.set_tracer(self.tracer)

        # --- experiment initialization --------------------------------
        init_span = self.tracer.start_span("experiment_init", nodes=len(node_ids))
        self.emit_master("experiment_init", params=(desc.name,))
        for node_id in node_ids:
            yield from self.channel.call(node_id, "experiment_init", desc.name)
        self.store.write_topology("before", self.platform.topology_measurement())
        self.plugins.experiment_init(self)
        init_span.end()

        # --- the run ---------------------------------------------------
        result.timed_out = yield from self._execute_run(result.plan[self.run_id])
        spacing = self.params.get("run_spacing")
        if spacing > 0:
            yield self.sim.timeout(spacing)

        # --- experiment teardown ---------------------------------------
        exit_span = self.tracer.start_span("experiment_collect", nodes=len(node_ids))
        self.store.write_topology("after", self.platform.topology_measurement())
        for name, content in self.plugins.experiment_exit(self).items():
            self.store.write_experiment_measurement(name, content)
        logs: Dict[str, str] = {}
        event_blocks: Dict[str, str] = {}
        for node_id in node_ids:
            yield from self.channel.call(node_id, "experiment_exit")
            data = yield from self.channel.call(node_id, "collect_experiment")
            logs[node_id] = data["log"]
            event_blocks[node_id] = data["events"]
        self.emit_master("experiment_exit", params=(desc.name,))
        event_blocks[MASTER_NODE_ID] = encode_block(self._exp_events)
        self.store.write_node_collections(logs, event_blocks)
        exit_span.end()
        self.store.append_experiment_traces(self.tracer.drain(None))
        done.trigger(True)

    def _install_plugin_handlers(self, node_ids: List[str]) -> None:
        """Install action plugins' node-side handlers on every participating
        NodeManager (the node half of the Sec. IV-D2 plugin concept).

        A plugin handler has the signature ``handler(node_manager, params)``
        so one plugin instance can serve every node; it is adapted to the
        NodeManager's ``handler(params)`` convention per node.
        """
        for plugin in self.plugins.action:
            for name, handler in plugin.node_handlers().items():
                for node_id in node_ids:
                    manager = self.platform.node_managers.get(node_id)
                    if manager is None:
                        continue
                    manager.register_action_handler(
                        name,
                        (lambda params, _h=handler, _nm=manager: _h(_nm, params)),
                    )

    # ------------------------------------------------------------------
    # The run
    # ------------------------------------------------------------------
    def _execute_run(self, run: Run):
        """The run lifecycle (preparation → execution → clean-up) as one
        generator, spun inside this master's kernel once ``experiment_init``
        is done; returns whether the run hit the ``max_run_duration``
        backstop.

        Each phase can carry a watchdog deadline (``prep_deadline`` /
        ``exec_deadline`` / ``cleanup_deadline`` special parameters); an
        overrun aborts the run with :class:`RunAbortedError`, which the
        campaign records as ``run_failed`` and retries (DESIGN.md §10).
        """
        binding = self._make_binding(run)
        node_ids = [n.node_id for n in self.description.platform.nodes]
        self._current_run_id = run.run_id
        self.tracer.current_run = run.run_id
        run_span = self.tracer.start_span(
            "run", run_id=run.run_id, replication=run.replication
        )
        start_time = self.sim.now
        self.emit_master("run_init", params=(run.run_id,), run_id=run.run_id)

        yield from self._guard_phase(
            run.run_id, "preparation",
            self._preparation_phase(binding, node_ids, start_time),
            self.params.get("prep_deadline"),
        )
        timed_out, other_procs = yield from self._guard_phase(
            run.run_id, "execution",
            self._execution_phase(binding),
            self.params.get("exec_deadline"),
        )
        yield from self._guard_phase(
            run.run_id, "cleanup",
            self._cleanup_phase(binding, node_ids, other_procs),
            self.params.get("cleanup_deadline"),
        )
        self._current_run_id = None
        run_span.end(timed_out=timed_out)
        self.tracer.current_run = None
        # Persist the run's spans through the same buffered writer path as
        # events/packets; the collection writer has already closed, so the
        # cleanup phase's own duration is included.
        records = self.tracer.drain(run.run_id)
        if records:
            with self.store.run_writer(run.run_id) as writer:
                writer.add_traces(MASTER_NODE_ID, records)
        return timed_out

    def _guard_phase(self, run_id: int, phase: str, gen, deadline: float):
        """Drive one phase sub-generator, optionally under a watchdog.

        With no deadline the generator is inlined (``yield from``) —
        byte-identical scheduling to the pre-watchdog master.  With a
        deadline the phase runs as a child process raced against a
        timeout; an overrun interrupts the phase cleanly and raises
        :class:`RunAbortedError`.
        """
        span = self.tracer.start_span(phase, run_id=run_id)
        if deadline is None or deadline <= 0:
            try:
                result = yield from gen
            except BaseException as exc:
                span.end(status="error", error=f"{type(exc).__name__}: {exc}")
                raise
            span.end()
            return result
        proc = self.sim.process(gen, name=f"phase:{phase}:run{run_id}")
        expiry = self.sim.timeout(deadline, name=f"phase-deadline:{phase}")
        try:
            fired, _value = yield self.sim.any_of(proc, expiry)
        except BaseException as exc:
            span.end(status="error", error=f"{type(exc).__name__}: {exc}")
            raise
        if fired is expiry and not proc.triggered:
            self.emit_master(
                "run_phase_deadline", params=(run_id, phase, deadline), run_id=run_id
            )
            if proc.alive:
                proc.interrupt("phase_deadline")
            span.end(status="error", error="phase_deadline", deadline=deadline)
            raise RunAbortedError(
                f"run {run_id} {phase} phase exceeded its {deadline}s deadline",
                run_id=run_id,
                phase=phase,
            )
        span.end()
        return proc.value

    # ---- preparation phase -------------------------------------------
    def _preparation_phase(self, binding: RunBinding, node_ids: List[str],
                           start_time: float):
        run = binding.run
        # Platform-level per-run reset first (reseeds shared-medium and
        # control-channel RNG streams so every run's randomness is a pure
        # function of (experiment seed, run id) — resume-safe).
        self.platform.on_run_init(run.run_id)
        for node_id in node_ids:
            yield from self.channel.call(node_id, "run_init", run.run_id)
        settle = self.params.get("run_settle_time")
        if settle > 0:
            yield self.sim.timeout(settle)
        sync = yield from measure_offsets(
            self.sim, self.channel, node_ids, probes=self.params.get("sync_probes")
        )
        self.store.write_timesync(
            run.run_id, {nid: m.as_record() for nid, m in sync.items()}
        )
        self.store.write_run_info(
            run.run_id,
            {
                "run_id": run.run_id,
                "start_time": start_time,
                "treatment": {k: _json_safe(v) for k, v in run.treatment.items()},
                "seed": run.seed,
            },
        )
        self.plugins.run_init(self, run)

    # ---- execution phase ---------------------------------------------
    def _execution_phase(self, binding: RunBinding):
        desc = self.description
        run = binding.run
        actor_procs = []
        other_procs = []
        for actor in desc.actors:
            for inst_id, node_id in sorted(binding.actor_instances(actor.actor_id).items()):
                scope = ProcessScope(
                    kind="node",
                    label=f"{actor.actor_id}[{inst_id}]",
                    node_id=node_id,
                )
                interp = ProcessInterpreter(self, binding, scope, actor.actions)
                actor_procs.append(
                    self.sim.process(interp.run(), name=f"proc:{scope.label}")
                )
        for i, manip in enumerate(desc.manipulations):
            targets: List[str] = []
            if manip.actor_id is not None:
                targets = sorted(binding.actor_instances(manip.actor_id).values())
            elif manip.node_id is not None:
                targets = [binding.platform_node(manip.node_id)]
            for node_id in targets:
                scope = ProcessScope(
                    kind="node", label=f"manip{i}@{node_id}", node_id=node_id
                )
                interp = ProcessInterpreter(self, binding, scope, manip.actions)
                other_procs.append(
                    self.sim.process(interp.run(), name=f"proc:{scope.label}")
                )
        for i, env in enumerate(desc.environment_processes):
            scope = ProcessScope(kind="env", label=f"env{i}:{env.name}")
            interp = ProcessInterpreter(self, binding, scope, env.actions)
            other_procs.append(
                self.sim.process(interp.run(), name=f"proc:{scope.label}")
            )

        timed_out = False
        max_duration = self.params.get("max_run_duration")
        if actor_procs:
            all_done = self.sim.all_of(*actor_procs)
            backstop = self.sim.timeout(max_duration, name="run-backstop")
            fired, _value = yield self.sim.any_of(all_done, backstop)
            if fired is backstop and not all_done.triggered:
                timed_out = True
                self.emit_master("run_timeout", params=(run.run_id,), run_id=run.run_id)
                for proc in actor_procs:
                    if proc.alive:
                        proc.interrupt("run_timeout")
        return timed_out, other_procs

    # ---- clean-up phase ----------------------------------------------
    def _cleanup_phase(self, binding: RunBinding, node_ids: List[str],
                       other_procs):
        run = binding.run
        # Give manipulation/environment processes a grace period to wind
        # down on their own (they typically wait for the 'done' flag).
        alive = [p for p in other_procs if p.alive]
        if alive:
            grace = self.sim.timeout(5.0, name="cleanup-grace")
            yield self.sim.any_of(self.sim.all_of(*alive), grace)
            for proc in alive:
                if proc.alive:
                    proc.interrupt("run_cleanup")
        yield from self.env_controller.cleanup()

        collect_packets = self.params.get("collect_packets")
        for node_id in node_ids:
            yield from self.channel.call(node_id, "run_exit", run.run_id)
        # One buffered writer covers the whole collection: file handles
        # stay open across nodes and batches are flushed together instead
        # of paying an open/append/close per (node, stream) call.  The
        # nodes encoded their records; the writer frames the lines verbatim.
        with self.store.run_writer(run.run_id) as writer:
            for node_id in node_ids:
                data = yield from self.channel.call(
                    node_id, "collect_run", run.run_id, collect_packets
                )
                writer.add_block(node_id, "events.jsonl", data["events"])
                # "" without packets: the marker frame keeps node_ids() whole.
                writer.add_block(node_id, "packets.jsonl", data["packets"])
            self.emit_master("run_exit", params=(run.run_id,), run_id=run.run_id)
            writer.add_events(MASTER_NODE_ID, self._run_events.pop(run.run_id, []))
            writer.add_packets(MASTER_NODE_ID, [])
        for plugin_name, content in self.plugins.run_exit(self, run).items():
            self.store.write_extra_measurement(
                MASTER_NODE_ID, run.run_id, plugin_name, content
            )
        self.platform.on_run_exit(run.run_id)

    # ------------------------------------------------------------------
    def _make_binding(self, run: Run) -> RunBinding:
        desc = self.description
        map_factor = desc.factors.actor_map_factor()
        if map_factor is not None:
            actor_map = run.treatment[map_factor.id]
        else:
            actor_map = {}
        abstract_to_platform = {
            n.abstract_id: n.node_id
            for n in desc.platform.nodes
            if n.abstract_id is not None
        }
        return RunBinding(
            run=run,
            actor_map=actor_map,
            abstract_to_platform=abstract_to_platform,
        )


def _json_safe(value: Any) -> Any:
    """Treatment values must survive JSON (actor maps are nested dicts)."""
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


# ----------------------------------------------------------------------
# Spec execution: the one-run worker entry point
# ----------------------------------------------------------------------
def build_run_spec(
    campaign_dir,
    description_xml: str,
    run_id: int,
    worker: str,
    custom_treatments: Optional[List[Dict[str, Any]]] = None,
    config=None,
    realtime_factor: Optional[float] = None,
    control_faults: Optional[List[Dict[str, Any]]] = None,
) -> Dict[str, Any]:
    """The spec :func:`execute_spec_run` consumes, for one run on *worker*.

    *worker* (a local pool's slot label, a fleet worker's id) names the
    staging subtree and the shard, so no two workers share an output
    file.
    """
    return {
        "campaign_dir": str(campaign_dir),
        "description_xml": description_xml,
        "custom_treatments": custom_treatments,
        "config": config,
        "realtime_factor": realtime_factor,
        "run_id": run_id,
        "store": f"staging/{worker}/run_{run_id:06d}",
        "shard": f"shards/{worker}.db",
        "control_faults": control_faults or [],
    }


#: Admits one pure-DES run per interpreter at a time (see execute_spec_run).
_RUN_TURNSTILE = threading.Lock()


def execute_spec_run(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Execute one campaign run from a plain picklable *spec*.

    The single worker-side entry point shared by the local campaign
    engine's pool workers and the fabric's fleet workers: everything the
    run needs arrives as JSON-able values (plus an optional platform
    config), everything it produces lands on disk under
    ``spec["campaign_dir"]``, and the returned dict only carries pointers
    and statistics back to the caller — plus, for the plan's first run,
    the encoded experiment scope (``"scope"``; ``None`` for every other
    run), which the campaign session persists as ``scope.json``.

    Spec keys (see :func:`build_run_spec`): ``campaign_dir``,
    ``description_xml``, ``custom_treatments``, ``config``,
    ``realtime_factor``, ``run_id``, ``store`` / ``shard`` (paths
    relative to the campaign dir) and optional
    ``control_faults`` (already filtered to this attempt and session).

    Determinism contract: the run's staged data is a pure function of
    (description, run id) — which host executes the spec, how often, and
    in what order is invisible in the output.

    One run owns the interpreter: at most one pure-DES run computes per
    process, and the cyclic collector is paused while it does — its world
    stays reachable until it returns, so a mid-run collection frees nothing
    and only promotes it (DESIGN.md §8).  Cyclic garbage made during the
    run waits until it returns, which bounds it by one run.
    """
    if spec["realtime_factor"] is not None:
        return _execute_spec_run(spec, None)
    asked = time.monotonic()
    with _RUN_TURNSTILE:
        enabled = gc.isenabled()
        gc.disable()
        try:
            # The run's frame is gone before the collector resumes, so
            # nothing references its world: the first young collection
            # frees it instead of promoting it.
            return _execute_spec_run(spec, time.monotonic() - asked)
        finally:
            if enabled:
                gc.enable()


def _execute_spec_run(spec: Dict[str, Any], waited: Optional[float]) -> Dict[str, Any]:
    """:func:`execute_spec_run` once admitted; *waited* is the turnstile wait
    (``None`` for a wall-clock-paced run, which takes neither turnstile nor
    pause: it sleeps most of the time)."""
    import os
    import shutil
    from pathlib import Path

    from repro.campaign.merge import ShardWriter
    from repro.core.xmlio import description_from_xml
    from repro.obs.analyze import phase_durations
    from repro.obs.metrics import diff_snapshots
    from repro.platforms.localhost import LocalhostPlatform
    from repro.platforms.simulated import SimulatedPlatform
    from repro.storage.conditioning import condition_scope, encode_scope

    started = time.monotonic()
    # With a process pool this worker owns a private registry; the parent
    # folds the per-ticket delta back in (keyed on pid).  With a thread
    # pool the registry *is* the parent's and no fold-in happens, so
    # nothing is counted twice either way.
    registry = get_registry()
    metrics_before = registry.snapshot()
    if waited is not None:
        registry.histogram(
            "repro_run_turnstile_wait_seconds",
            "Wall seconds a pure-DES run waited for its process's run turnstile",
        ).observe(waited)
    root = Path(spec["campaign_dir"])
    run_id = spec["run_id"]

    desc = description_from_xml(spec["description_xml"])
    config = spec["config"]
    control_faults = spec.get("control_faults") or []
    if control_faults:
        # The dispatcher already filtered the chaos plan down to this
        # attempt and session; bind what remains to this worker's private
        # platform config.
        from dataclasses import replace

        from repro.platforms.simulated import PlatformConfig

        config = (
            replace(config, control_faults=control_faults)
            if config is not None
            else PlatformConfig(control_faults=control_faults)
        )
    if spec["realtime_factor"] is not None:
        platform = LocalhostPlatform(
            desc, config, realtime_factor=spec["realtime_factor"]
        )
    else:
        platform = SimulatedPlatform(desc, config)

    store_dir = root / spec["store"]
    if store_dir.exists():
        # Leftovers of a crashed or retried attempt: runs start clean.
        shutil.rmtree(store_dir)
    store = Level2Store(store_dir)
    master = ExperiMaster(
        platform,
        desc,
        store,
        run_id,
        custom_treatments=spec["custom_treatments"],
    )
    result = master.execute()

    with ShardWriter(root / spec["shard"]) as shard:
        shard.stage_run(store, run_id)
    scope = encode_scope(condition_scope(store)) if run_id == result.plan[0].run_id else None

    channel = getattr(platform, "channel", None)
    return {
        "run_id": run_id,
        "store": spec["store"],
        "shard": spec["shard"],
        "scope": scope,
        "timed_out": result.timed_out,
        "duration": time.monotonic() - started,
        "pid": os.getpid(),
        "rpc_retries": getattr(channel, "retried_calls", 0),
        "rpc_timeouts": getattr(channel, "timed_out_calls", 0),
        # Per-phase wall-clock seconds from the master's trace spans
        # (empty when tracing is off) and the metrics this ticket added.
        "phases": phase_durations(store.read_run_traces(MASTER_NODE_ID, run_id)),
        "metrics": diff_snapshots(registry.snapshot(), metrics_before),
    }
