"""The NodeManager: the controlled entity on each participating node.

Sec. VI-A: *"The NodeManager is the central component of the nodes
participating in experiments.  It handles remote procedure calls coming
from ExperiMaster.  Basic procedures exposed via RPC are the actions for
management, fault injection, environment manipulation and the experiment
process actions ...  The implementation of these functions can be
delegated to sub-components.  ...  Components on a node use the event
generator to signal the occurrence of events."*

Sub-components wired in here:

* the **event generator** (:meth:`NodeManager.emit`) — records events into
  node-local run storage and forwards them to the master's event bus,
* the **fault controller** (:class:`repro.faults.controller.FaultController`),
* node-local **traffic flows** for the traffic-generator manipulation,
* arbitrary **action handlers** registered by protocol implementations
  (the SD agents register ``sd_*`` here, playing the role Avahi plays in
  the paper's prototype).
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, List, Optional, TYPE_CHECKING

from repro.core.events import ExEvent
from repro.core.rpc import RpcServer
from repro.faults.controller import FAULT_KINDS, FaultController
from repro.faults.injectors import FaultFilter
from repro.net.traffic import TRAFFIC_PORT, TrafficFlow
from repro.storage.level2 import encode_block

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.rpc import ControlChannel
    from repro.net.node import NetNode
    from repro.sim.kernel import Simulator
    from repro.sim.rng import RngRegistry

__all__ = ["NodeManager"]

ActionHandler = Callable[[Dict[str, Any]], Any]


class NodeManager:
    """One node's control-plane component.

    Parameters
    ----------
    sim, net_node:
        The kernel and the node's data-plane object.
    channel:
        The control channel; the manager registers its RPC server on it
        under ``net_node.name``.
    rngs:
        The experiment's RNG registry (fault draws etc. derive from it).
    resolve_addr:
        Optional node-id → address resolver for path faults.
    """

    def __init__(
        self,
        sim: "Simulator",
        net_node: "NetNode",
        channel: "ControlChannel",
        rngs: "RngRegistry",
        resolve_addr: Optional[Callable[[str], str]] = None,
    ) -> None:
        self.sim = sim
        self.node = net_node
        self.channel = channel
        self.rngs = rngs
        self.current_run: Optional[int] = None
        self.faults = FaultController(
            sim, net_node, rngs, emit=self.emit, resolve_addr=resolve_addr
        )
        self._handlers: Dict[str, ActionHandler] = {}
        #: Callables invoked with the run id at every ``run_init`` —
        #: protocol agents register their per-run reset here so that each
        #: run starts from identical state and RNG streams (the per-run
        #: determinism the resume guarantee rests on).
        self.run_hooks: List[Callable[[int], None]] = []
        self._flows: List[TrafficFlow] = []
        self._drop_all_rule: Optional[int] = None
        self._traffic_seq = 0

        # Node-local temporary storage (storage level 2's node side).
        self._run_events: Dict[int, List[Dict[str, Any]]] = {}
        self._run_packets: Dict[int, List[Dict[str, Any]]] = {}
        self._exp_events: List[Dict[str, Any]] = []
        self._log: List[str] = []

        self.server = RpcServer(net_node.name)
        self._register_rpc_surface()
        channel.add_node(net_node.name, self.server)

        # Fault actions are ordinary action handlers.
        for kind in FAULT_KINDS:
            self._handlers[f"{kind}_start"] = partial(self.faults.start, kind)
            self._handlers[f"{kind}_stop"] = partial(self._fault_stop, kind)
        self._handlers["generic"] = self._generic_action
        self._handlers["event_flag"] = self._event_flag_action

    # ------------------------------------------------------------------
    # RPC surface
    # ------------------------------------------------------------------
    def _register_rpc_surface(self) -> None:
        for fn in (
            self.ping,
            self.hostinfo,
            self.experiment_init,
            self.experiment_exit,
            self.run_init,
            self.run_exit,
            self.reset_environment,
            self.execute_action,
            self.traffic_start,
            self.traffic_stop,
            self.drop_all_start,
            self.drop_all_stop,
            self.collect_run,
            self.collect_experiment,
            self.set_address,
        ):
            self.server.register_function(fn)

    # ------------------------------------------------------------------
    # Event generator
    # ------------------------------------------------------------------
    def emit(self, name: str, params=(), run_id: Optional[int] = "current") -> ExEvent:
        """Generate an event: local record + forward to the master.

        ``run_id="current"`` binds the event to the run in progress.
        """
        rid = self.current_run if run_id == "current" else run_id
        event = ExEvent(
            name=name,
            node=self.node.name,
            local_time=self.node.clock.time(),
            params=tuple(params),
            run_id=rid,
        )
        record = event.as_record()
        if rid is None:
            self._exp_events.append(record)
        else:
            self._run_events.setdefault(rid, []).append(record)
        self.channel.cast_to_master(record)
        return event

    def log_line(self, message: str) -> None:
        self._log.append(f"[{self.node.clock.time():.6f}] {message}")

    # ------------------------------------------------------------------
    # Management procedures
    # ------------------------------------------------------------------
    def ping(self):
        """Time-sync probe: return the node's local clock reading."""
        return self.node.clock.time()

    def hostinfo(self):
        return {"node_id": self.node.name, "address": self.node.address}

    def experiment_init(self, experiment_name: str):
        """Prepare the node for a whole experiment series."""
        self._run_events.clear()
        self._run_packets.clear()
        self._exp_events.clear()
        self._log.clear()
        self.current_run = None
        self.node.tagger.reset()
        self.reset_environment()
        self.log_line(f"experiment_init: {experiment_name}")
        self.emit("experiment_init", params=(experiment_name,), run_id=None)

    def experiment_exit(self):
        self.reset_environment()
        self.log_line("experiment_exit")
        self.emit("experiment_exit", run_id=None)

    def run_init(self, run_id: int):
        """Run preparation on this node: clean state, arm recording."""
        self.reset_environment()
        self.current_run = int(run_id)
        self.faults.set_run(self.current_run)
        self.node.reset_data_plane()
        self._traffic_seq = 0
        for hook in self.run_hooks:
            hook(self.current_run)
        self.log_line(f"run_init: {run_id}")
        self.emit("run_init", params=(int(run_id),))

    def run_exit(self, run_id: int):
        """Run clean-up on this node: stop activity, seal recordings."""
        rid = int(run_id)
        self.emit("run_exit", params=(rid,))
        self.log_line(f"run_exit: {rid}")
        self._stop_traffic_flows()
        self.faults.stop_all()
        self._run_packets.setdefault(rid, []).extend(self.node.capture.drain())

    def reset_environment(self):
        """Drop leftover state: filters, flows, caches (Sec. IV-C1)."""
        self._stop_traffic_flows()
        self.faults.stop_all()
        self._drop_all_rule = None
        self.node.interface.clear_filters()

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def set_tracer(self, tracer) -> None:
        """Adopt the master's span tracer (:mod:`repro.obs.trace`).

        The fault controller records its fault windows there; a ``None``
        tracer (standalone NodeManager tests) simply records nothing.
        """
        self.faults.tracer = tracer

    def set_address(self, new_address: str):
        """Reconfigure the node's address, generating the event the paper
        mandates (Sec. IV-E)."""
        old = self.node.address
        self.node.address = str(new_address)
        self.emit("address_changed", params=(old, str(new_address)))

    # ------------------------------------------------------------------
    # Experiment process actions
    # ------------------------------------------------------------------
    def register_action_handler(self, name: str, handler: ActionHandler) -> None:
        """Install the implementation of one domain action (SD, plugins)."""
        self._handlers[name] = handler

    def add_run_hook(self, hook: Callable[[int], None]) -> None:
        """Register a per-run reset callback (see :attr:`run_hooks`)."""
        self.run_hooks.append(hook)

    def execute_action(self, name: str, params: Dict[str, Any]):
        handler = self._handlers.get(name)
        if handler is None:
            raise LookupError(f"node {self.node.name}: no handler for action {name!r}")
        self.log_line(f"action: {name} {params!r}")
        result = handler(dict(params or {}))
        return result if result is not None else 0

    def _generic_action(self, params: Dict[str, Any]):
        """The paper's generic function: parameters are just recorded."""
        self.emit("generic_executed", params=tuple(f"{k}={v}" for k, v in sorted(params.items())))
        return 0

    def _event_flag_action(self, params: Dict[str, Any]):
        """``event_flag`` — create a local event (Sec. IV-C2)."""
        self.emit(str(params.get("value", "")), params=tuple(params.get("params", ())))
        return 0

    # ------------------------------------------------------------------
    # Fault actions
    # ------------------------------------------------------------------
    def _fault_stop(self, kind: str, params: Dict[str, Any]):
        return self.faults.stop(params.get("fault_id", kind))

    # ------------------------------------------------------------------
    # Traffic generation (node-local flows)
    # ------------------------------------------------------------------
    def traffic_start(self, flow_specs: List[Dict[str, Any]]):
        medium = self.node.interface.medium
        if medium is None:
            raise RuntimeError(f"{self.node.name}: not attached to a medium")
        for spec in flow_specs:
            peer = medium.node_by_address(str(spec["peer_addr"]))
            if peer is None:
                raise LookupError(f"no node with address {spec['peer_addr']!r}")
            rng = self.rngs.fresh(
                "traffic", self.node.name, peer.name,
                self.current_run if self.current_run is not None else -1,
                self._traffic_seq,
            )
            self._traffic_seq += 1
            flow = TrafficFlow(
                self.sim,
                self.node,
                peer,
                rate_kbps=float(spec["rate_kbps"]),
                rng=rng,
                packet_size=int(spec.get("packet_size", 512)),
                dst_port=int(spec.get("dst_port", TRAFFIC_PORT)),
                payload_base=spec.get("payload"),
            )
            flow.start()
            self._flows.append(flow)
        return len(self._flows)

    def traffic_stop(self):
        count = len(self._flows)
        self._stop_traffic_flows()
        return count

    def _stop_traffic_flows(self) -> None:
        for flow in self._flows:
            flow.stop()
        self._flows.clear()

    # ------------------------------------------------------------------
    # Drop-all manipulation
    # ------------------------------------------------------------------
    def drop_all_start(self):
        if self._drop_all_rule is None:
            # The node-local half of drop-all: every experiment-process
            # packet, both directions (forwarded ones cross the TX chain).
            flt = FaultFilter("drop_all", drops=True)
            self._drop_all_rule = self.node.interface.add_filter(flt)
            self.emit("drop_all_started")
        return 0

    def drop_all_stop(self):
        if self._drop_all_rule is not None:
            self.node.interface.remove_filter(self._drop_all_rule)
            self._drop_all_rule = None
            self.emit("drop_all_stopped")
        return 0

    # ------------------------------------------------------------------
    # Collection (feeds storage level 2)
    # ------------------------------------------------------------------
    def collect_run(self, run_id: int, packets: bool = True):
        """One run's records as level-2 blocks (:func:`encode_block`).

        This is the one place a record is encoded; the master frames the
        lines as they arrive.  Encoding on demand from the kept records
        makes a retried call return the same block, and the capture is
        only made wire-safe when the master asks for *packets*.
        """
        rid = int(run_id)
        captured = self._run_packets.get(rid, []) if packets else []
        texts: Dict[int, str] = {}  # {id(payload): repr}; the records keep each alive
        return {
            "node_id": self.node.name,
            "run_id": rid,
            "events": encode_block(self._run_events.get(rid, [])),
            "packets": encode_block(self._packet_wire(rec, texts) for rec in captured),
        }

    def collect_experiment(self):
        return {
            "node_id": self.node.name,
            "events": encode_block(self._exp_events),
            "log": "\n".join(self._log),
        }

    @staticmethod
    def _packet_wire(rec: Dict[str, Any], texts: Dict[int, str]) -> Dict[str, Any]:
        """Make a capture record JSON/DB safe: the payload becomes its
        textual representation (the 'raw packet data' blob of Table I), made
        once per payload object (a multicast's receivers share one) per call."""
        wire = dict(rec)
        payload = wire.get("payload")
        text = texts.get(id(payload))
        if text is None:
            text = texts[id(payload)] = repr(payload)
        wire["payload"] = text
        wire["options"] = {str(k): v for k, v in (wire.get("options") or {}).items()}
        return wire
