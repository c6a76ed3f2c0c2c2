"""The XML-RPC control channel between master and nodes.

Sec. VI-A: *"Master and nodes are connected in a centralized client-server
architecture with a dedicated communication channel.  They communicate
synchronously using extensible markup language remote procedure calls
(XML-RPC).  ...  A node object presents the functions of one node to the
master program via XML-RPC and uses locking to allow only one access at a
time."*

Fidelity choices:

* Calls really are marshalled through the XML-RPC wire format
  (:mod:`repro.core.wire`: byte-identical to ``xmlrpc.client.dumps``/``loads``
  on the closed grammar the channel speaks, the stdlib codec itself beyond
  it) — arguments must survive the actual wire format, so accidentally passing
  an unserializable object fails here exactly as it would against a real node.
* Measurements are the one payload encoded *before* the codec: a node
  returns a run's events and packets from ``collect_run`` /
  ``collect_experiment`` as level-2 record blocks
  (:func:`repro.storage.level2.encode_block` — one JSON line per record,
  pure ASCII) carried as a plain ``<string>``, and the master frames the
  lines verbatim, as the paper's master collects node files unchanged
  (Sec. IV-F).  A record JSON cannot encode fails at the node and arrives
  as fault 500 like any failing method; values XML-RPC used to reject or
  normalise but JSON carries (ints >= 2**31, carriage returns, control
  characters) now survive collection.  Events forwarded live by
  :meth:`ControlChannel.cast_to_master` cross the same way, as the level-2
  line the node will ship for that record at collection.
* The channel is *separate and reliable* (platform requirement IV-A1): it
  does not touch the emulated medium, never loses messages, and only adds
  a small symmetric latency (plus optional jitter, which is what makes the
  time-sync error bound non-zero and honest).
* Per-node FIFO locking: concurrent master threads calling the same node
  queue up; calls to different nodes proceed in parallel.

Two interaction styles exist, both used by the paper's prototype:

* :meth:`ControlChannel.call` — synchronous RPC; a master process writes
  ``result = yield from channel.call(node, method, *args)``.
* :meth:`ControlChannel.cast_to_master` — one-way upcall used by the
  node-side event generators to forward events to the master's bus.

Resilience (DESIGN.md §10): every synchronous call carries the channel's
deadline, and calls to methods in :data:`IDEMPOTENT_METHODS` are retried
under a :class:`RetryPolicy` (exponential backoff with seeded jitter, so
retry timings are reproducible).  The channel also exposes a fault-injection
surface (:meth:`ControlChannel.set_node_down`,
:meth:`ControlChannel.add_call_fault`) used by the chaos integration
tests to hang nodes, refuse connections, and drop requests or replies.
"""

from __future__ import annotations

import random as _random
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.core import wire
from repro.core.errors import RpcError, RpcFault, RpcTimeout, node_token
from repro.durable import decode_record, encode_record
from repro.obs.metrics import get_registry
from repro.sim.events import SimEvent

if TYPE_CHECKING:  # pragma: no cover
    import random

    from repro.sim.kernel import Simulator

__all__ = [
    "RpcServer",
    "ControlChannel",
    "RetryPolicy",
    "IDEMPOTENT_METHODS",
    "dump_request",
    "load_response",
]

#: RPC methods whose remote effect is safe to repeat (at-least-once
#: semantics): state resets, clock probes and read-only collection.
#: Methods with per-call side effects (``execute_action``,
#: ``traffic_start``) are deliberately absent — a timed-out call to one of
#: those fails immediately instead of risking a double execution.
IDEMPOTENT_METHODS = frozenset({
    "ping",
    "hostinfo",
    "experiment_init",
    "experiment_exit",
    "run_init",
    "run_exit",
    "reset_environment",
    "collect_run",
    "collect_experiment",
    "traffic_stop",
    "drop_all_start",
    "drop_all_stop",
})


def dump_request(method: str, args: Tuple[Any, ...]) -> str:
    """Encode one call through the canonical XML-RPC wire codec.

    Every control-plane transport — the in-simulation
    :class:`ControlChannel` and the fabric's socket transport
    (:mod:`repro.fabric.wire`) — marshals requests through this one
    function, so an argument that cannot survive the wire format fails
    identically everywhere.
    """
    return wire.dumps(tuple(args), method)


def _fault_response(code: int, message: str) -> str:
    return wire.dumps(wire.Fault(code, message), methodresponse=True)


def load_response(response_xml: str) -> Any:
    """Decode one XML-RPC response; remote faults raise :class:`RpcFault`."""
    try:
        (result,), _ = wire.loads(response_xml)
    except wire.Fault as fault:
        raise RpcFault(fault.faultCode, fault.faultString) from None
    return result


@dataclass
class RetryPolicy:
    """Exponential backoff with seeded jitter for idempotent RPC retries.

    ``delay(attempt)`` returns the backoff before retry number *attempt*
    (1-based): ``min(base_delay * multiplier**(attempt-1), max_delay)``
    stretched by a jitter factor drawn from a dedicated seeded RNG.  Two
    policies constructed with the same seed produce identical delay
    sequences — retry timing never breaks run determinism.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter_fraction: float = 0.5
    seed: int = 0
    rng: _random.Random = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        self.rng = _random.Random(self.seed)

    def reseed(self, seed: int) -> None:
        """Rebase the jitter stream (per-run, for resume determinism)."""
        self.rng.seed(seed)

    def delay(self, attempt: int) -> float:
        """Backoff in seconds before retry *attempt* (1-based)."""
        base = min(self.base_delay * self.multiplier ** (attempt - 1), self.max_delay)
        if self.jitter_fraction > 0:
            base *= 1.0 + self.jitter_fraction * self.rng.random()
        return base

    def delays(self) -> List[float]:
        """The full backoff schedule (consumes jitter draws; tests)."""
        return [self.delay(i) for i in range(1, self.max_attempts)]


class _Call(SimEvent):
    """One attempt of a synchronous call: the event its caller waits on.

    With a deadline, :meth:`answer` and :meth:`expire` relay through
    :meth:`_settle` at the current instant, the hop an ``AnyOf`` child
    took, so the schedule equals waiting on ``any_of(reply, timeout)``;
    once settled, both push nothing.  The reply stays out of the event's
    value: the deadline entry outlives the call and must not keep it.
    """

    __slots__ = ("answered", "response", "_relay")

    def __init__(self, sim: "Simulator", relay: bool) -> None:
        super().__init__(sim)
        self.answered = False
        self.response: Optional[str] = None
        self._relay = relay

    def answer(self, response_xml: str) -> None:
        self.answered = True
        self.response = response_xml
        if not self._relay:
            self.trigger()
        elif not self._triggered:
            self.sim.call_later(0.0, self._settle)

    def expire(self) -> None:
        if not self._triggered:
            self.sim.call_later(0.0, self._settle)

    def _settle(self) -> None:
        if not self._triggered:
            self.trigger()


class RpcServer:
    """Node-side method table, speaking the XML-RPC wire format."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._methods: Dict[str, Callable[..., Any]] = {}

    def register_function(self, fn: Callable[..., Any], name: Optional[str] = None) -> None:
        self._methods[name or fn.__name__] = fn

    def methods(self):
        return sorted(self._methods)

    def handle_request(self, request_xml: str) -> str:
        """Decode, dispatch and encode one request.  Remote exceptions
        become XML-RPC faults, like a real server."""
        try:
            args, method_name = wire.loads(request_xml)
        except Exception as exc:  # noqa: BLE001
            return _fault_response(400, f"malformed request: {exc}")
        method = self._methods.get(method_name or "")
        if method is None:
            return _fault_response(404, f"no such method {method_name!r} on {self.name}")
        try:
            result = method(*args)
        except Exception as exc:  # noqa: BLE001 - must cross the wire as fault
            return _fault_response(500, f"{type(exc).__name__}: {exc}")
        if result is None:
            result = 0  # XML-RPC has no nil without extensions; 0 = "ok"
        return wire.dumps((result,), methodresponse=True)


class ControlChannel:
    """The dedicated management network connecting master and nodes.

    Parameters
    ----------
    sim:
        Simulation kernel (provides time and scheduling).
    latency:
        One-way message latency in seconds (wired management network).
    jitter:
        Uniform extra latency in ``[0, jitter]`` per message; requires
        *rng*.  Jitter makes round trips asymmetric, which in turn gives
        clock-offset estimation a real, quantifiable error.
    rng:
        Dedicated random stream for jitter draws.
    call_timeout:
        Per-call deadline in seconds; ``0`` disables deadlines (and with
        them retries), which is the historical behaviour.
    retry:
        :class:`RetryPolicy` applied to timed-out calls of idempotent
        methods; ``None`` means a deadline miss fails on the first
        attempt.
    """

    def __init__(
        self,
        sim: "Simulator",
        latency: float = 0.0005,
        jitter: float = 0.0,
        rng: Optional["random.Random"] = None,
        call_timeout: float = 0.0,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        if jitter > 0 and rng is None:
            raise ValueError("jitter requires an rng stream")
        self.sim = sim
        self.latency = float(latency)
        self.jitter = float(jitter)
        self.rng = rng
        self.call_timeout = float(call_timeout)
        self.retry = retry
        self._servers: Dict[str, RpcServer] = {}
        self._busy: Dict[str, bool] = {}
        self._queues: Dict[str, Deque[Tuple[str, Any]]] = {}
        self._master_handler: Optional[Callable[[Any], None]] = None
        # Fault injection state (chaos tests): node id -> "hang"/"refuse",
        # plus a list of one-shot per-call faults.
        self._down: Dict[str, str] = {}
        self._call_faults: List[Dict[str, Any]] = []
        # node id -> blocked directions ({"request"}, {"reply"} or both):
        # a network partition between master and that node, possibly
        # asymmetric, persisting until healed.
        self._partitions: Dict[str, set] = {}
        #: Total completed synchronous calls (overhead benchmarks).  Kept
        #: for API compatibility; the same tallies also feed the process
        #: metrics registry (repro_rpc_* series).
        self.completed_calls = 0
        #: Calls that missed their deadline (including retried attempts).
        self.timed_out_calls = 0
        #: Retry attempts performed after a timeout or transport fault.
        self.retried_calls = 0
        #: Master's span tracer (set by ExperiMaster); ``None`` = no spans.
        self.tracer = None
        # Declare the RPC metric families up front so every export carries
        # them (HELP/TYPE) even for executions with zero retries/timeouts,
        # and keep the handles: call() must not take the registry lock.
        registry = get_registry()
        self._m_calls = registry.counter(
            "repro_rpc_calls_total",
            "Completed synchronous RPC calls",
            labels=("method",),
        )
        self._m_timeouts = registry.counter(
            "repro_rpc_timeouts_total",
            "RPC attempts that missed their deadline",
            labels=("method",),
        )
        self._m_retries = registry.counter(
            "repro_rpc_retries_total",
            "RPC retries after a timeout or transport fault",
            labels=("method",),
        )
        self._m_seconds = registry.histogram(
            "repro_rpc_call_seconds",
            "RPC turnaround in experiment (simulation) seconds",
            labels=("method",),
        )
        wire.fallback_counter()

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def add_node(self, node_id: str, server: RpcServer) -> None:
        if node_id in self._servers:
            raise RpcError(f"node {node_id!r} already on the control channel")
        self._servers[node_id] = server
        self._busy[node_id] = False
        self._queues[node_id] = deque()

    def set_master_handler(self, handler: Callable[[Any], None]) -> None:
        """Register the master-side sink for one-way node upcalls."""
        self._master_handler = handler

    def node_ids(self):
        return sorted(self._servers)

    # ------------------------------------------------------------------
    # Fault injection (chaos tests; DESIGN.md §10)
    # ------------------------------------------------------------------
    def set_node_down(self, node_id: str, mode: str = "hang") -> None:
        """Simulate a node failure on the control channel.

        ``mode="hang"`` silently swallows requests (the classic wedged
        NodeManager: the caller only recovers via its deadline);
        ``mode="refuse"`` answers every request with a 503 transport
        fault (process died, port closed).
        """
        if mode not in ("hang", "refuse"):
            raise RpcError(f"unknown node-down mode {mode!r}")
        self._down[node_id] = mode

    def restore_node(self, node_id: str) -> None:
        """Lift a :meth:`set_node_down` failure."""
        self._down.pop(node_id, None)

    def restore_all(self) -> None:
        """Clear every injected fault (node-down modes, call faults and
        partitions)."""
        self._down.clear()
        self._call_faults.clear()
        self._partitions.clear()

    def partition_node(self, node_id: str, direction: str = "both") -> None:
        """Partition the control link to *node_id* until healed.

        Unlike the count-bounded drop faults, a partition drops *every*
        matching message while it stands.  ``direction`` selects the
        asymmetric cases: ``"request"`` loses master→node traffic only
        (the node still answers requests that arrived before the cut),
        ``"reply"`` loses node→master responses only (the node executes
        requests but the master sees silence — the nastier half, because
        non-idempotent work happens invisibly), ``"both"`` cuts the link.
        """
        if direction not in ("request", "reply", "both"):
            raise RpcError(f"unknown partition direction {direction!r}")
        dirs = self._partitions.setdefault(node_id, set())
        if direction == "both":
            dirs.update(("request", "reply"))
        else:
            dirs.add(direction)

    def heal_partition(self, node_id: str, direction: str = "both") -> None:
        """Lift a :meth:`partition_node` cut (or one direction of it)."""
        if direction == "both":
            self._partitions.pop(node_id, None)
            return
        dirs = self._partitions.get(node_id)
        if dirs is not None:
            dirs.discard(direction)
            if not dirs:
                self._partitions.pop(node_id, None)

    def _partitioned(self, node_id: str, direction: str) -> bool:
        return direction in self._partitions.get(node_id, ())

    def add_call_fault(
        self,
        node_id: str,
        kind: str,
        method: Optional[str] = None,
        count: int = 1,
    ) -> None:
        """Arm a one-shot (or *count*-shot) per-call fault.

        ``kind="drop_request"`` loses matching requests on the way to the
        node; ``kind="drop_reply"`` executes the request but loses the
        response.  ``method=None`` matches any method.
        """
        if kind not in ("drop_request", "drop_reply"):
            raise RpcError(f"unknown call fault kind {kind!r}")
        self._call_faults.append(
            {"node": node_id, "kind": kind, "method": method, "count": int(count)}
        )

    def _take_call_fault(self, node_id: str, method: str, kind: str) -> bool:
        """Consume one matching armed call fault, if any."""
        for fault in self._call_faults:
            if (
                fault["kind"] == kind
                and fault["node"] == node_id
                and fault["method"] in (None, method)
                and fault["count"] > 0
            ):
                fault["count"] -= 1
                return True
        return False

    # ------------------------------------------------------------------
    # Latency model
    # ------------------------------------------------------------------
    def _one_way(self) -> float:
        delay = self.latency
        if self.jitter > 0:
            delay += self.rng.uniform(0.0, self.jitter)
        return delay

    # ------------------------------------------------------------------
    # Synchronous call (generator style)
    # ------------------------------------------------------------------
    def call(self, node_id: str, method: str, *args: Any):
        """Sub-generator performing one synchronous RPC.

        Usage from a master process::

            result = yield from channel.call("t9-105", "ping", t0)

        The deadline is the channel's ``call_timeout``; a timed-out call
        of an idempotent method is retried under the channel's
        :class:`RetryPolicy`.

        Raises :class:`RpcFault` when the remote method raised,
        :class:`RpcTimeout` when the deadline passed (after any retries),
        and :class:`RpcError` for transport problems (unknown node).
        """
        if node_id not in self._servers:
            raise RpcError(
                f"no node {node_id!r} {node_token(node_id)} on the control channel"
            )
        deadline = self.call_timeout
        attempts = 1
        if deadline > 0 and self.retry is not None and method in IDEMPOTENT_METHODS:
            attempts = self.retry.max_attempts
        request_xml = dump_request(method, args)

        tracer = self.tracer
        tracing = tracer is not None and tracer.enabled
        wall_start = tracer.clock() if tracing else 0.0
        sim_start = self.sim.now

        for attempt in range(1, attempts + 1):
            call = _Call(self.sim, deadline > 0)
            # Request propagation to the node...
            self.sim.call_later(
                self._one_way(), self._enqueue, node_id, method, request_xml, call
            )
            if deadline > 0:
                self.sim.call_later(deadline, call.expire)
            yield call
            if not call.answered:
                # The in-flight request is abandoned: a late response
                # answers the settled call, which pushes nothing.
                self.timed_out_calls += 1
                self._m_timeouts.inc(method=method)
                if attempt < attempts:
                    self.retried_calls += 1
                    self._m_retries.inc(method=method)
                    yield self.sim.timeout(self.retry.delay(attempt))
                    continue
                if tracing:
                    tracer.record(
                        "rpc", wall_start, tracer.clock(), status="error",
                        method=method, target=node_id, outcome="timeout",
                        attempts=attempt, deadline=deadline,
                    )
                raise RpcTimeout(
                    f"rpc {method} to {node_token(node_id)} timed out after "
                    f"{deadline}s ({attempt} attempt(s))",
                    node_id=node_id,
                    method=method,
                )
            # The deadline entry may outlive the call: drop the reply from it.
            response_xml, call.response = call.response, None
            try:
                (result,), _ = wire.loads(response_xml)
            except wire.Fault as fault:
                if fault.faultCode == 503 and attempt < attempts:
                    # Transport-level refusal: the remote never executed,
                    # so retrying is safe regardless of idempotence.
                    self.retried_calls += 1
                    self._m_retries.inc(method=method)
                    yield self.sim.timeout(self.retry.delay(attempt))
                    continue
                if tracing:
                    tracer.record(
                        "rpc", wall_start, tracer.clock(), status="error",
                        method=method, target=node_id, outcome="fault",
                        attempts=attempt, fault_code=fault.faultCode,
                        error=fault.faultString,
                    )
                raise RpcFault(fault.faultCode, fault.faultString) from None
            self.completed_calls += 1
            self._m_calls.inc(method=method)
            self._m_seconds.observe(self.sim.now - sim_start, method=method)
            if tracing and attempt > 1:
                # Only degraded-but-recovered calls get a span: every call
                # would be noise, but a retried one is a diagnosis lead.
                tracer.record(
                    "rpc", wall_start, tracer.clock(), status="ok",
                    method=method, target=node_id, outcome="retried",
                    attempts=attempt,
                )
            return result

    def _enqueue(self, node_id: str, method: str, request_xml: str, call: _Call) -> None:
        down = self._down.get(node_id)
        if (
            down == "hang"
            or self._partitioned(node_id, "request")
            or self._take_call_fault(node_id, method, "drop_request")
        ):
            return  # request lost; only a caller deadline recovers
        if down == "refuse":
            call.answer(_fault_response(503, f"node {node_id} gone {node_token(node_id)}"))
            return
        self._queues[node_id].append((request_xml, call, method))
        self._drain(node_id)

    def _drain(self, node_id: str) -> None:
        """Serve queued requests one at a time (the per-node lock)."""
        if self._busy.get(node_id, True):
            return
        queue = self._queues[node_id]
        if not queue:
            return
        self._busy[node_id] = True
        request_xml, call, method = queue.popleft()
        response_xml = self._servers[node_id].handle_request(request_xml)
        dropped = self._partitioned(node_id, "reply") or self._take_call_fault(
            node_id, method, "drop_reply"
        )

        # Response travels back; the node lock is released immediately
        # after local handling, so the next queued call proceeds while the
        # previous response is still in flight.
        if not dropped:
            self.sim.call_later(self._one_way(), call.answer, response_xml)
        self.sim.call_later(0.0, self._unlock, node_id)

    def _unlock(self, node_id: str) -> None:
        self._busy[node_id] = False
        self._drain(node_id)

    # ------------------------------------------------------------------
    # One-way upcall (node -> master)
    # ------------------------------------------------------------------
    def cast_to_master(self, payload: Any) -> None:
        """Deliver *payload* to the master handler after one-way latency.

        Used by node event generators.  The payload is encoded once, here at
        the node, as its level-2 line (what the node ships for the same record
        at collection) and crosses the XML-RPC codec as one ``<string>``; the
        master ``decode_record``s it.  A payload JSON cannot encode raises here;
        what structs rejected or normalised but JSON carries (ints >= 2**31,
        ``\\r``, control characters in event params) now survives the upcall.
        """
        if self._master_handler is None:
            raise RpcError("no master handler registered on the control channel")
        request_xml = wire.dumps((encode_record(payload),), "master_notify")
        self.sim.call_later(self._one_way(), self._deliver_cast, request_xml, self._master_handler)

    @staticmethod
    def _deliver_cast(request_xml: str, handler: Any) -> None:
        (line,), _ = wire.loads(request_xml)
        handler(decode_record(line))
