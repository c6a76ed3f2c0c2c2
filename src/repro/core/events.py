"""The ExCovery event model and the master's event bus.

Events (Sec. IV-B1) are state changes on nodes: *"They contain a local
time stamp and may have additional parameters."*  Nodes record events
locally (level-2 storage) and forward a copy to the experiment master over
the control channel, where the :class:`EventBus` assigns a global receipt
sequence and wakes any process blocked in ``wait_for_event``.

Dependency matching implements the full semantics of the description
language (Sec. IV-C2):

* an event is selected **by name**,
* optionally **by location** — "either a single abstract node or a subset
  of nodes specified by an actor role", where ``instance="all"`` demands
  the event *from every node* of the set,
* optionally **by parameters**, where again a node-set parameter
  dependency with ``instance="all"`` demands events whose parameters cover
  *every* identity in the set (Fig. 10: the SU is done when
  ``sd_service_add`` has been seen for *all* SMs),
* optionally **after a marker** (``wait_marker``), i.e. only events
  registered after a remembered bus position count.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.events import SimEvent
    from repro.sim.kernel import Simulator

__all__ = ["ExEvent", "EventPattern", "EventBus", "Watcher"]


@dataclass(frozen=True)
class ExEvent:
    """One recorded state change.

    Attributes
    ----------
    name:
        Event type, e.g. ``"sd_service_add"`` or ``"run_init"``.
    node:
        Host name of the node the event occurred on.
    local_time:
        Timestamp from the *node's own clock* — conditioning later maps it
        onto the common time base.
    params:
        Ordered tuple of additional parameters (often a single identity,
        e.g. the discovered service's provider).
    run_id:
        Run the event belongs to; ``None`` for experiment-scope events.
    seq:
        Master receipt sequence, assigned by the bus (−1 before receipt).
    """

    name: str
    node: str
    local_time: float
    params: Tuple[Any, ...] = ()
    run_id: Optional[int] = None
    seq: int = -1

    def with_seq(self, seq: int) -> "ExEvent":
        return ExEvent(self.name, self.node, self.local_time, self.params, self.run_id, seq)

    def as_record(self) -> Dict[str, Any]:
        """Flat dict for level-2/level-3 storage."""
        return {
            "name": self.name,
            "node": self.node,
            "local_time": self.local_time,
            "params": list(self.params),
            "run_id": self.run_id,
            "seq": self.seq,
        }

    @staticmethod
    def from_record(rec: Dict[str, Any]) -> "ExEvent":
        return ExEvent(
            name=rec["name"],
            node=rec["node"],
            local_time=rec["local_time"],
            params=tuple(rec.get("params", ())),
            run_id=rec.get("run_id"),
            seq=rec.get("seq", -1),
        )


@dataclass(frozen=True)
class EventPattern:
    """A resolved ``wait_for_event`` dependency.

    ``nodes`` / ``params`` of ``None`` mean "any" (the paper's default for
    omitted dependencies).  ``require_all_*`` encodes ``instance="all"``.
    """

    name: str
    nodes: Optional[FrozenSet[str]] = None
    require_all_nodes: bool = False
    params: Optional[FrozenSet[Any]] = None
    require_all_params: bool = False
    after_seq: int = -1
    run_id: Optional[int] = None

    def _node_ok(self, event: ExEvent) -> bool:
        return self.nodes is None or event.node in self.nodes

    def _param_matches(self, event: ExEvent) -> Optional[Any]:
        """Return the matched param value, or ``None`` if no match."""
        if self.params is None:
            return "*"
        for p in event.params:
            if p in self.params:
                return p
        return None

    def matches(self, event: ExEvent) -> bool:
        """Whether a single event satisfies the per-event part of the
        pattern (name, node set, param set, marker, run scope)."""
        if event.name != self.name:
            return False
        if event.seq <= self.after_seq:
            return False
        if self.run_id is not None and event.run_id is not None and event.run_id != self.run_id:
            return False
        if not self._node_ok(event):
            return False
        return self._param_matches(event) is not None


class Watcher:
    """Progress tracker for one blocked ``wait_for_event``.

    Tracks which ``(node, param)`` obligations have been met so far, so
    ``instance="all"`` waits complete exactly when the last missing
    combination arrives.
    """

    def __init__(self, pattern: EventPattern, signal: "SimEvent") -> None:
        self.pattern = pattern
        self.signal = signal
        self._seen: Set[Tuple[Any, Any]] = set()
        self.satisfied_by: List[ExEvent] = []

    # ------------------------------------------------------------------
    def offer(self, event: ExEvent) -> bool:
        """Feed one event; returns True when the wait has just completed."""
        if self.signal.triggered:
            return False
        pat = self.pattern
        if not pat.matches(event):
            return False
        matched_param = pat._param_matches(event)
        node_key = event.node if pat.require_all_nodes else "*"
        param_key = matched_param if pat.require_all_params else "*"
        self._seen.add((node_key, param_key))
        self.satisfied_by.append(event)
        if self._complete():
            self.signal.trigger(self.satisfied_by[-1])
            return True
        return False

    def _complete(self) -> bool:
        pat = self.pattern
        need_nodes: Set[Any] = set(pat.nodes) if (pat.require_all_nodes and pat.nodes) else {"*"}
        need_params: Set[Any] = set(pat.params) if (pat.require_all_params and pat.params) else {"*"}
        for n in need_nodes:
            for p in need_params:
                if (n, p) not in self._seen:
                    return False
        return True


class EventBus:
    """The master's central event registry.

    Every event any node generates flows through here.  The bus keeps the
    full ordered log (the conditioning stage later persists the per-node
    copies; the bus log drives flow control and analyses) and notifies
    blocked watchers synchronously at registration.
    """

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self._log: List[ExEvent] = []
        self._watchers: List[Watcher] = []
        self._seq = itertools.count()

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, event: ExEvent) -> ExEvent:
        """Assign a receipt sequence, log, and wake matching watchers."""
        stamped = event.with_seq(next(self._seq))
        self._log.append(stamped)
        done: List[Watcher] = []
        for watcher in self._watchers:
            if watcher.offer(stamped):
                done.append(watcher)
        for watcher in done:
            self._watchers.remove(watcher)
        return stamped

    # ------------------------------------------------------------------
    # Waiting
    # ------------------------------------------------------------------
    def marker(self) -> int:
        """Current bus position for ``wait_marker`` (Sec. IV-C2)."""
        return self._log[-1].seq if self._log else -1

    def watch(self, pattern: EventPattern) -> "SimEvent":
        """Return a sim event that fires when *pattern* is satisfied.

        Events already in the log (after the pattern's marker) count, so a
        waiter can never miss an event that raced ahead of it.
        """
        signal = self.sim.event(name=f"wait:{pattern.name}")
        watcher = Watcher(pattern, signal)
        for event in self._log:
            if watcher.offer(event):
                return signal
        self._watchers.append(watcher)
        return signal

    def cancel(self, signal: "SimEvent") -> None:
        """Forget the watcher bound to *signal* (timeout path)."""
        self._watchers = [w for w in self._watchers if w.signal is not signal]

    # ------------------------------------------------------------------
    # Introspection / analysis
    # ------------------------------------------------------------------
    @property
    def log(self) -> List[ExEvent]:
        return self._log

    def clear(self) -> None:
        """Reset the bus between experiments (not between runs — the full
        log is an experiment-level artefact)."""
        self._log.clear()
        self._watchers.clear()
        self._seq = itertools.count()
