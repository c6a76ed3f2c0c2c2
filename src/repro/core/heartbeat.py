"""Node liveness: the master's heartbeat protocol (DESIGN.md §10).

The paper's master "maintains a list of objects corresponding to the
active nodes in the experiment" (Sec. VI-A) but its prototype trusted the
testbed's management network; a wedged NodeManager silently stalled the
series.  Here the master probes every NodeManager with a periodic
``heartbeat`` RPC and classifies nodes through a small state machine:

``alive → suspect → dead → quarantined``

* ``suspect`` after ``suspect_after`` *consecutive* missed probes,
* ``dead`` after ``dead_after`` consecutive misses,
* one successful probe resurrects a suspect/dead node to ``alive``,
* a node that died ``quarantine_after`` times is ``quarantined`` —
  terminal; the monitor stops probing it and the campaign engine stops
  scheduling work near it.

:class:`NodeHealth` is the pure state machine (unit-testable without a
kernel); :class:`HeartbeatMonitor` is the simulation process driving it
over the control channel.  Probes run with a short deadline and *no*
retries — a liveness check that retried would hide exactly the misses it
exists to observe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, TYPE_CHECKING

from repro.core.errors import RpcError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.rpc import ControlChannel
    from repro.sim.kernel import Simulator

__all__ = ["HeartbeatConfig", "NodeHealth", "HeartbeatMonitor",
           "ALIVE", "SUSPECT", "DEAD", "QUARANTINED"]

ALIVE = "alive"
SUSPECT = "suspect"
DEAD = "dead"
QUARANTINED = "quarantined"


@dataclass(frozen=True)
class HeartbeatConfig:
    """Thresholds of the liveness protocol."""

    #: Seconds between probe rounds.
    interval: float = 1.0
    #: Per-probe deadline, seconds.
    timeout: float = 0.25
    #: Consecutive misses before a node becomes suspect.
    suspect_after: int = 2
    #: Consecutive misses before a suspect node is declared dead.
    dead_after: int = 4
    #: Deaths before a node is permanently quarantined.
    quarantine_after: int = 2


class NodeHealth:
    """Liveness state of one node (pure, kernel-free)."""

    def __init__(self, node_id: str, config: Optional[HeartbeatConfig] = None) -> None:
        self.node_id = node_id
        self.config = config or HeartbeatConfig()
        self.state = ALIVE
        self.probes = 0
        self.misses = 0
        self.consecutive_misses = 0
        self.deaths = 0
        #: Every ``(old_state, new_state)`` transition, in order.
        self.transitions: List[Tuple[str, str]] = []

    def _move(self, new_state: str) -> Tuple[str, str]:
        old, self.state = self.state, new_state
        self.transitions.append((old, new_state))
        return (old, new_state)

    def record_success(self) -> Optional[Tuple[str, str]]:
        """A probe was answered; returns the transition if one occurred."""
        self.probes += 1
        self.consecutive_misses = 0
        if self.state in (SUSPECT, DEAD):
            return self._move(ALIVE)
        return None

    def record_miss(self) -> Optional[Tuple[str, str]]:
        """A probe went unanswered; returns the transition, if any."""
        if self.state == QUARANTINED:
            return None
        self.probes += 1
        self.misses += 1
        self.consecutive_misses += 1
        cfg = self.config
        if self.state == ALIVE and self.consecutive_misses >= cfg.suspect_after:
            return self._move(SUSPECT)
        if self.state == SUSPECT and self.consecutive_misses >= cfg.dead_after:
            self.deaths += 1
            if self.deaths >= cfg.quarantine_after:
                self._move(DEAD)
                return self._move(QUARANTINED)
            return self._move(DEAD)
        return None

    def as_record(self) -> Dict[str, Any]:
        return {
            "state": self.state,
            "probes": self.probes,
            "misses": self.misses,
            "deaths": self.deaths,
        }


class HeartbeatMonitor:
    """Periodic liveness probing of every node, as a kernel process.

    Parameters
    ----------
    sim, channel:
        The kernel and the control channel to probe over.
    node_ids:
        Nodes to watch.
    config:
        Thresholds (:class:`HeartbeatConfig`).
    on_transition:
        Optional ``(node_id, old_state, new_state)`` callback — the
        master emits ``node_suspect`` / ``node_dead`` / ``node_alive``
        events from it.
    """

    def __init__(
        self,
        sim: "Simulator",
        channel: "ControlChannel",
        node_ids: Iterable[str],
        config: Optional[HeartbeatConfig] = None,
        on_transition: Optional[Callable[[str, str, str], None]] = None,
    ) -> None:
        self.sim = sim
        self.channel = channel
        self.config = config or HeartbeatConfig()
        self.on_transition = on_transition
        self.health: Dict[str, NodeHealth] = {
            node_id: NodeHealth(node_id, self.config) for node_id in node_ids
        }
        self._seq = 0
        self._proc = None
        self._stopped = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._proc is None or not self._proc.alive:
            self._stopped = False
            self._proc = self.sim.process(self._run(), name="heartbeat-monitor")

    def stop(self) -> None:
        self._stopped = True
        if self._proc is not None and self._proc.alive:
            self._proc.interrupt("monitor-stop")
        self._proc = None

    @property
    def running(self) -> bool:
        return self._proc is not None and self._proc.alive

    # ------------------------------------------------------------------
    def _run(self):
        while not self._stopped:
            for node_id in sorted(self.health):
                if self._stopped:
                    return
                health = self.health[node_id]
                if health.state == QUARANTINED:
                    continue
                self._seq += 1
                seq = self._seq
                try:
                    reply = yield from self.channel.call(
                        node_id, "heartbeat", seq, timeout=self.config.timeout, retry=False
                    )
                except RpcError:
                    self._note(health, health.record_miss())
                else:
                    ok = isinstance(reply, dict) and reply.get("seq") == seq
                    if ok:
                        self._note(health, health.record_success())
                    else:
                        self._note(health, health.record_miss())
            yield self.sim.timeout(self.config.interval)

    def _note(self, health: NodeHealth, transition) -> None:
        if transition is not None and self.on_transition is not None:
            self.on_transition(health.node_id, transition[0], transition[1])

    # ------------------------------------------------------------------
    def states(self) -> Dict[str, str]:
        return {node_id: h.state for node_id, h in self.health.items()}

    def summary(self) -> Dict[str, Dict[str, Any]]:
        return {node_id: h.as_record() for node_id, h in sorted(self.health.items())}
