"""Deterministic fault injection for the master↔node *control plane*.

The injectors in :mod:`repro.faults.injectors` attack the emulated data
plane (the experiment's subject); this module attacks the experiment
*infrastructure* itself — the dfuntest argument that a distributed test
harness must tolerate its own misbehaving nodes.  A chaos plan is a list
of plain dict entries (JSON-able, so it survives the CLI and process
pools), each describing one control-channel fault:

``{"node": "t9-105", "action": "hang", "at": 0.5, "run_id": 1}``

Keys
----
``node`` (required)
    Platform node id the fault applies to.
``action`` (required)
    ``hang`` — the node's NodeManager stops answering (requests
    swallowed); ``refuse`` — requests fail fast with a 503 transport
    fault; ``drop_request`` / ``drop_reply`` — lose ``count`` matching
    messages; ``partition`` — a standing (possibly asymmetric) network
    cut: *every* message in the blocked ``direction`` is lost until a
    ``heal`` lifts it; ``heal`` — lift a previous partition;
    ``restore`` — lift a previous hang/refuse.
``at``
    Seconds after run preparation starts (kernel time) before the fault
    arms; default ``0``.
``run_id``
    Apply only during this run (default: every run).
``method``, ``count``
    For the drop actions: RPC method filter (default any) and how many
    messages to lose (default 1).
``direction``
    For ``partition``/``heal``: ``request`` (master→node only),
    ``reply`` (node→master only — the asymmetric halves) or ``both``
    (default).
``max_attempt``
    Campaign-only: inject only while the run's attempt number is ≤ this
    (e.g. ``1`` = first attempt fails, the retry runs fault-free).
``sessions``
    Campaign-only: inject only in these campaign session indices
    (e.g. ``[0]`` = only before the first crash/resume boundary).

Faults are armed by :meth:`repro.platforms.simulated.SimulatedPlatform.
on_run_init` (which first clears the previous run's injected state), so
a chaos plan is itself deterministic: same description, same faults,
same kernel schedule.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Dict, Iterable, List, Optional, TYPE_CHECKING

from repro.core.errors import PlatformError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.rpc import ControlChannel
    from repro.sim.kernel import Simulator

__all__ = ["VALID_ACTIONS", "ControlFaultPlan", "select_control_faults"]

VALID_ACTIONS = (
    "hang",
    "refuse",
    "drop_request",
    "drop_reply",
    "partition",
    "heal",
    "restore",
)
_DIRECTIONS = ("request", "reply", "both")


def _normalize(entry: Dict[str, Any]) -> Dict[str, Any]:
    if "node" not in entry:
        raise PlatformError(f"control fault entry misses 'node': {entry!r}")
    action = entry.get("action")
    if action not in VALID_ACTIONS:
        raise PlatformError(
            f"unknown control fault action {action!r}; choose from {VALID_ACTIONS}",
        )
    out = dict(entry)
    out.setdefault("at", 0.0)
    out.setdefault("run_id", None)
    out.setdefault("method", None)
    out.setdefault("count", 1)
    out.setdefault("direction", "both")
    if out["direction"] not in _DIRECTIONS:
        raise PlatformError(
            f"unknown partition direction {out['direction']!r}; "
            f"choose from {_DIRECTIONS}",
        )
    return out


def select_control_faults(
    entries: Iterable[Dict[str, Any]],
    attempt: Optional[int] = None,
    session: Optional[int] = None,
) -> List[Dict[str, Any]]:
    """Filter a chaos plan by campaign attempt and session.

    The campaign session calls this per dispatched ticket so that a
    retried run (``attempt`` beyond an entry's ``max_attempt``) or a
    resumed campaign (``session`` not in an entry's ``sessions``)
    executes fault-free — which is what lets the chaos integration test
    demand digest equality with a fault-free reference campaign.
    """
    selected = []
    for entry in entries:
        max_attempt = entry.get("max_attempt")
        if max_attempt is not None and attempt is not None and attempt > max_attempt:
            continue
        sessions = entry.get("sessions")
        if sessions is not None and session is not None and session not in sessions:
            continue
        selected.append(entry)
    return selected


class ControlFaultPlan:
    """A validated chaos plan bound to one platform instance."""

    def __init__(self, entries: Optional[Iterable[Dict[str, Any]]] = None) -> None:
        self.entries = [_normalize(e) for e in (entries or [])]

    def for_run(self, run_id: int) -> List[Dict[str, Any]]:
        return [e for e in self.entries if e["run_id"] is None or e["run_id"] == run_id]

    def arm(self, sim: "Simulator", channel: "ControlChannel", run_id: int) -> int:
        """Schedule this run's faults on the channel; returns how many.

        Callers must have cleared previous injected state first
        (``channel.restore_all()``) — arming is per-run, not cumulative.
        """
        armed = 0
        for entry in self.for_run(run_id):
            action = entry["action"]
            at = float(entry["at"])
            # partition/heal accept a node *list* so one entry can cut a
            # whole subset of the fleet (the classic minority partition).
            nodes = entry["node"] if isinstance(entry["node"], list) else [entry["node"]]
            for node in nodes:
                if action in ("hang", "refuse"):
                    fn = partial(channel.set_node_down, node, action)
                elif action == "restore":
                    fn = partial(channel.restore_node, node)
                elif action == "partition":
                    fn = partial(channel.partition_node, node, entry["direction"])
                elif action == "heal":
                    fn = partial(channel.heal_partition, node, entry["direction"])
                else:  # drop_request / drop_reply
                    fn = partial(
                        channel.add_call_fault,
                        node,
                        action,
                        entry["method"],
                        int(entry["count"]),
                    )
                if at > 0:
                    sim.call_later(at, fn)
                else:
                    fn()
                armed += 1
        return armed
