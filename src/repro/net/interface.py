"""Network interfaces with per-direction packet-filter chains.

Platform requirement IV-A2 ("Connection Control"): *"Network interfaces
need to support activation and deactivation.  Furthermore, it needs to be
possible to manipulate packets sent over these interfaces based on defined
rules.  This covers dropping of packets, delaying, reordering, and
modifying their content."*

An :class:`Interface` therefore carries an ordered chain of
:class:`PacketFilter` rules consulted on every packet, separately for the
transmit and receive direction.  The communication faults of
:mod:`repro.faults.injectors` are one such filter,
:class:`~repro.faults.injectors.FaultFilter`, and so is deactivation: the
interface fault drops every packet in its direction while it is installed.

Semantics: filters run *before* capture — a packet dropped by a rule
emulates loss in the network, so the node never observes it.  A packet
delayed by a rule is observed at its delayed arrival time.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, TYPE_CHECKING

from repro.net.packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.medium import WirelessMedium
    from repro.net.node import NetNode

__all__ = [
    "Direction",
    "FilterVerdict",
    "PacketFilter",
    "Interface",
    "PASS",
    "DROP",
]


class Direction(enum.Enum):
    """Which side of the interface a packet crosses."""

    RX = "rx"
    TX = "tx"
    BOTH = "both"

    def covers(self, other: "Direction") -> bool:
        """Whether a rule configured for *self* applies to traffic going
        in direction *other*."""
        return self is Direction.BOTH or self is other


@dataclass(frozen=True)
class FilterVerdict:
    """Outcome of consulting a single filter rule.

    ``dropped`` wins over everything; otherwise ``extra_delay`` seconds are
    added to the packet's traversal and ``replacement`` (if not ``None``)
    substitutes the packet — the "modifying their content" case.
    """

    dropped: bool = False
    extra_delay: float = 0.0
    replacement: Optional[Packet] = None


#: Shared verdict constants for the common cases.
PASS = FilterVerdict()
DROP = FilterVerdict(dropped=True)


class PacketFilter:
    """Base class for interface packet rules.

    Subclasses override :meth:`decide`.  Each filter instance gets a unique
    ``rule_id`` so installers (the fault controller) can remove exactly the
    rules they added.
    """

    _ids = itertools.count(1)

    def __init__(self, direction: Direction = Direction.BOTH, label: str = "") -> None:
        self.direction = direction
        self.label = label or type(self).__name__
        self.rule_id = next(PacketFilter._ids)

    def decide(self, packet: Packet, direction: Direction, now: float) -> FilterVerdict:
        """Judge *packet* crossing in *direction* at true time *now*."""
        raise NotImplementedError

    def matches_direction(self, direction: Direction) -> bool:
        return self.direction.covers(direction)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.label} rule={self.rule_id} dir={self.direction.value}>"


@dataclass
class ChainResult:
    """Aggregated verdict of a whole filter chain."""

    dropped: bool
    delay: float
    packet: Packet


class Interface:
    """One attachment point of a node to the shared medium.

    Parameters
    ----------
    node:
        Owning :class:`~repro.net.node.NetNode`.
    name:
        Interface name, e.g. ``"wlan0"`` (the DES testbed convention).
    """

    def __init__(self, node: "NetNode", name: str = "wlan0") -> None:
        self.node = node
        self.name = name
        self.medium: Optional["WirelessMedium"] = None
        self._filters: List[PacketFilter] = []
        #: Simple octet/packet counters, split by direction.
        self.counters: Dict[str, int] = {
            "tx_packets": 0,
            "tx_bytes": 0,
            "rx_packets": 0,
            "rx_bytes": 0,
            "tx_dropped": 0,
            "rx_dropped": 0,
        }

    # ------------------------------------------------------------------
    # Filter chain
    # ------------------------------------------------------------------
    def add_filter(self, rule: PacketFilter) -> int:
        """Append *rule* to the chain; returns its ``rule_id``."""
        self._filters.append(rule)
        return rule.rule_id

    def remove_filter(self, rule_id: int) -> bool:
        """Remove the rule with *rule_id*; returns whether it was present."""
        for i, rule in enumerate(self._filters):
            if rule.rule_id == rule_id:
                del self._filters[i]
                return True
        return False

    def clear_filters(self) -> int:
        """Drop every rule (run clean-up / 'reset environment'); returns count."""
        n = len(self._filters)
        self._filters.clear()
        return n

    @property
    def filters(self) -> List[PacketFilter]:
        return list(self._filters)

    def _run_chain(self, packet: Packet, direction: Direction) -> ChainResult:
        now = self.node.sim.now
        delay = 0.0
        current = packet
        for rule in self._filters:
            if not rule.matches_direction(direction):
                continue
            verdict = rule.decide(current, direction, now)
            if verdict.dropped:
                return ChainResult(dropped=True, delay=delay, packet=current)
            delay += verdict.extra_delay
            if verdict.replacement is not None:
                current = verdict.replacement
        return ChainResult(dropped=False, delay=delay, packet=current)

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def transmit(self, packet: Packet) -> bool:
        """Send *packet* out through this interface.

        Returns ``False`` if a rule dropped the packet (callers treat it
        as silent loss, like a real socket over a dead NIC).
        """
        if self.medium is None:
            raise RuntimeError(f"interface {self.name} of {self.node.name} not attached")
        delay = 0.0
        if self._filters:  # fast path: most interfaces carry no rules
            result = self._run_chain(packet, Direction.TX)
            if result.dropped:
                self.counters["tx_dropped"] += 1
                return False
            packet = result.packet
            delay = result.delay
        counters = self.counters
        counters["tx_packets"] += 1
        counters["tx_bytes"] += packet.size
        node = self.node
        capture = node.capture
        if capture.enabled:
            capture.record(packet, Direction.TX)
        self.medium.transmit(node, packet, extra_delay=delay)
        return True

    def deliver(self, packet: Packet) -> None:
        """Called by the medium when a packet arrives at this interface."""
        if self._filters:
            result = self._run_chain(packet, Direction.RX)
            if result.dropped:
                self.counters["rx_dropped"] += 1
                return
            if result.delay > 0:
                self.node.sim.call_later(result.delay, self._accept, result.packet)
                return
            self._accept(result.packet)
            return
        # Inlined _accept for the no-filter common case (one call fewer
        # per delivery on the packet hot loop).
        counters = self.counters
        counters["rx_packets"] += 1
        counters["rx_bytes"] += packet.size
        node = self.node
        capture = node.capture
        if capture.enabled:
            capture.record(packet, Direction.RX)
        node._receive(packet, self)

    def _accept(self, packet: Packet) -> None:
        counters = self.counters
        counters["rx_packets"] += 1
        counters["rx_bytes"] += packet.size
        node = self.node
        capture = node.capture
        if capture.enabled:
            capture.record(packet, Direction.RX)
        node._receive(packet, self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Interface {self.node.name}:{self.name} rules={len(self._filters)}>"
