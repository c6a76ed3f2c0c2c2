"""Packet model for the emulated network.

A packet mirrors what the paper records about packets (Sec. IV-B2): a
unique identifier, source and destination network address, and the packet
content itself.  Timestamps are *not* stored on the packet — they are a
property of each observation of the packet (captures attach their own local
timestamps), because "single packets are not easily identified: their
location changes as they traverse the network".
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from typing import Any, Dict

__all__ = [
    "Packet",
    "BROADCAST_ADDR",
    "MULTICAST_SD_GROUP",
    "MULTICAST_PREFIX",
    "is_multicast",
    "is_broadcast",
    "DEFAULT_TTL",
]

#: Link-layer broadcast destination (reaches one-hop neighbours only).
BROADCAST_ADDR = "255.255.255.255"

#: Multicast group used by the service discovery protocols, analogous to
#: mDNS's 224.0.0.251.  Flooded through the mesh with duplicate suppression.
MULTICAST_SD_GROUP = "224.0.0.251"

#: Addresses with this prefix are treated as multicast groups.
MULTICAST_PREFIX = "224."

#: Default hop limit, matching a typical mesh-local TTL.
DEFAULT_TTL = 16

# Packet uids are allocated per *thread*: one experiment execution (one
# platform + kernel) is always driven by a single thread, but the campaign
# engine (repro.campaign) drives several isolated executions concurrently
# from a thread pool.  A process-global counter would interleave uids
# across concurrent runs — and platform construction resets the counter,
# which would corrupt a neighbouring run mid-flight.  Thread-local streams
# keep every execution's uid sequence a pure function of its own history.
_uid_state = threading.local()


def _next_packet_uid() -> int:
    counter = getattr(_uid_state, "counter", None)
    if counter is None:
        counter = _uid_state.counter = itertools.count(1)
    return next(counter)


def is_multicast(addr: str) -> bool:
    """True if *addr* names a multicast group."""
    return addr.startswith(MULTICAST_PREFIX)


def is_broadcast(addr: str) -> bool:
    """True if *addr* is the link-local broadcast address."""
    return addr == BROADCAST_ADDR


@dataclass
class Packet:
    """A UDP-datagram-like unit of communication.

    Attributes
    ----------
    src_addr / dst_addr:
        Network addresses (strings).  ``dst_addr`` may be a unicast node
        address, :data:`BROADCAST_ADDR` or a multicast group.
    src_port / dst_port:
        Integer ports multiplexing applications on a node.
    payload:
        Arbitrary structured content.  The storage layer serializes it; the
        fault injectors may replace it ("modifying their content",
        Sec. IV-A2).
    size:
        Size in bytes used for serialization/congestion accounting.  If the
        payload has no natural size the creator estimates one.
    ttl:
        Remaining hop budget, decremented at each forwarding step.
    options:
        Header option dictionary.  The packet tagger writes its 16-bit
        identifier under :data:`repro.net.tagger.TAG_OPTION`.
    uid:
        Globally unique creation identifier.  Never reused; copies made
        during forwarding keep the uid so a packet can be tracked hop by
        hop (Sec. IV-A3).
    flow:
        Optional label of the traffic flow the packet belongs to
        (experiment process, generated load, ...), used by selective fault
        rules and analysis.
    """

    src_addr: str
    dst_addr: str
    src_port: int
    dst_port: int
    payload: Any
    size: int = 128
    ttl: int = DEFAULT_TTL
    options: Dict[str, Any] = field(default_factory=dict)
    uid: int = field(default_factory=_next_packet_uid)
    flow: str = "experiment"

    def copy(self, **overrides: Any) -> "Packet":
        """A shallow copy sharing payload, with independent options dict.

        Equivalent to ``dataclasses.replace`` (unknown overrides raise,
        the uid is preserved) but built directly from ``__dict__`` — the
        forwarding hot path copies millions of packets per large run and
        ``replace`` re-runs ``__init__`` plus field introspection each
        time.
        """
        clone = object.__new__(Packet)
        clone.__dict__.update(self.__dict__)
        if overrides:
            bad = overrides.keys() - _PACKET_FIELDS
            if bad:
                raise TypeError(f"unknown packet field(s): {sorted(bad)}")
            clone.__dict__.update(overrides)
        if "options" not in overrides:
            clone.options = dict(self.options)
        return clone

    def forwarded(self) -> "Packet":
        """The copy of this packet sent onward by a forwarding hop."""
        return self.copy(ttl=self.ttl - 1)

    @property
    def expired(self) -> bool:
        """True when the hop budget is spent."""
        return self.ttl <= 0

    def describe(self) -> Dict[str, Any]:
        """A flat, serialization-friendly summary of the packet."""
        return {
            "uid": self.uid,
            "src": self.src_addr,
            "dst": self.dst_addr,
            "sport": self.src_port,
            "dport": self.dst_port,
            "size": self.size,
            "ttl": self.ttl,
            "flow": self.flow,
            "options": dict(self.options),
            "payload": self.payload,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Packet #{self.uid} {self.src_addr}:{self.src_port} -> "
            f"{self.dst_addr}:{self.dst_port} {self.size}B flow={self.flow}>"
        )


#: Field names accepted as :meth:`Packet.copy` overrides.
_PACKET_FIELDS = frozenset(Packet.__dataclass_fields__)


def reset_uid_counter(start: int = 1) -> None:
    """Reset the calling thread's packet uid counter.

    Platform construction calls this so every execution starts its uid
    space at 1 — the stored uids are then identical whichever worker
    executes (or re-executes) the same run.
    """
    _uid_state.counter = itertools.count(start)
