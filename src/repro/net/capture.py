"""Per-node packet capture.

Platform requirement IV-A3: *"There must be methods to capture packets
with their exact local timestamps and their complete and unaltered
content."*  Each node runs one capture which records every packet its
interface actually sends or receives (see :mod:`repro.net.interface` for
the filter-vs-capture ordering contract).

Records are plain dictionaries so the level-2 storage can persist them
without knowing about emulator classes — the same records a pcap parser
would produce on the real testbed.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional, TYPE_CHECKING

from repro.net.interface import Direction
from repro.net.packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.node import NetNode

__all__ = ["PacketCapture", "CapturedPacket"]

#: Type alias for a single capture record.
CapturedPacket = Dict[str, Any]


class PacketCapture:
    """Records packets crossing a node's interface with local timestamps.

    Parameters
    ----------
    node:
        The owning node (provides the local clock).

    The buffer is unbounded: ExCovery's philosophy is "collecting as much
    data as possible" (Sec. IV-B).
    """

    def __init__(self, node: "NetNode") -> None:
        self.node = node
        self.enabled = True
        self._records: List[CapturedPacket] = []
        self._seq = itertools.count()

    def record(self, packet: Packet, direction: Direction) -> None:
        """Store one observation of *packet* at the node's local time."""
        if not self.enabled:
            return
        node = self.node
        # One dict literal instead of build-then-update; the key order
        # must stay exactly header-then-describe() for L2 JSON stability.
        # The packet is snapshotted *now* (options copied) because the
        # medium shares one packet object across all receivers of a
        # transmission (copy-on-write fast path).
        self._records.append(
            {
                "seq": next(self._seq),
                "local_time": node.clock.time(),
                "direction": direction.value,
                "node": node.name,
                "uid": packet.uid,
                "src": packet.src_addr,
                "dst": packet.dst_addr,
                "sport": packet.src_port,
                "dport": packet.dst_port,
                "size": packet.size,
                "ttl": packet.ttl,
                "flow": packet.flow,
                "options": dict(packet.options),
                "payload": packet.payload,
            }
        )

    @property
    def records(self) -> List[CapturedPacket]:
        """The capture buffer (live list; copy before mutating)."""
        return self._records

    def __len__(self) -> int:
        return len(self._records)

    def drain(self) -> List[CapturedPacket]:
        """Return all records and clear the buffer (end-of-run collection)."""
        records, self._records = self._records, []
        return records

    def clear(self) -> None:
        """Discard the buffer (run preparation: reset the environment)."""
        self._records.clear()

    def filter(
        self,
        direction: Optional[Direction] = None,
        flow: Optional[str] = None,
        dst_port: Optional[int] = None,
    ) -> List[CapturedPacket]:
        """Convenience query over the buffer."""
        out = []
        for rec in self._records:
            if direction is not None and rec["direction"] != direction.value:
                continue
            if flow is not None and rec["flow"] != flow:
                continue
            if dst_port is not None and rec["dport"] != dst_port:
                continue
            out.append(rec)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<PacketCapture {self.node.name} records={len(self._records)}>"
