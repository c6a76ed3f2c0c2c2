"""The network packet tagger.

Sec. VI-A: *"To allow analysis of properties outside the scope of the
ExCovery processes, for example packet loss and delay, a network packet
tagger is provided.  It remains running in the background on each node.
The tagger adds an option to the header of each selected IP packet and
writes a 16 bit identifier to it, incrementing the identifier with each
packet."*

Tags make packets trackable across hops and captures even when payloads
repeat (retransmissions), enabling the loss/delay analyses in
:mod:`repro.analysis.packetstats`.  The identifier space is 16 bits, so it
wraps at 65536 — the analysis handles wrap-around by sequence unwrapping.
"""

from __future__ import annotations

from repro.net.packet import Packet

__all__ = ["PacketTagger", "TAG_OPTION", "TAG_NODE_OPTION", "TAG_MODULUS"]

#: Option key carrying the 16-bit identifier.
TAG_OPTION = "tag16"
#: Option key carrying the tagging node's name (identifies the sequence).
TAG_NODE_OPTION = "tag_node"
#: Identifier space size.
TAG_MODULUS = 1 << 16


class PacketTagger:
    """Per-node, always-on packet tagging.

    Parameters
    ----------
    node_name:
        Name written into :data:`TAG_NODE_OPTION` so analyses can group
        tags by originating sequence.  Every packet the node originates
        is tagged.
    start:
        Initial counter value (mainly for tests exercising wrap-around).
    """

    def __init__(self, node_name: str, start: int = 0) -> None:
        self.node_name = node_name
        self.enabled = True
        self._counter = start % TAG_MODULUS
        self.tagged_count = 0

    def tag(self, packet: Packet) -> bool:
        """Tag *packet* if enabled; returns whether it was."""
        if not self.enabled:
            return False
        packet.options[TAG_OPTION] = self._counter
        packet.options[TAG_NODE_OPTION] = self.node_name
        self._counter = (self._counter + 1) % TAG_MODULUS
        self.tagged_count += 1
        return True

    def reset(self) -> None:
        """Restart the sequence at 0 (new experiment)."""
        self._counter = 0
        self.tagged_count = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "on" if self.enabled else "off"
        return f"<PacketTagger {self.node_name} {state} next={self._counter}>"


def unwrap_tags(tags) -> list:
    """Unwrap a 16-bit tag sequence into monotonically increasing values.

    ``[65534, 65535, 0, 1]`` becomes ``[65534, 65535, 65536, 65537]``.
    Assumes successive observations never skip more than half the tag
    space, the standard serial-number-arithmetic assumption (RFC 1982).
    """
    out = []
    unwrapped = None
    prev_raw = None
    for raw in tags:
        if not 0 <= raw < TAG_MODULUS:
            raise ValueError(f"tag out of range: {raw}")
        if unwrapped is None:
            unwrapped = raw
        else:
            delta = (raw - prev_raw) % TAG_MODULUS
            if delta > TAG_MODULUS // 2:
                delta -= TAG_MODULUS  # an out-of-order older tag
            unwrapped += delta
        out.append(unwrapped)
        prev_raw = raw
    return out
