"""Communication faults (Sec. IV-D1) as one interface packet rule.

*"Whenever the term packet is used, it refers to packets belonging to the
experiment process"* — so a fault matches only packets with the
experiment flow label, leaving generated background load untouched; the
interface fault alone matches every flow (a dead radio is dead for
everyone).  *"It should be noted that all injected faults add up to
already existing communication faults in the target platform"* — the
rule composes with the medium's own loss and delay, it never replaces
them.

The six fault kinds (interface fault, message loss, delay and reordering,
path loss and delay) and the drop-all manipulation differ only in data —
drop or delay, whether a random draw decides, and which packets are in
scope — so they are all one :class:`FaultFilter`; the fault controller
builds each kind from its kind table.  Reordering (Sec. IV-A2) is a
probabilistic delay: held packets arrive after ones that slipped through.

A rule honours an activation :class:`~repro.faults.model.FaultWindow`:
outside its window it passes everything, so a single installed rule
implements the duration/rate semantics without install/remove churn.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.faults.model import FaultWindow
from repro.net.interface import DROP, PASS, Direction, FilterVerdict, PacketFilter
from repro.net.packet import Packet

__all__ = ["EXPERIMENT_FLOW", "FaultFilter", "resolve_direction"]

#: The flow label of packets belonging to the experiment process.
EXPERIMENT_FLOW = "experiment"

#: Window meaning "active from now until stopped".
ALWAYS = FaultWindow(active_from=float("-inf"), active_until=None)


def resolve_direction(text: str, rng: Optional[random.Random] = None) -> Direction:
    """Map a description direction string to a :class:`Direction`.

    ``"random"`` picks receive or transmit using *rng* (Sec. IV-D1:
    "Direction can be receive, transmit, both, or chosen randomly").
    """
    text = (text or "both").strip().lower()
    if text in ("rx", "receive"):
        return Direction.RX
    if text in ("tx", "transmit"):
        return Direction.TX
    if text == "both":
        return Direction.BOTH
    if text == "random":
        if rng is None:
            raise ValueError("direction 'random' requires an rng stream")
        return rng.choice([Direction.RX, Direction.TX])
    raise ValueError(f"unknown fault direction {text!r}")


class FaultFilter(PacketFilter):
    """One communication fault: drop or delay the packets it affects.

    A packet crossing in the rule's *direction* is affected when the
    *window* is active, its flow is *flow* (``None``: every flow), it was
    exchanged with *peer_addr* at either end (when given — path faults
    match end-to-end addresses, so multi-hop forwarding cannot smuggle a
    packet past the rule) and one draw from *rng* falls below
    *probability* (when given; otherwise nothing is drawn).  An affected
    packet is dropped (*drops*) or held back *delay* seconds, and counts
    one :attr:`hits`.
    """

    def __init__(
        self,
        label: str,
        drops: bool,
        delay: float = 0.0,
        probability: Optional[float] = None,
        rng: Optional[random.Random] = None,
        peer_addr: Optional[str] = None,
        flow: Optional[str] = EXPERIMENT_FLOW,
        direction: Direction = Direction.BOTH,
        window: FaultWindow = ALWAYS,
    ) -> None:
        if probability is not None and not 0.0 <= probability <= 1.0:
            raise ValueError(f"{label} probability must be in [0, 1], got {probability}")
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        super().__init__(direction=direction, label=label)
        self.verdict = DROP if drops else FilterVerdict(extra_delay=float(delay))
        self.probability = probability
        self.rng = rng
        self.peer_addr = peer_addr
        self.flow = flow
        self.window = window
        self.hits = 0  # packets the fault actually affected

    def decide(self, packet: Packet, direction: Direction, now: float) -> FilterVerdict:
        if not self.window.is_active(now):
            return PASS
        if self.flow is not None and packet.flow != self.flow:
            return PASS
        if self.peer_addr is not None and self.peer_addr not in (packet.src_addr, packet.dst_addr):
            return PASS
        if self.probability is not None and self.rng.random() >= self.probability:
            return PASS
        self.hits += 1
        return self.verdict
