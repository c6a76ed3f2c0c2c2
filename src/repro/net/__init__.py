"""Emulated network testbed.

This package replaces the paper's physical platform — the DES wireless mesh
testbed at FU Berlin — with a deterministic discrete-event network emulator
satisfying every platform requirement of Sec. IV-A:

* **Experiment management** — node control happens over a logically separate
  channel (:mod:`repro.core.rpc`), never through the emulated medium, so the
  control traffic cannot interfere with the process under experimentation.
* **Connection control** — interfaces can be taken down per direction and
  carry packet-filter chains that drop, delay or modify packets based on
  rules (:mod:`repro.net.interface`); this is what the fault injectors of
  :mod:`repro.faults` attach to.
* **Measurement** — every interface feeds a packet capture with exact local
  timestamps and unaltered content (:mod:`repro.net.capture`); a packet
  tagger writes incrementing 16-bit identifiers into packet options for
  cross-node tracking (:mod:`repro.net.tagger`, cf. Sec. VI-A); node clocks
  are explicit objects with offset and drift so time synchronization is a
  real, errorful measurement rather than an assumption
  (:mod:`repro.net.clock`).

The wireless character of the testbed is modelled by
:class:`~repro.net.medium.WirelessMedium`: a shared-capacity broadcast
medium over a mesh connectivity graph, with load-dependent loss and
queueing delay, per-hop MAC retransmissions, and flooding-based multicast
with duplicate suppression.
"""

from repro.net.clock import LocalClock
from repro.net.medium import CongestionModel, WirelessMedium
from repro.net.node import NetNode
from repro.net.packet import (
    BROADCAST_ADDR,
    MULTICAST_SD_GROUP,
    Packet,
    is_multicast,
)
from repro.net.topology import (
    Topology,
    grid_topology,
    line_topology,
    random_geometric_topology,
    star_topology,
)

__all__ = [
    "BROADCAST_ADDR",
    "CongestionModel",
    "LocalClock",
    "MULTICAST_SD_GROUP",
    "NetNode",
    "Packet",
    "Topology",
    "WirelessMedium",
    "grid_topology",
    "is_multicast",
    "line_topology",
    "random_geometric_topology",
    "star_topology",
]
