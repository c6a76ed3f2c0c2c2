"""The distributed campaign fabric: one campaign, many hosts.

ExCovery's ExperiMaster orchestrates every actor from one host; ROADMAP
item 1 generalizes the campaign engine into a coordinator + worker-fleet
architecture (DESIGN.md §15).  The pieces:

* :mod:`repro.fabric.wire` — framed XML-RPC over TCP sockets, reusing the
  control plane's codec, deadline and retry contract (``core/rpc.py``).
* :mod:`repro.fabric.leases` — the in-memory lease table with TTL +
  renewal, rebuilt from the campaign journal on restart: a dead worker's
  batch is re-leased without duplicate bookkeeping.  The lease is the
  fleet's only failure detector.
* :mod:`repro.fabric.dispatch` — the lease dispatcher: auto-registers
  workers, batches runs off the campaign scheduler's queue, re-leases
  expired batches, dedupes acks, revokes an operator-quarantined
  worker's leases.
* :mod:`repro.fabric.shipping` — JSON-safe shipping of per-run level-3
  shard rows and the experiment-scope payload.
* :mod:`repro.fabric.election` — epoch-fenced leader election over the
  shared campaign directory: hot-standby coordinators take over a lapsed
  or released leadership lease automatically (DESIGN.md §16).
* :mod:`repro.fabric.coordinator` / :mod:`repro.fabric.worker` — the two
  processes: ``repro fabric serve`` and ``repro fabric worker``.

The invariant carried over from the local engine: the merged level-3
database is byte-identical for any fleet shape — ``--jobs 8`` local
pools, a 3-worker fleet, or a fleet that lost a worker and its
coordinator mid-campaign (with or without a standby taking over).
"""

from repro.fabric.coordinator import FabricCoordinator
from repro.fabric.dispatch import LeaseDispatcher
from repro.fabric.election import (
    ElectionLedger,
    LeaderRecord,
    LeadershipLost,
    StandbyCoordinator,
)
from repro.fabric.leases import Lease, LeaseStore
from repro.fabric.wire import (
    FleetChannel,
    FleetServer,
    PartitionGate,
    ReconnectBackoff,
    clear_partition_gate,
    install_partition_gate,
)
from repro.fabric.worker import FabricWorker

__all__ = [
    "ElectionLedger",
    "FabricCoordinator",
    "FabricWorker",
    "FleetChannel",
    "FleetServer",
    "LeaderRecord",
    "LeadershipLost",
    "Lease",
    "LeaseStore",
    "LeaseDispatcher",
    "PartitionGate",
    "ReconnectBackoff",
    "StandbyCoordinator",
    "clear_partition_gate",
    "install_partition_gate",
]
