"""Fault leases: crash-safe bookkeeping for injected faults.

The paper bounds every fault with the *duration* parameter (Sec. IV-D)
and promises that a crashed series can be resumed without invalidating
results (Sec. VII).  Those two promises meet badly when a run aborts in
the middle of a fault window: the in-memory
:class:`~repro.faults.controller.FaultController` dies with the run, and
whatever filter it had installed would silently survive into the next
run — the dfuntest failure mode of a harness that does not own its own
clean-up.

A **fault lease** closes that hole.  Starting a fault first appends an
``acquire`` record to a small per-node :class:`repro.durable.DurableLog`
(synced, so it survives any crash that happens after the filter is live);
reverting the fault appends the matching ``release``.  An ``acquire``
torn by a crash mid-append is dropped on replay — the append precedes the
filter install, so that fault never went live.  A lease that has
an ``acquire`` but no ``release`` is *active*; any active lease found at
a safe point (NodeManager startup, ``run_init``) was necessarily leaked
by a crashed or watchdog-aborted run and is force-reverted by the
reconciliation sweep.

The lease's TTL (``expires_at``) is advisory metadata: it records until
when the fault was *supposed* to live (acquisition time plus the fault's
``duration`` plus the run-deadline margin), which operators can compare
against the reconciliation time.  Reconciliation does not wait for
expiry — a lease still on disk at a safe point is leaked by definition,
because every orderly path (auto-stop, ``stop_all`` at run exit,
explicit stop) releases it.

Records (``<root>/<node>.jsonl``, append-only between sweeps)::

    {"op": "acquire", "lease": {"lease_id": ..., "node": ..., ...}}
    {"op": "release", "lease_id": ..., "released_at": ...}

A reconciliation sweep compacts the file: the leaked leases are returned
to the caller and the file is atomically rewritten without them, so the
lease file stays bounded by the number of concurrently active faults.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.durable import DurableLog, replace_file
from repro.obs.metrics import get_registry

__all__ = ["FaultLeaseStore", "make_lease", "iter_lease_files"]


def make_lease(
    node: str,
    run_id: Optional[int],
    kind: str,
    fault_id: int,
    acquired_at: float,
    duration: Optional[float],
    ttl_margin: float = 0.0,
    params: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Build one lease record; ``expires_at`` is the advisory TTL."""
    ttl = (duration if duration is not None else 0.0) + max(ttl_margin, 0.0)
    return {
        "lease_id": f"{node}/{run_id if run_id is not None else '-'}/{fault_id}",
        "node": node,
        "run_id": run_id,
        "kind": kind,
        "fault_id": fault_id,
        "acquired_at": acquired_at,
        "expires_at": (acquired_at + ttl) if ttl > 0 else None,
        "params": {str(k): v for k, v in (params or {}).items()},
    }


class FaultLeaseStore:
    """Fsynced per-node lease files under one root directory.

    The directory is listed once, at construction; later files come from
    this store's own appends, so sweeping a node with no file reads
    nothing.  Invariant: **one store per lease directory at a time**
    (``leases/run_XXXXXX`` in a campaign, ``<store>/leases`` for a master
    without a lease root), built before the startup sweep so it sees
    what a crashed attempt leaked.
    """

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        #: Nodes whose lease file may hold an active lease.
        self._files = {
            entry.name[: -len(".jsonl")]
            for entry in os.scandir(self.root)
            if entry.name.endswith(".jsonl")
        }
        #: Live lease count per node as this store sees it — mirrors into
        #: the ``repro_fault_leases_active`` gauge, so a stuck window (a
        #: lease that never releases) is visible without reading files.
        self._live: Dict[str, int] = {}

    def _log(self, node: str) -> DurableLog:
        return DurableLog(self.root / f"{node}.jsonl")

    def _track(self, node: str, delta: Optional[int]) -> None:
        """Adjust the live count (``None`` resets after a reconcile)."""
        if delta is None:
            self._live[node] = 0
        else:
            self._live[node] = max(0, self._live.get(node, 0) + delta)
        get_registry().gauge(
            "repro_fault_leases_active",
            "Fault leases currently held (acquired but not released)",
            labels=("node",),
        ).set(self._live[node], node=node)

    # ------------------------------------------------------------------
    # Writing (both appends are the crash-safety points: synced)
    # ------------------------------------------------------------------
    def acquire(self, lease: Dict[str, Any]) -> None:
        self._files.add(lease["node"])
        self._log(lease["node"]).append([{"op": "acquire", "lease": lease}])
        self._track(lease["node"], +1)

    def release(self, node: str, lease_id: str, released_at: float) -> None:
        # No set update: a release without an acquire holds no active lease.
        self._log(node).append(
            [{"op": "release", "lease_id": lease_id, "released_at": released_at}])
        self._track(node, -1)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def active(self, node: str) -> List[Dict[str, Any]]:
        """Leases with an ``acquire`` but no ``release``, in acquire order."""
        if node not in self._files:
            return []
        leases: Dict[str, Dict[str, Any]] = {}
        for rec in self._log(node).replay():
            if rec.get("op") == "acquire":
                lease = rec.get("lease") or {}
                if lease.get("lease_id"):
                    leases[lease["lease_id"]] = lease
            elif rec.get("op") == "release":
                leases.pop(rec.get("lease_id"), None)
        return list(leases.values())

    # ------------------------------------------------------------------
    # Reconciliation
    # ------------------------------------------------------------------
    def reconcile(self, node: str) -> List[Dict[str, Any]]:
        """Pop every active lease of *node* and compact its file.

        Returns the leaked leases (empty after every orderly shutdown).
        The compaction is atomic (write-to-temp + rename + dir fsync), so
        a crash during the sweep either keeps the old file — the next
        sweep reconciles again, idempotently — or the new, empty one.
        """
        leaked = self.active(node)
        if node in self._files:
            replace_file(self._log(node).path, "")
            self._files.discard(node)
        self._track(node, None)
        return leaked


def iter_lease_files(directory) -> Iterator[Tuple[Path, str]]:
    """Yield ``(lease_file, node)`` under *directory*'s lease roots.

    Understands both layouts: a level-2 store (``<dir>/leases/<node>.jsonl``)
    and a campaign root (``<dir>/leases/run_XXXXXX/<node>.jsonl``).  Used
    by ``repro inspect --leases``.
    """
    directory = Path(directory)
    root = directory / "leases"
    if not root.is_dir():
        return
    for path in sorted(root.rglob("*.jsonl")):
        yield path, path.stem
