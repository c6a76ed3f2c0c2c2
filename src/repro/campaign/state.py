"""The campaign journal, folded: the one reducer every reader shares.

:class:`CampaignState` is the only code that interprets the entry types
of ``campaign.jsonl`` (listed in :mod:`repro.campaign.journal`).  Each
:class:`~repro.campaign.journal.CampaignJournal` keeps one instance and
advances it under its follow lock; DESIGN.md §18 says who may read it
when.  It folds only what some reader uses, so ``node_quarantined`` and
``worker_registered`` (post-mortem records) are skipped.  The lease fold
drives the transitions the live dispatcher drives (:meth:`Lease.ack`,
:meth:`Lease.close`) under one rule: a settle of run *r* acks the lease
that last granted *r*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

__all__ = ["CampaignState", "LeaderRecord", "Lease"]


@dataclass
class Lease:
    """One granted batch: which worker owns which runs until when."""

    lease_id: str
    worker_id: str
    run_ids: Tuple[int, ...]
    expires_at: float
    acked: Set[int] = field(default_factory=set)
    closed: Optional[str] = None  # close reason, None while active

    @property
    def active(self) -> bool:
        return self.closed is None

    @property
    def pending(self) -> List[int]:
        """Run ids granted but not yet resolved, in grant order."""
        return [r for r in self.run_ids if r not in self.acked]

    def ack(self, run_id: int) -> None:
        """Mark one run resolved; the last one closes the lease ``complete``."""
        self.acked.add(run_id)
        if self.active and not self.pending:
            self.closed = "complete"

    def close(self, reason: str) -> None:
        """Idempotent: the first reason wins (the exactly-once guard for
        re-leasing)."""
        if self.active:
            self.closed = reason


@dataclass
class LeaderRecord:
    """The journal's view of one leadership epoch."""

    epoch: int
    leader_id: str
    endpoint: str
    claimed_at: float
    expires_at: float
    renewals: int = 0
    released: Optional[str] = None  # release reason, None while held

    def live(self, now: float) -> bool:
        return self.released is None and now < self.expires_at


class CampaignState:
    """Everything the campaign journal says, as of the records applied."""

    def __init__(self) -> None:
        #: The ``campaign_start`` entries, one per execution session.
        self.starts: List[Dict[str, Any]] = []
        #: ``campaign_complete`` is on file.
        self.complete = False
        #: ``{run_id: latest run_complete entry}`` — the merge source map
        #: (a re-executed run's newest shard is authoritative).
        self.completed: Dict[int, Dict[str, Any]] = {}
        #: ``{run_id: latest run_failed entry}`` — ``AbortReason``'s source.
        self.failures: Dict[int, Dict[str, Any]] = {}
        self.quarantined_workers: Set[str] = set()
        #: Every lease a fleet ``run_start`` named, open or closed; folded
        #: leases carry no expiry (a restarted coordinator grants a TTL).
        self.leases: Dict[str, Lease] = {}
        self.lease_seq = 0  # the highest lease number on file
        #: Run id → the lease that last granted it (the one its settle acks).
        self._granted: Dict[int, Lease] = {}
        #: The latest leadership claim, with what happened to it since.
        self.leader: Optional[LeaderRecord] = None

    def apply(self, entries: Iterable[Dict[str, Any]]) -> "CampaignState":
        """Fold journal *entries*, in file order, into this state."""
        for entry in entries:
            kind = entry["type"]
            if kind == "run_start":
                if entry.get("lease_id"):
                    self._grant(entry["lease_id"], entry["worker"], entry["run_id"])
            elif kind in ("run_complete", "run_failed"):
                run_id = entry["run_id"]
                (self.completed if kind == "run_complete" else self.failures)[run_id] = entry
                if run_id in self._granted:
                    self._granted[run_id].ack(run_id)
            elif kind == "lease_expired":
                if entry["lease_id"] in self.leases:
                    self.leases[entry["lease_id"]].close("expired")
            elif kind == "worker_quarantined":
                self.quarantined_workers.add(entry["worker_id"])
                for lease in self.leases.values():
                    if lease.worker_id == entry["worker_id"]:
                        lease.close("revoked")
            elif kind == "campaign_start":
                self.starts.append(entry)
            elif kind == "campaign_complete":
                self.complete = True
            elif kind in ("leader_claim", "leader_renew", "leader_release"):
                self._lead(kind, entry)
        return self

    def _grant(self, lease_id: str, worker_id: str, run_id: int) -> None:
        lease = self.leases.get(lease_id)
        if lease is None:
            lease = self.leases[lease_id] = Lease(lease_id, worker_id, (), 0.0)
            self.lease_seq = max(self.lease_seq, int(lease_id[1:]))
        lease.run_ids += (run_id,)
        self._granted[run_id] = lease

    def _lead(self, kind: str, entry: Dict[str, Any]) -> None:
        """The latest claim wins; a renewal or release counts only for
        the epoch it names (a stale writer's is fenced out)."""
        if kind == "leader_claim":
            self.leader = LeaderRecord(
                epoch=int(entry["epoch"]),
                leader_id=entry["leader_id"],
                endpoint=entry["endpoint"],
                claimed_at=entry["claimed_at"],
                expires_at=entry["expires_at"],
            )
        elif self.leader is None or int(entry["epoch"]) != self.leader.epoch:
            return
        elif kind == "leader_renew":
            self.leader.expires_at = entry["expires_at"]
            self.leader.renewals += 1
        else:
            self.leader.released = entry["reason"]
