"""Write-ahead campaign journal: crash recovery of an experiment series.

Sec. VII: *"ExCovery manages series of experiments and recovers from
failures by resuming aborted runs."*  Every series is a campaign — one
worker or many — and commits its runs to level-3 shards (one per
worker), so the journal is an append-only JSONL file at the campaign
root, and each entry names the shard a run's rows live in:

``campaign_start``
    fingerprint, seed, total_runs, plan fingerprint, session index.
    Appended once per execution session (a resume appends another).
``run_start``
    run id, worker label and the fleet ``lease_id`` the run was granted
    under (``null`` on a local campaign), one append per lease.  A
    restarted coordinator seeds its open leases from their fold; a local
    session's dangling entries mean nothing, their runs are simply
    re-executed.
``run_complete``
    ``{run_id, worker, shard[, epoch]}``: the shard database relative to
    the campaign root, plus the committing coordinator's epoch on fleet
    campaigns.  Written *after* the shard transaction committed — the
    shard write is the commit point, the journal entry the durable
    pointer to it — so resume trusts an entry iff its shard holds the
    run's rows.  Level-2 staging stores are scratch; no entry names one.
``run_failed``
    run id, error text, attempt number (kept for post-mortems; a failed
    run may later gain a ``run_complete`` from a retry or resume).  The
    latest entry of a run that *did* complete later feeds the merged
    database's ``RunInfos.AbortReason`` annotation.
``node_quarantined``
    node id + failure count — the scheduler stopped charging this node's
    failures against run retry budgets.
``worker_registered`` / ``worker_quarantined`` / ``lease_expired``
    the fleet's lifecycle (DESIGN.md §15).  The lease fold reads the last
    two: a ``lease_expired`` closes the lease it names, a
    ``worker_quarantined`` revokes the worker's open leases and keeps it
    quarantined.
``campaign_complete``
    all runs staged; only merging can remain.
``leader_claim`` / ``leader_renew`` / ``leader_release``
    a fleet campaign's leadership lease (DESIGN.md §16).

One reducer interprets them, :class:`~repro.campaign.state.CampaignState`;
every reader of a journal object shares its one instance, advanced from
the byte cursor (:meth:`CampaignJournal.follow`).

The file is a :class:`repro.durable.DurableLog` and every append is
synced: a crash never loses an acknowledged run, it only re-executes work
in flight — and because runs are deterministic, re-execution converges to
byte-identical data.  A fleet coordinator sets a :attr:`~CampaignJournal.fence`
that checks its leadership against the state, brought up to date under
the file's lock; a local campaign sets none.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from repro.campaign.state import CampaignState
from repro.core.errors import RecoveryError
from repro.durable import DurableLog

__all__ = ["CampaignJournal"]

JOURNAL_NAME = "campaign.jsonl"

#: A view of the folded state, run under the append's lock; it may refuse
#: the append it guards by raising (:meth:`DurableLog.append`).
Fence = Callable[[CampaignState], Any]


class CampaignJournal:
    """Typed access to one campaign directory's recovery journal."""

    def __init__(self, campaign_dir) -> None:
        self.root = Path(campaign_dir)
        self.path = self.root / JOURNAL_NAME
        self._log = DurableLog(self.path)
        self._state = CampaignState()
        #: The fence every append passes first (a fleet coordinator's).
        self.fence: Optional[Fence] = None

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def _append(self, *records: Dict[str, Any], fence: Optional[Fence] = None) -> None:
        fence = fence or self.fence
        if fence is None:
            self._log.append(records)
        else:
            self._log.append(records, fence=lambda entries: fence(self._state.apply(entries)))

    def record_start(
        self,
        fingerprint: str,
        seed: int,
        total_runs: int,
        plan_fingerprint: str,
    ) -> int:
        """Append a session-start entry; returns this session's index."""
        session = len(self.state().starts)
        self._append(
            {
                "type": "campaign_start",
                "fingerprint": fingerprint,
                "seed": seed,
                "total_runs": total_runs,
                "plan_fingerprint": plan_fingerprint,
                "session": session,
            },
        )
        return session

    def record_run_start(self, run_ids: List[int], worker: str, lease_id: Optional[str]) -> None:
        """One entry per run of a batch, in one append (one fsync per
        grant); *lease_id* is ``None`` on a local campaign."""
        self._append(
            *(
                {"type": "run_start", "run_id": run_id, "worker": worker, "lease_id": lease_id}
                for run_id in run_ids
            ),
        )

    def record_run_complete(
        self,
        run_id: int,
        worker: str,
        shard: str,
        epoch: Optional[int] = None,
    ) -> None:
        """Fleet entries also carry the committing coordinator's fencing
        *epoch* (DESIGN.md §16) so a post-mortem can attribute every
        commit to the leader that made it."""
        record = {
            "type": "run_complete",
            "run_id": run_id,
            "worker": worker,
            "shard": shard,
        }
        if epoch is not None:
            record["epoch"] = epoch
        self._append(record)

    def record_run_failed(self, run_id: int, error: str, attempt: int) -> None:
        self._append(
            {
                "type": "run_failed",
                "run_id": run_id,
                "error": error,
                "attempt": attempt,
            },
        )

    def record_node_quarantined(self, node_id: str, failures: int) -> None:
        self._append(
            {
                "type": "node_quarantined",
                "node_id": node_id,
                "failures": failures,
            },
        )

    def record_worker_registered(self, worker_id: str, capacity: int) -> None:
        self._append(
            {
                "type": "worker_registered",
                "worker_id": worker_id,
                "capacity": capacity,
            },
        )

    def record_worker_quarantined(self, worker_id: str, reason: str) -> None:
        self._append(
            {
                "type": "worker_quarantined",
                "worker_id": worker_id,
                "reason": reason,
            },
        )

    def record_lease_expired(
        self,
        lease_id: str,
        worker_id: str,
        requeued_runs: List[int],
    ) -> None:
        self._append(
            {
                "type": "lease_expired",
                "lease_id": lease_id,
                "worker_id": worker_id,
                "requeued_runs": sorted(requeued_runs),
            },
        )

    def record_complete(self) -> None:
        self._append({"type": "campaign_complete"})

    def record_leader_claim(self, leader_id: str, endpoint: str, fence: Fence) -> Dict[str, Any]:
        """*fence* returns the claim's epoch and times under the lock."""
        entry = {"type": "leader_claim", "leader_id": leader_id, "endpoint": endpoint}
        self._append(entry, fence=lambda state: entry.update(fence(state)))
        return entry

    def record_leader_renew(self, epoch: int, expires_at: float, fence: Fence) -> None:
        self._append(
            {"type": "leader_renew", "epoch": epoch, "expires_at": expires_at}, fence=fence
        )

    def record_leader_release(self, epoch: int, reason: str, fence: Fence) -> None:
        self._append({"type": "leader_release", "epoch": epoch, "reason": reason}, fence=fence)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def follow(self, view: Fence) -> Any:
        """Apply what the file gained since the last follow to the state
        and return *view* of it, both under the follow lock (the only
        place the state changes)."""
        return self._log.follow(lambda entries: view(self._state.apply(entries)))

    def state(self) -> CampaignState:
        """The journal folded up to its current end (DESIGN.md §18)."""
        return self.follow(lambda state: state)

    def entries(self) -> List[Dict[str, Any]]:
        return list(self._log.replay())

    # ------------------------------------------------------------------
    # Resume protocol
    # ------------------------------------------------------------------
    def prepare_resume(
        self,
        description,
        total_runs: int,
        plan_fingerprint: str,
    ) -> Dict[int, Dict[str, Any]]:
        """Validate compatibility; return the staged-run source map.

        Refuses a missing start, a completed campaign, a changed
        description, seed or plan size (a resume must not silently mix
        two experiments) and a changed plan (a campaign may execute a
        programmatic ``custom_treatments`` plan the description
        fingerprint does not cover).  An entry is trusted iff its shard
        holds the run's rows; the others are dropped so the scheduler
        re-executes those runs.
        """
        # Copied under the follow lock: a fenced append may advance the
        # state meanwhile (DESIGN.md §18).
        starts, complete, completed = self.follow(
            lambda state: (state.starts[:1], state.complete, dict(state.completed))
        )
        if not starts:
            raise RecoveryError(
                "campaign journal has no campaign_start entry; nothing to resume",
            )
        if complete:
            raise RecoveryError("campaign already completed; nothing to resume")
        start, fingerprint = starts[0], description.fingerprint()
        if start["fingerprint"] != fingerprint:
            raise RecoveryError(
                "description changed since the aborted execution "
                f"(journal {start['fingerprint'][:12]}..., now {fingerprint[:12]}...)"
            )
        if start["seed"] != description.seed:
            raise RecoveryError(
                f"seed changed since the aborted execution ({start['seed']} -> {description.seed})"
            )
        if start["total_runs"] != total_runs:
            raise RecoveryError(f"plan size changed ({start['total_runs']} -> {total_runs})")
        if start.get("plan_fingerprint") != plan_fingerprint:
            raise RecoveryError(
                "treatment plan changed since the aborted campaign "
                "(custom_treatments differ?)",
            )
        from repro.campaign.merge import shard_has_run

        return {
            run_id: entry
            for run_id, entry in completed.items()
            if shard_has_run(self.root / entry["shard"], run_id)
        }
