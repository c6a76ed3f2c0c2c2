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
    under (``null`` on a local campaign).  A restarted coordinator folds
    these into its open leases (:meth:`repro.fabric.leases.LeaseStore.restore`);
    a local session's dangling entries mean nothing, their runs are
    simply re-executed.
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

The file is a :class:`repro.durable.DurableLog` and every append is
synced: a crash never loses an acknowledged run, it only re-executes work
in flight — and because runs are deterministic, re-execution converges to
byte-identical data.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.core.errors import RecoveryError
from repro.durable import DurableLog

__all__ = ["CampaignJournal", "check_start_compatibility"]

JOURNAL_NAME = "campaign.jsonl"


def check_start_compatibility(start: Dict[str, Any], description, total_runs: int) -> None:
    """Refuse resuming against a changed experiment.

    *start* is the journal's first ``campaign_start`` entry (fingerprint,
    seed, total_runs); a resume that would silently mix two different
    experiments is a :class:`RecoveryError`.
    """
    fingerprint = description.fingerprint()
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


class CampaignJournal:
    """Typed access to one campaign directory's recovery journal."""

    def __init__(self, campaign_dir) -> None:
        self.root = Path(campaign_dir)
        self.path = self.root / JOURNAL_NAME
        self._log = DurableLog(self.path)

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def _append(self, record: Dict[str, Any]) -> None:
        self._log.append([record])

    def record_start(
        self,
        fingerprint: str,
        seed: int,
        total_runs: int,
        plan_fingerprint: str,
    ) -> int:
        """Append a session-start entry; returns this session's index."""
        session = self.session_count()
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

    def record_run_start(self, run_id: int, worker: str, lease_id: Optional[str]) -> None:
        """*lease_id* is ``None`` on a local campaign."""
        self._append(
            {"type": "run_start", "run_id": run_id, "worker": worker, "lease_id": lease_id},
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

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def entries(self) -> List[Dict[str, Any]]:
        return list(self._log.replay())

    def _latest(self, kind: str) -> Dict[int, Dict[str, Any]]:
        return {e["run_id"]: e for e in self.entries() if e["type"] == kind}

    def started(self) -> bool:
        return any(e["type"] == "campaign_start" for e in self.entries())

    def finished(self) -> bool:
        return any(e["type"] == "campaign_complete" for e in self.entries())

    def session_count(self) -> int:
        return sum(1 for e in self.entries() if e["type"] == "campaign_start")

    def start_entry(self) -> Optional[Dict[str, Any]]:
        for e in self.entries():
            if e["type"] == "campaign_start":
                return e
        return None

    def completed(self) -> Dict[int, Dict[str, Any]]:
        """``{run_id: latest run_complete entry}`` — the merge source map.

        The *latest* entry wins: if a run was re-executed (journal lagged
        a shard commit across a crash), its newest shard is authoritative
        and older copies are ignored by the merge.
        """
        return self._latest("run_complete")

    def failure_reasons(self) -> Dict[int, Dict[str, Any]]:
        """``{run_id: latest run_failed entry}`` — abort-reason source.

        Includes runs that later completed (their earlier attempt's
        failure is exactly what ``AbortReason`` documents); callers
        intersect with :meth:`completed` as needed.
        """
        return self._latest("run_failed")

    def quarantined_nodes(self) -> List[str]:
        return sorted(
            {e["node_id"] for e in self.entries() if e["type"] == "node_quarantined"},
        )

    def quarantined_workers(self) -> List[str]:
        return sorted({e["worker_id"] for e in self.entries() if e["type"] == "worker_quarantined"})

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
        description (:func:`check_start_compatibility`) and a changed plan
        (a campaign may execute a programmatic ``custom_treatments`` plan
        the description fingerprint does not cover).  An entry is trusted
        iff its shard holds the run's rows; the others are dropped so the
        scheduler re-executes those runs.
        """
        start = self.start_entry()
        if start is None:
            raise RecoveryError(
                "campaign journal has no campaign_start entry; nothing to resume",
            )
        if self.finished():
            raise RecoveryError("campaign already completed; nothing to resume")
        check_start_compatibility(start, description, total_runs)
        if start.get("plan_fingerprint") != plan_fingerprint:
            raise RecoveryError(
                "treatment plan changed since the aborted campaign "
                "(custom_treatments differ?)",
            )
        from repro.campaign.merge import shard_has_run

        return {
            run_id: entry
            for run_id, entry in self.completed().items()
            if shard_has_run(self.root / entry["shard"], run_id)
        }
