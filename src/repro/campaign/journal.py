"""Write-ahead campaign journal: crash recovery of an experiment series.

Sec. VII: *"ExCovery manages series of experiments and recovers from
failures by resuming aborted runs."*  Every series is a campaign — one
worker or many — and commits its runs to level-3 shards (one per
worker), so the journal is append-only JSONL at the campaign root, and
each entry names the shard a run's rows live in:

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

The journal is segmented, one writer per file (DESIGN.md §16):
``campaign.jsonl`` is segment 0, a local campaign's whole journal, and
leadership epoch *k* appends only to ``campaign.<k>.jsonl``.  A claim
creates its segment exclusively, folds every segment afresh and opens
the segment with a ``leader_claim`` whose ``adopted`` lists the byte
length it folded of each earlier one; an append that finds its next
segment existing raises :class:`LeadershipLost`.  Readers fence: a
segment counts up to the length the highest claim adopted of it, and a
segment above that claim counts as nobody's.  One reducer
interprets what counts, :class:`~repro.campaign.state.CampaignState`;
every reader of a journal object shares its one instance, advanced
from per-segment byte cursors (:meth:`CampaignJournal.follow`).

Every append is synced: a crash never loses an acknowledged run, it
only re-executes work in flight — and because runs are deterministic,
re-execution converges to byte-identical data.
"""

from __future__ import annotations

import math
import os
import threading
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.campaign.state import CampaignState
from repro.core.errors import CampaignError, RecoveryError
from repro.durable import DurableLog, sync_file

__all__ = ["CampaignJournal", "LeadershipLost"]

JOURNAL_NAME = "campaign.jsonl"


class LeadershipLost(CampaignError):
    """This writer no longer holds the leadership lease.

    ``reason`` distinguishes the voluntary paths (``"handoff"``,
    ``"complete"``) from deposition (``"deposed"``, ``"lost-claim"``):
    a handoff is a clean exit, a deposition is a newer epoch's segment
    superseding a stale leader's writes.
    """

    def __init__(self, message: str, reason: str = "deposed") -> None:
        super().__init__(message)
        self.reason = reason


class CampaignJournal:
    """Typed access to one campaign directory's recovery journal."""

    def __init__(self, campaign_dir) -> None:
        self.root = Path(campaign_dir)
        #: The segment this journal appends to: its claimed epoch, else 0.
        self.epoch = 0
        self._applied = [0]  # per known segment: the bytes the state holds
        self._claims: Dict[int, List[int]] = {}  # segment -> its claim's adopted
        self._lock = threading.Lock()
        self._state = CampaignState()

    @property
    def path(self) -> Path:
        """The segment this journal appends to."""
        return self._segment(self.epoch)

    def _segment(self, epoch: int) -> Path:
        return self.root / (f"campaign.{epoch}.jsonl" if epoch else JOURNAL_NAME)

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def _append(self, *records: Dict[str, Any]) -> None:
        DurableLog(self.path).append(records)
        if self._segment(self.epoch + 1).exists():
            epoch = self.epoch
            raise LeadershipLost(f"epoch {epoch} is superseded: segment {epoch + 1} exists")

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

    def record_leader_claim(
        self, leader_id: str, endpoint: str, epoch: int, claimed_at: float, expires_at: float
    ) -> int:
        """Claim *epoch*: create its segment, fold every segment afresh,
        then write the claim adopting what that fold read; raises
        :class:`LeadershipLost` when a rival created the segment first or
        a later one exists by the time the claim is on file."""
        path = self._segment(epoch)
        self.root.mkdir(parents=True, exist_ok=True)
        try:
            os.close(os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644))
        except FileExistsError:
            raise LeadershipLost(f"a rival claimed epoch {epoch} first", "lost-claim") from None
        sync_file(path)
        with self._lock:
            self._fold(afresh=True)
            adopted = self._applied[:epoch]
        self.epoch = epoch
        claim = {"type": "leader_claim", "leader_id": leader_id, "endpoint": endpoint}
        claim.update(epoch=epoch, claimed_at=claimed_at, expires_at=expires_at, adopted=adopted)
        self._append(claim)
        return epoch

    def record_leader(self, kind: str, epoch: int, **fields: Any) -> None:
        """A ``leader_renew`` (``expires_at``) or ``leader_release``
        (``reason``) of *epoch*."""
        self._append({"type": kind, "epoch": epoch, **fields})

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def follow(self, view: Callable[[CampaignState], Any]) -> Any:
        """Apply what the segments gained since the last follow to the
        state and return *view* of it, both under the follow lock (the
        only place the state changes)."""
        with self._lock:
            self._fold()
            return view(self._state)

    def state(self) -> CampaignState:
        """The journal folded up to its current end (DESIGN.md §18)."""
        return self.follow(lambda state: state)

    def entries(self) -> List[Dict[str, Any]]:
        """Every counted record, in segment order."""
        with self._lock:
            caps = self._caps()
            return [record for k, cap in enumerate(caps) for _end, record in self._read(k, 0, cap)]

    def top(self) -> Tuple[int, Optional[float]]:
        """The highest segment as of the last fold, and its creation time
        while it holds no claim (a claimer died, or is mid-claim)."""
        k = len(self._applied) - 1
        return k, None if k == 0 or k in self._claims else self._segment(k).stat().st_mtime

    def _fold(self, afresh: bool = False) -> None:
        caps = self._caps()
        if afresh or any(cap < done for cap, done in zip(caps, self._applied)):
            # Only a deposed writer's late append, tailed before the claim
            # that caps it was on file, leads here.
            self._state, self._applied = CampaignState(), [0] * len(caps)
        for k, cap in enumerate(caps):
            start, path = self._applied[k], self._segment(k)
            if start == cap or not afresh and not (path.exists() and path.stat().st_size > start):
                continue
            for end, record in self._read(k, start, cap):
                self._state.apply([record])
                self._applied[k] = end

    def _caps(self) -> List[float]:
        """Find new segments; return each one's cap: what the highest claim
        adopted of every segment below it, none on its own, and 0 on each
        one above it (they hold no claim, so they count as nobody's)."""
        while self._segment(len(self._applied)).exists():
            self._applied.append(0)
        top = len(self._applied) - 1
        for k in range(top, 0, -1):
            if k not in self._claims:
                for _end, record in DurableLog(self._segment(k))._read(0):
                    if record["type"] == "leader_claim":
                        self._claims[k] = record["adopted"]
                    break
            if k in self._claims:
                return self._claims[k] + [math.inf] + [0] * (top - k)
        return [math.inf] + [0] * top

    def _read(self, k: int, start: int, cap: float):
        """``(end, record)`` of segment *k* from byte *start* up to *cap*."""
        for end, record in DurableLog(self._segment(k))._read(start):
            if end > cap:
                return
            yield end, record

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
        # Copied under the follow lock: another thread's follow may
        # advance the state meanwhile (DESIGN.md §18).
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
