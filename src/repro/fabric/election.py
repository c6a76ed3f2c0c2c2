"""Epoch-fenced leader election: automatic coordinator failover.

Journal replay makes coordinator failover *safe* but not *automatic*:
on its own, a dead coordinator stalls the fleet until an operator
restarts it with ``--resume``.  This module adds the missing
piece — a durable **leadership lease** over the campaign directory, so
any number of ``repro fabric serve --standby`` processes can tail the
journal and take over the moment the leader's heartbeat lapses.

The ledger is a :class:`repro.durable.DurableLog` (``election.jsonl``)
synced per append like the campaign journal, with three record shapes:

``claim``    a coordinator took leadership: monotonically increasing
             **fencing epoch**, leader id, serving endpoint, expiry.
``renew``    the leader's heartbeat: a new expiry for its epoch.
``release``  the leader gave leadership up voluntarily (``handoff``,
             ``complete``) — standbys may claim immediately instead of
             waiting out the TTL.

Mutual exclusion between rival claimants is an ``flock`` on
``election.lock`` in the same directory: the fabric's coordinators
share the campaign directory (that is what the journal already
requires), so POSIX advisory locking is the natural arbiter.
Every claim, renewal, release — and, crucially, every **fenced commit**
— runs under that lock, which closes the check-then-write race: a
deposed leader that was stopped (partitioned, SIGSTOPped) mid-campaign
and wakes up later re-validates its epoch *inside* the lock before any
durable write, finds a higher epoch on the ledger, and aborts with
:class:`LeadershipLost` instead of corrupting state.

The fencing invariant: epochs only grow, at most one process can hold
the lease at any epoch, and no run commit is durable unless the
committing coordinator held the current epoch at commit time.  Split
brain can therefore delay work (two coordinators may *think* they lead)
but never double-commit a run — the losing side's commits are rejected
live, by epoch comparison under the lock (:meth:`ElectionLedger.fenced`).
There is no replay-side fence: a deposed leader's stray lease entries in
the journal can at worst re-queue a run early, and first-ack-wins makes
the second execution a duplicate.

Standbys additionally announce themselves through beacon files under
``standbys/`` so ``repro fabric status`` can report the roster without
a live leader to ask.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.core.errors import CampaignError
from repro.durable import DurableLog, locked, replace_file
from repro.obs.metrics import count_suppressed_error

__all__ = [
    "ElectionLedger",
    "LeaderRecord",
    "LeadershipLost",
    "StandbyCoordinator",
]

ELECTION_NAME = "election.jsonl"
LOCK_NAME = "election.lock"
STANDBY_DIR = "standbys"


class LeadershipLost(CampaignError):
    """This coordinator no longer holds the leadership lease.

    ``reason`` distinguishes the voluntary paths (``"handoff"``,
    ``"complete"``) from deposition (``"deposed"``, ``"lost-claim"``):
    a handoff is a clean exit, a deposition is the fencing mechanism
    refusing a stale leader's writes.
    """

    def __init__(self, message: str, reason: str = "deposed") -> None:
        super().__init__(message)
        self.reason = reason


@dataclass
class LeaderRecord:
    """The ledger's view of one leadership epoch."""

    epoch: int
    leader_id: str
    endpoint: str
    claimed_at: float
    expires_at: float
    renewals: int = 0
    released: Optional[str] = None  # release reason, None while held

    def live(self, now: float) -> bool:
        return self.released is None and now < self.expires_at


def _slug(name: str) -> str:
    return "".join(c if c.isalnum() or c in "-_" else "_" for c in name) or "x"


class ElectionLedger:
    """The durable leadership lease of one campaign directory."""

    def __init__(
        self,
        campaign_dir,
        ttl: float = 10.0,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if ttl <= 0:
            raise CampaignError(f"election ttl must be > 0, got {ttl}")
        self.root = Path(campaign_dir)
        self.path = self.root / ELECTION_NAME
        self.lock_path = self.root / LOCK_NAME
        self._log = DurableLog(self.path)
        self.ttl = float(ttl)
        self.clock = clock

    def _append(self, record: dict) -> None:
        self._log.append([record])

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def current(self) -> Optional[LeaderRecord]:
        """Replay the ledger; the highest-epoch claim wins."""
        record: Optional[LeaderRecord] = None
        for rec in self._log.replay():
            op = rec["op"]
            if op == "claim":
                record = LeaderRecord(
                    epoch=int(rec["epoch"]),
                    leader_id=rec["leader_id"],
                    endpoint=rec["endpoint"],
                    claimed_at=rec["claimed_at"],
                    expires_at=rec["expires_at"],
                )
            elif record is None or int(rec["epoch"]) != record.epoch:
                continue  # stale writer's renew/release: fenced out
            elif op == "renew":
                record.expires_at = rec["expires_at"]
                record.renewals += 1
            elif op == "release":
                record.released = rec["reason"]
        return record

    def leader(self, now: Optional[float] = None) -> Optional[LeaderRecord]:
        """The live leader, or ``None`` when the lease is claimable."""
        now = self.clock() if now is None else now
        record = self.current()
        return record if record is not None and record.live(now) else None

    def epoch(self) -> int:
        """The highest epoch ever claimed (0 on a fresh directory)."""
        record = self.current()
        return 0 if record is None else record.epoch

    # ------------------------------------------------------------------
    # Lease lifecycle
    # ------------------------------------------------------------------
    def campaign(
        self,
        leader_id: str,
        endpoint: str,
        force: bool = False,
    ) -> Optional[int]:
        """Try to claim leadership; returns the won epoch or ``None``.

        A claim succeeds when no leader holds a live lease — the previous
        lease expired without renewal (leader died or was partitioned) or
        was released (handoff, completion).  ``force=True`` bumps the
        epoch over a live lease: the operator-restart path, where whoever
        runs ``--resume`` asserts the old leader is gone.
        """
        with locked(self.lock_path):
            now = self.clock()
            record = self.current()
            if record is not None and record.live(now) and not force:
                return None
            epoch = (0 if record is None else record.epoch) + 1
            self._append(
                {
                    "op": "claim",
                    "epoch": epoch,
                    "leader_id": leader_id,
                    "endpoint": endpoint,
                    "claimed_at": now,
                    "expires_at": now + self.ttl,
                },
            )
            return epoch

    def renew(self, epoch: int) -> bool:
        """Heartbeat the lease at *epoch*; ``False`` means deposed."""
        with locked(self.lock_path):
            record = self.current()
            if record is None or record.epoch != epoch or record.released:
                return False
            self._append(
                {
                    "op": "renew",
                    "epoch": epoch,
                    "expires_at": self.clock() + self.ttl,
                },
            )
            return True

    def release(self, epoch: int, reason: str) -> bool:
        """Voluntarily give leadership up (handoff, completion)."""
        with locked(self.lock_path):
            record = self.current()
            if record is None or record.epoch != epoch or record.released:
                return False
            self._append({"op": "release", "epoch": epoch, "reason": reason})
            return True

    def fenced(self, epoch: int, fn: Callable[[], None]) -> None:
        """Run *fn* iff *epoch* is still the current leadership epoch.

        The whole callable executes under the election flock, so a rival
        cannot claim a higher epoch between the check and *fn*'s durable
        writes — this is the commit-side half of the fencing invariant.
        Raises :class:`LeadershipLost` instead of running *fn* when a
        higher epoch exists or the lease was released.
        """
        with locked(self.lock_path):
            record = self.current()
            if record is None or record.epoch != epoch or record.released:
                held = "released" if record and record.released else "superseded"
                raise LeadershipLost(
                    f"epoch {epoch} is {held} "
                    f"(ledger at epoch {record.epoch if record else 0}); "
                    "refusing the write",
                )
            fn()

    # ------------------------------------------------------------------
    # Standby roster (beacon files; status reporting only)
    # ------------------------------------------------------------------
    @property
    def standby_root(self) -> Path:
        return self.root / STANDBY_DIR

    def beacon(self, standby_id: str, endpoint: str) -> None:
        """Announce a live standby (atomic replace; no fsync — beacons
        are advisory roster entries, not recovery state)."""
        self.standby_root.mkdir(parents=True, exist_ok=True)
        replace_file(
            self.standby_root / f"{_slug(standby_id)}.json",
            json.dumps(
                {
                    "standby_id": standby_id,
                    "endpoint": endpoint,
                    "beat_at": self.clock(),
                },
                sort_keys=True,
            ),
            sync=False,
        )

    def retire_beacon(self, standby_id: str) -> None:
        try:
            (self.standby_root / f"{_slug(standby_id)}.json").unlink(missing_ok=True)
        except OSError:
            # Advisory: a beacon left behind ages out of the roster.
            count_suppressed_error("election_beacon_retire")

    def standby_roster(self) -> List[dict]:
        """Standbys whose beacon is fresher than three election TTLs."""
        horizon = 3.0 * self.ttl
        now = self.clock()
        roster = []
        if not self.standby_root.is_dir():
            return roster
        for path in sorted(self.standby_root.glob("*.json")):
            try:
                rec = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError):
                count_suppressed_error("election_beacon_read")
                continue
            if now - float(rec.get("beat_at", 0.0)) <= horizon:
                roster.append(rec)
        return roster

    # ------------------------------------------------------------------
    def summary(self, now: Optional[float] = None) -> Dict[str, object]:
        """Status snapshot: epoch, leader, liveness, standby roster."""
        now = self.clock() if now is None else now
        record = self.current()
        return {
            "epoch": 0 if record is None else record.epoch,
            "leader_id": None if record is None else record.leader_id,
            "leader_endpoint": None if record is None else record.endpoint,
            "leader_live": record is not None and record.live(now),
            "released": None if record is None else record.released,
            "expires_in": (
                None if record is None else round(record.expires_at - now, 3)
            ),
            "standbys": [
                {"standby_id": r["standby_id"], "endpoint": r["endpoint"]}
                for r in self.standby_roster()
            ],
        }


class StandbyCoordinator:
    """A hot-standby coordinator: tail the ledger, take over on lapse.

    Construction takes everything a :class:`FabricCoordinator` would,
    plus the standby's own bind address.  :meth:`run` loops: beacon,
    watch the leadership lease, and the moment it lapses (leader death,
    partition) or is released (graceful handoff), campaign for it.  On
    winning, the standby *becomes* the coordinator — it resumes from the
    journal exactly like ``--resume`` and serves the rest
    of the campaign at its own endpoint (workers re-resolve through
    their seed lists).

    Losing a claim race is not an error: the loop keeps tailing for the
    next lapse.  The loop ends when the campaign completes (whoever led
    it) or *timeout* elapses.
    """

    def __init__(
        self,
        description,
        campaign_dir,
        standby_id: str,
        host: str = "127.0.0.1",
        port: int = 0,
        election_ttl: float = 10.0,
        poll: float = 0.5,
        db_path=None,
        on_event: Optional[Callable[[str], None]] = None,
        clock: Callable[[], float] = time.time,
        **coordinator_kwargs,
    ) -> None:
        self.description = description
        self.campaign_dir = Path(campaign_dir)
        self.standby_id = standby_id
        self.host = host
        self.port = port
        self.election_ttl = float(election_ttl)
        self.poll = float(poll)
        self.db_path = db_path
        self.on_event = on_event
        self.clock = clock
        self.coordinator_kwargs = coordinator_kwargs
        self.ledger = ElectionLedger(campaign_dir, ttl=election_ttl, clock=clock)
        self.promoted = False
        self.coordinator: Optional["object"] = None
        self._stop = False

    def _note(self, line: str) -> None:
        if self.on_event is not None:
            self.on_event(f"[standby {self.standby_id}] {line}")

    def stop(self) -> None:
        self._stop = True

    # ------------------------------------------------------------------
    def run(self, timeout: Optional[float] = None):
        """Tail the lease; on takeover, serve the campaign to completion.

        Returns the promoted coordinator's :class:`CampaignResult`, or
        ``None`` when the campaign completed under another leader (or
        the loop was stopped).  Raises :class:`CampaignError` on
        *timeout*.
        """
        from repro.campaign.journal import CampaignJournal

        journal = CampaignJournal(self.campaign_dir)
        deadline = None if timeout is None else time.monotonic() + timeout
        endpoint = f"{self.host}:{self.port}"
        try:
            while not self._stop:
                if deadline is not None and time.monotonic() > deadline:
                    raise CampaignError(
                        f"standby {self.standby_id} timed out after {timeout}s "
                        "without a takeover or campaign completion",
                    )
                self.ledger.beacon(self.standby_id, endpoint)
                if journal.finished():
                    self._note("campaign complete under another leader; exiting")
                    return None
                record = self.ledger.leader()
                if record is None:
                    previous = self.ledger.current()
                    why = (
                        "released " + previous.released
                        if previous is not None and previous.released
                        else "lease lapsed"
                        if previous is not None
                        else "no leader yet"
                    )
                    self._note(f"leadership claimable ({why}); campaigning")
                    result = self._promote(journal)
                    if result is not _LOST_RACE:
                        return result
                    self._note("lost the claim race; resuming watch")
                time.sleep(self.poll)
            return None
        finally:
            self.ledger.retire_beacon(self.standby_id)

    def _promote(self, journal):
        """Claim + serve; returns ``_LOST_RACE`` when a rival won."""
        from repro.fabric.coordinator import FabricCoordinator

        coordinator = FabricCoordinator(
            self.description,
            self.campaign_dir,
            host=self.host,
            port=self.port,
            resume=journal.started(),
            leader_id=self.standby_id,
            election_ttl=self.election_ttl,
            takeover=False,  # polite claim: only a lapsed/released lease
            **self.coordinator_kwargs,
        )
        try:
            coordinator.start()
        except LeadershipLost:
            return _LOST_RACE
        self.promoted = True
        self.coordinator = coordinator
        self._note(
            f"took over as leader (epoch {coordinator.epoch}) "
            f"at {coordinator.address}",
        )
        try:
            return coordinator.run_until_complete(db_path=self.db_path)
        finally:
            coordinator.stop()


#: Sentinel distinguishing "rival claimed first" from "campaign over".
_LOST_RACE = object()
