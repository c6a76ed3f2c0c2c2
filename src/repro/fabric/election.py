"""Epoch-fenced leader election: automatic coordinator failover.

Journal replay makes coordinator failover *safe* but not *automatic*:
on its own, a dead coordinator stalls the fleet until an operator
restarts it with ``--resume``.  This module adds the missing
piece — a durable **leadership lease** over the campaign directory, so
any number of ``repro fabric serve --standby`` processes can tail the
journal and take over the moment the leader's heartbeat lapses.

The lease lives in the campaign journal, as three entry types:

``leader_claim``    a coordinator took leadership: monotonically
                    increasing **fencing epoch**, leader id, serving
                    endpoint, expiry.
``leader_renew``    the leader's heartbeat: a new expiry for its epoch.
``leader_release``  the leader gave leadership up voluntarily
                    (``handoff``, ``complete``) — standbys may claim
                    immediately instead of waiting out the TTL.

The journal's one fold (:class:`repro.campaign.state.CampaignState`)
keeps the current :class:`LeaderRecord`; :class:`ElectionLedger` reads it
and folds nothing itself.  The arbiter is the ``flock`` every journal
append already holds: the journal brings its state up to date under it
and hands the state to the append's fence, so a claim computes its epoch
there, and a leader's every write — renewal, release and, through the
fence the coordinator sets on its journal (:meth:`ElectionLedger.fence`),
each entry it journals — is refused there with :class:`LeadershipLost`,
before anything is written, once a newer epoch or a release is on file.

The fencing invariant: epochs only grow, at most one process can hold
the lease at any epoch, and no journal entry carries a non-current
epoch's writes.  Split brain can therefore delay work (two coordinators
may *think* they lead) but never double-commit a run or leave a deposed
leader's grant, failure, expiry or quarantine for a later resume to fold.

Standbys additionally announce themselves through beacon files under
``standbys/`` so ``repro fabric status`` can report the roster without
a live leader to ask.
"""

from __future__ import annotations

import json
import time
from contextlib import suppress
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from repro.campaign.journal import CampaignJournal, Fence
from repro.campaign.state import CampaignState, LeaderRecord
from repro.core.errors import CampaignError
from repro.durable import replace_file
from repro.obs.metrics import count_suppressed_error

__all__ = [
    "ElectionLedger",
    "LeaderRecord",
    "LeadershipLost",
    "StandbyCoordinator",
]

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


def _slug(name: str) -> str:
    return "".join(c if c.isalnum() or c in "-_" else "_" for c in name) or "x"


class ElectionLedger:
    """The leadership lease as *journal*'s state holds it (a coordinator's
    session journal, so its fence and its views share one fold)."""

    def __init__(
        self,
        journal: CampaignJournal,
        ttl: float = 10.0,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if ttl <= 0:
            raise CampaignError(f"election ttl must be > 0, got {ttl}")
        self.journal = journal
        self.root = journal.root
        self.ttl = float(ttl)
        self.clock = clock

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def current(self) -> Optional[LeaderRecord]:
        """The latest claim, with what happened to it since."""
        return self.journal.state().leader

    def leader(self, now: Optional[float] = None) -> Optional[LeaderRecord]:
        """The live leader, or ``None`` when the lease is claimable."""
        now = self.clock() if now is None else now
        record = self.current()
        return record if record is not None and record.live(now) else None

    # ------------------------------------------------------------------
    # Lease lifecycle
    # ------------------------------------------------------------------
    def fence(self, epoch: int) -> Fence:
        """The check that admits a journal append only while *epoch* holds
        the lease: handed the journal's state, brought up to date under
        the append's lock, it raises :class:`LeadershipLost` once a
        higher epoch or a release is on file."""

        def check(state: CampaignState) -> None:
            record = state.leader
            if record is None or record.epoch != epoch or record.released:
                held = "released" if record and record.released else "superseded"
                raise LeadershipLost(
                    f"epoch {epoch} is {held} "
                    f"(journal at epoch {record.epoch if record else 0}); "
                    "refusing the write",
                )

        return check

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

        def check(state: CampaignState) -> Dict[str, Any]:
            now = self.clock()
            record = state.leader
            if record is not None and record.live(now) and not force:
                raise LeadershipLost(f"{record.leader_id} holds epoch {record.epoch}")
            epoch = (0 if record is None else record.epoch) + 1
            return {"epoch": epoch, "claimed_at": now, "expires_at": now + self.ttl}

        with suppress(LeadershipLost):
            return self.journal.record_leader_claim(leader_id, endpoint, check)["epoch"]
        return None

    def renew(self, epoch: int) -> bool:
        """Heartbeat the lease at *epoch*; ``False`` means deposed."""
        with suppress(LeadershipLost):
            self.journal.record_leader_renew(epoch, self.clock() + self.ttl, self.fence(epoch))
            return True
        return False

    def release(self, epoch: int, reason: str) -> bool:
        """Voluntarily give leadership up (handoff, completion)."""
        with suppress(LeadershipLost):
            self.journal.record_leader_release(epoch, reason, self.fence(epoch))
            return True
        return False

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
    """A hot-standby coordinator: tail the journal, take over on lapse.

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
        self.ledger = ElectionLedger(
            CampaignJournal(self.campaign_dir), ttl=election_ttl, clock=clock
        )
        self.promoted = False
        self.coordinator: Optional["object"] = None

    def _note(self, line: str) -> None:
        if self.on_event is not None:
            self.on_event(f"[standby {self.standby_id}] {line}")

    # ------------------------------------------------------------------
    def run(self, timeout: Optional[float] = None):
        """Tail the lease; on takeover, serve the campaign to completion.

        Returns the promoted coordinator's :class:`CampaignResult`, or
        ``None`` when the campaign completed under another leader.  Raises
        :class:`CampaignError` on *timeout*.  Each poll reads only what the
        journal gained since the last one.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        endpoint = f"{self.host}:{self.port}"
        try:
            while True:
                if deadline is not None and time.monotonic() > deadline:
                    raise CampaignError(
                        f"standby {self.standby_id} timed out after {timeout}s "
                        "without a takeover or campaign completion",
                    )
                self.ledger.beacon(self.standby_id, endpoint)
                state = self.ledger.journal.state()
                if state.complete:
                    self._note("campaign complete under another leader; exiting")
                    return None
                previous = state.leader
                if previous is None or not previous.live(self.clock()):
                    why = (
                        "released " + previous.released
                        if previous is not None and previous.released
                        else "lease lapsed"
                        if previous is not None
                        else "no leader yet"
                    )
                    self._note(f"leadership claimable ({why}); campaigning")
                    result = self._promote()
                    if result is not _LOST_RACE:
                        return result
                    self._note("lost the claim race; resuming watch")
                time.sleep(self.poll)
        finally:
            self.ledger.retire_beacon(self.standby_id)

    def _promote(self):
        """Claim + serve; returns ``_LOST_RACE`` when a rival won."""
        from repro.fabric.coordinator import FabricCoordinator

        coordinator = FabricCoordinator(
            self.description,
            self.campaign_dir,
            host=self.host,
            port=self.port,
            resume=bool(self.ledger.journal.state().starts),
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
