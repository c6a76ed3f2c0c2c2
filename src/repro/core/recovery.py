"""Failure recovery: resuming aborted experiment series.

Sec. VII: *"ExCovery manages series of experiments and recovers from
failures by resuming aborted runs."*

The mechanism is an append-only journal in the level-2 store.  The master
writes:

* ``experiment_start`` (with the description fingerprint and seed) once,
* ``run_complete`` after each fully collected run,
* ``experiment_complete`` at the end.

On a resumed execution the journal tells the master which runs are already
safe; it purges any partial data of unfinished runs and re-executes only
those.  Resuming is refused when the description changed (fingerprint
mismatch) — silently mixing two experiments would poison the series.

Because the whole execution is deterministic in (description, seed), a
resumed experiment converges to byte-identical level-3 contents as an
uninterrupted one — which the integration tests assert.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, TYPE_CHECKING

from repro.core.errors import RecoveryError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.description import ExperimentDescription
    from repro.storage.level2 import Level2Store

__all__ = ["Journal", "check_start_compatibility"]


def check_start_compatibility(
    start: Dict[str, Any], description: "ExperimentDescription", total_runs: int
) -> None:
    """Refuse resuming against a changed experiment.

    Shared by the serial journal below and the campaign journal
    (:mod:`repro.campaign.journal`): both write an identically shaped
    start entry (fingerprint, seed, total_runs) and both must reject a
    resume that would silently mix two different experiments.
    """
    fingerprint = description.fingerprint()
    if start["fingerprint"] != fingerprint:
        raise RecoveryError(
            "description changed since the aborted execution "
            f"(journal {start['fingerprint'][:12]}..., now {fingerprint[:12]}...)"
        )
    if start["seed"] != description.seed:
        raise RecoveryError(
            f"seed changed since the aborted execution "
            f"({start['seed']} -> {description.seed})"
        )
    if start["total_runs"] != total_runs:
        raise RecoveryError(
            f"plan size changed ({start['total_runs']} -> {total_runs})"
        )


class Journal:
    """Typed access to the recovery journal of one level-2 store."""

    def __init__(self, store: "Level2Store") -> None:
        self.store = store

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def record_start(self, fingerprint: str, seed: int, total_runs: int) -> None:
        self.store.append_journal(
            {
                "type": "experiment_start",
                "fingerprint": fingerprint,
                "seed": seed,
                "total_runs": total_runs,
            }
        )

    def record_run_complete(self, run_id: int) -> None:
        self.store.append_journal({"type": "run_complete", "run_id": run_id})

    def record_run_aborted(self, run_id: int, phase: str, reason: str) -> None:
        """A watchdog or control-plane failure killed a run mid-flight.

        Diagnostic only: readers filter by type, so an aborted run is
        simply not in :meth:`completed_runs` and a resume re-executes it;
        the entry preserves *why* for post-mortems (:meth:`abort_reasons`).
        Nothing carries it into level 3: ``RunInfos.AbortReason`` comes
        from the campaign journal's ``run_failed`` entries.
        """
        self.store.append_journal(
            {
                "type": "run_aborted",
                "run_id": run_id,
                "phase": phase or "",
                "reason": str(reason)[:500],
            }
        )

    def record_experiment_complete(self) -> None:
        self.store.append_journal({"type": "experiment_complete"})

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def entries(self) -> List[Dict[str, Any]]:
        return self.store.read_journal()

    def started(self) -> bool:
        return any(e["type"] == "experiment_start" for e in self.entries())

    def finished(self) -> bool:
        return any(e["type"] == "experiment_complete" for e in self.entries())

    def completed_runs(self) -> Set[int]:
        return {
            e["run_id"] for e in self.entries() if e["type"] == "run_complete"
        }

    def abort_reasons(self) -> Dict[int, Dict[str, Any]]:
        """``{run_id: latest run_aborted entry}`` for post-mortems."""
        return {e["run_id"]: e for e in self.entries() if e["type"] == "run_aborted"}

    def start_entry(self) -> Optional[Dict[str, Any]]:
        for e in self.entries():
            if e["type"] == "experiment_start":
                return e
        return None

    # ------------------------------------------------------------------
    # Resume protocol
    # ------------------------------------------------------------------
    def prepare_resume(
        self, description: "ExperimentDescription", total_runs: int
    ) -> Set[int]:
        """Validate compatibility and return the set of safe run ids.

        Also purges partial data of every *unfinished* run so re-execution
        starts clean.  Raises :class:`RecoveryError` on mismatch.
        """
        start = self.start_entry()
        if start is None:
            raise RecoveryError("journal has no experiment_start entry; nothing to resume")
        if self.finished():
            raise RecoveryError("experiment already completed; nothing to resume")
        check_start_compatibility(start, description, total_runs)
        completed = self.completed_runs()
        for run_id in self.store.run_ids():
            if run_id not in completed:
                self.store.purge_run(run_id)
        return completed
