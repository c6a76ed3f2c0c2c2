"""Global run timelines (the data behind Fig. 11).

Sec. IV-B3: the sync measurements *"allow to construct a valid global
time line of events and packets, avoiding causal conflicts due to local
clocks deviating between experiment runs"*.  A :class:`RunTimeline` is
that global time line for one run: every event of every participant on
the common time base, with the run's three phases (preparation /
execution / clean-up) identified the way Fig. 11 draws them:

* **preparation** ends when the (first) ``sd_start_search`` fires — the
  moment the process under examination actually starts;
* **execution** ends at the ``done`` flag (or the last ``sd_service_add``
  when no flag exists);
* the rest is **clean-up**.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

__all__ = ["TimelineEntry", "RunTimeline", "build_run_timeline"]


@dataclass(frozen=True)
class TimelineEntry:
    """One event on the global time line."""

    common_time: float
    node: str
    name: str
    params: tuple
    phase: str  # "preparation" | "execution" | "cleanup"


@dataclass
class RunTimeline:
    """All events of one run in global order, with phase boundaries."""

    run_id: int
    entries: List[TimelineEntry] = field(default_factory=list)
    start: float = 0.0
    exec_begin: Optional[float] = None
    exec_end: Optional[float] = None
    end: float = 0.0

    def relative_time(self, entry: TimelineEntry) -> float:
        """Seconds since the run's first event."""
        return entry.common_time - self.start

    @property
    def t_r(self) -> Optional[float]:
        """The Fig. 11 response time: search start to (last) service add."""
        start = None
        last_add = None
        for e in self.entries:
            if e.name == "sd_start_search" and start is None:
                start = e.common_time
            elif e.name == "sd_service_add":
                last_add = e.common_time
        if start is None or last_add is None or last_add < start:
            return None
        return last_add - start

    def nodes(self) -> List[str]:
        return sorted({e.node for e in self.entries})

    def events_on(self, node: str) -> List[TimelineEntry]:
        return [e for e in self.entries if e.node == node]

    def phase_of(self, common_time: float) -> str:
        if self.exec_begin is not None and common_time < self.exec_begin:
            return "preparation"
        if self.exec_end is not None and common_time > self.exec_end:
            return "cleanup"
        if self.exec_begin is None:
            return "preparation"
        return "execution"

    def durations(self) -> Dict[str, float]:
        """Per-phase durations in seconds."""
        eb = self.exec_begin if self.exec_begin is not None else self.end
        ee = self.exec_end if self.exec_end is not None else self.end
        return {
            "preparation": max(0.0, eb - self.start),
            "execution": max(0.0, ee - eb),
            "cleanup": max(0.0, self.end - ee),
            "total": max(0.0, self.end - self.start),
        }


def phase_duration_summary(
    events: List[Dict[str, Any]],
    run_ids: List[int],
) -> Dict[str, Dict[str, float]]:
    """Mean/min/max of each phase's duration across *run_ids*.

    The per-run phase split is the total-time estimation input the paper
    flags (Sec. IV-C1: *"All steps will be repeated during each run, this
    has to be considered when estimating the total time an experiment
    needs to finish"*).
    """
    per_phase: Dict[str, List[float]] = {
        "preparation": [], "execution": [], "cleanup": [], "total": []
    }
    for run_id in run_ids:
        timeline = build_run_timeline(events, run_id)
        if not timeline.entries:
            continue
        for phase, duration in timeline.durations().items():
            per_phase[phase].append(duration)
    out: Dict[str, Dict[str, float]] = {}
    for phase, values in per_phase.items():
        if values:
            out[phase] = {
                "mean": sum(values) / len(values),
                "min": min(values),
                "max": max(values),
                "runs": float(len(values)),
            }
    return out


def build_run_timeline(events: List[Dict[str, Any]], run_id: int) -> RunTimeline:
    """Assemble the timeline of *run_id* from conditioned event records.

    *events* are records with ``common_time`` (level-3 reader output or
    conditioned level-2 data).
    """
    run_events = sorted(
        (e for e in events if e.get("run_id") == run_id),
        key=lambda e: (e["common_time"], e.get("node", "")),
    )
    if not run_events:
        return RunTimeline(run_id=run_id)

    start = run_events[0]["common_time"]
    end = run_events[-1]["common_time"]
    exec_begin = next(
        (e["common_time"] for e in run_events if e["name"] == "sd_start_search"),
        None,
    )
    done_time = next(
        (e["common_time"] for e in run_events if e["name"] == "done"), None
    )
    if done_time is None:
        adds = [e["common_time"] for e in run_events if e["name"] == "sd_service_add"]
        done_time = max(adds) if adds else None

    timeline = RunTimeline(
        run_id=run_id,
        start=start,
        exec_begin=exec_begin,
        exec_end=done_time,
        end=end,
    )
    for e in run_events:
        timeline.entries.append(
            TimelineEntry(
                common_time=e["common_time"],
                node=e.get("node", "?"),
                name=e["name"],
                params=tuple(e.get("params", ())),
                phase=timeline.phase_of(e["common_time"]),
            )
        )
    return timeline
