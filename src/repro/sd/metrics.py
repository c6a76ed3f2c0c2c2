"""Event-based SD metrics: discovery time and responsiveness.

Sec. VI: *"As a time-critical operation, one key property of SD is
responsiveness — the probability that a number of SMs is found within a
deadline, as required by the application calling SD."*

These functions work on plain event records (the ``as_record`` form) so
they apply equally to the live event bus log, level-2 JSON files and rows
read back from the level-3 database.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, Optional, Sequence, Set

__all__ = [
    "RunDiscovery",
    "extract_run_discovery",
    "responsiveness",
    "summarize_runs",
]

_TIME_KEYS = ("common_time", "local_time")


def _time_of(event: Dict[str, Any]) -> float:
    for key in _TIME_KEYS:
        if key in event:
            return float(event[key])
    raise KeyError(f"event record has no timestamp: {event}")


@dataclass
class RunDiscovery:
    """Discovery outcome of one run from one SU's perspective.

    ``t_r`` is the time from ``sd_start_search`` to the *last* required
    ``sd_service_add`` (the Fig. 11 response time); ``None`` when not all
    required providers were found.
    """

    run_id: int
    su_node: str
    search_started: Optional[float]
    found_at: Dict[str, float]
    required: Set[str]

    @property
    def complete(self) -> bool:
        return self.required.issubset(self.found_at.keys())

    @property
    def t_r(self) -> Optional[float]:
        # An empty provider set is vacuously complete but has no "last
        # required add" — there is no response time to report.
        if self.search_started is None or not self.required or not self.complete:
            return None
        last = max(self.found_at[p] for p in self.required)
        return last - self.search_started


def extract_run_discovery(
    events: Iterable[Dict[str, Any]],
    run_id: int,
    su_node: str,
    required_providers: Iterable[str],
) -> RunDiscovery:
    """Extract one SU's discovery outcome from a run's event records.

    ``sd_service_add`` events carry ``(identifier, provider)`` — the
    provider is matched against *required_providers*.
    """
    required = set(required_providers)
    search_started: Optional[float] = None
    found_at: Dict[str, float] = {}
    for event in events:
        if event.get("run_id") != run_id or event.get("node") != su_node:
            continue
        name = event.get("name")
        if name == "sd_start_search" and search_started is None:
            search_started = _time_of(event)
        elif name == "sd_service_add":
            params = event.get("params", [])
            for p in params:
                if p in required and p not in found_at:
                    found_at[p] = _time_of(event)
    return RunDiscovery(
        run_id=run_id,
        su_node=su_node,
        search_started=search_started,
        found_at=found_at,
        required=required,
    )


def responsiveness(
    outcomes: Sequence[RunDiscovery], deadline: float
) -> float:
    """P(all required SMs found within *deadline*) over the given runs."""
    if not outcomes:
        raise ValueError("responsiveness over zero runs is undefined")
    hits = sum(
        1 for o in outcomes if o.t_r is not None and o.t_r <= deadline
    )
    return hits / len(outcomes)


def summarize_runs(outcomes: Sequence[RunDiscovery]) -> Dict[str, Any]:
    """Aggregate summary for reporting tables."""
    times = [o.t_r for o in outcomes if o.t_r is not None]
    times.sort()

    def _pct(p: float) -> Optional[float]:
        if not times:
            return None
        idx = min(len(times) - 1, int(p * len(times)))
        return times[idx]

    return {
        "runs": len(outcomes),
        "complete": len(times),
        "success_rate": (len(times) / len(outcomes)) if outcomes else 0.0,
        "t_r_min": times[0] if times else None,
        "t_r_median": _pct(0.5),
        "t_r_p95": _pct(0.95),
        "t_r_max": times[-1] if times else None,
        "t_r_mean": (sum(times) / len(times)) if times else None,
    }
