"""Responsiveness analysis over level-3 databases.

Sec. VI: responsiveness is *"the probability that a number of SMs is
found within a deadline, as required by the application calling SD"*.
ExCovery was built to support exactly this analysis ([25], [26]); these
functions reproduce it from a stored experiment:

* :func:`run_outcomes` extracts each run's discovery outcome (which SU
  found which SMs when),
* :func:`responsiveness_by_treatment` groups runs by their treatment and
  computes the probability per deadline — the case-study result tables.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.stats import binomial_proportion_ci
from repro.sd.metrics import RunDiscovery, extract_run_discovery, summarize_runs
from repro.storage.level3 import ExperimentDatabase

__all__ = [
    "SD_EVENT_TYPES",
    "discover_roles",
    "run_outcomes",
    "outcomes_by_treatment",
    "responsiveness_by_treatment",
    "treatment_key",
]

#: The only event types the discovery outcome reads: who searched, who
#: published, what was found when.
SD_EVENT_TYPES = ("sd_start_search", "sd_start_publish", "sd_service_add")


def _roles(events: List[Dict[str, Any]]) -> Tuple[List[str], List[str]]:
    return (
        sorted({e["node"] for e in events if e["name"] == "sd_start_search"}),
        sorted({e["node"] for e in events if e["name"] == "sd_start_publish"}),
    )


def discover_roles(db: ExperimentDatabase, run_id: int) -> Tuple[List[str], List[str]]:
    """``(su_nodes, sm_nodes)`` of one run, inferred from its events.

    SUs are nodes that emitted ``sd_start_search``; SMs are nodes that
    emitted ``sd_start_publish``.  Inference from events (not the
    description) keeps the analysis usable on any conforming experiment,
    including ones with per-run role rotation.
    """
    return _roles(db.events(run_id=run_id, event_type=("sd_start_search", "sd_start_publish")))


def run_outcomes(
    db: ExperimentDatabase,
    run_ids: Optional[Iterable[int]] = None,
) -> List[RunDiscovery]:
    """Every (run, SU) discovery outcome in the database.

    One pass over the :data:`SD_EVENT_TYPES` rows of ``Events`` serves
    every run — roles and outcomes are both derived from those rows, so
    the statement count does not grow with the number of runs.
    """
    by_run: Dict[Any, List[Dict[str, Any]]] = {}
    for event in db.events(event_type=SD_EVENT_TYPES):
        by_run.setdefault(event["run_id"], []).append(event)
    outcomes: List[RunDiscovery] = []
    for run_id in run_ids if run_ids is not None else db.run_ids():
        events = by_run.get(run_id, [])
        sus, sms = _roles(events)
        for su in sus:
            outcomes.append(extract_run_discovery(events, run_id, su, sms))
    return outcomes


def treatment_key(treatment: Dict[str, Any]) -> str:
    """Stable string key of a treatment.

    The replication factor is ignored — replications of one treatment
    belong to the same group by definition.
    """
    flat = {
        k: v for k, v in treatment.items()
        if k != "fact_replication_id" and not isinstance(v, dict)
    }
    return json.dumps(flat, sort_keys=True)


def outcomes_by_treatment(
    db: ExperimentDatabase, plan: Sequence[Dict[str, Any]]
) -> List[Tuple[str, Dict[str, Any], List[int], List[RunDiscovery]]]:
    """The database's runs grouped by the treatment *plan* gives them.

    One ``(treatment_key, treatment, run_ids, outcomes)`` per distinct
    treatment, in key order; runs the plan does not list are left out.
    The grouping behind the case-study table and the warehouse's
    responsiveness read model alike.
    """
    entries = {entry["run_id"]: entry for entry in plan}
    run_ids = [run_id for run_id in db.run_ids() if run_id in entries]
    groups: Dict[str, Tuple[Dict[str, Any], List[int], List[RunDiscovery]]] = {}
    key_of: Dict[int, str] = {}
    for run_id in run_ids:
        treatment = entries[run_id]["treatment"]
        key = key_of[run_id] = treatment_key(treatment)
        groups.setdefault(key, (treatment, [], []))[1].append(run_id)
    for outcome in run_outcomes(db, run_ids):
        groups[key_of[outcome.run_id]][2].append(outcome)
    return [(key, *groups[key]) for key in sorted(groups)]


def responsiveness_by_treatment(
    db: ExperimentDatabase, deadlines: Sequence[float]
) -> List[Dict[str, Any]]:
    """The case-study result table.

    One row per distinct treatment: the treatment's factor levels, run
    count, ``t_r`` summary, and for each requested deadline the
    responsiveness estimate with its 95 % Wilson confidence interval.
    """
    rows: List[Dict[str, Any]] = []
    for _key, treatment, run_ids, outcomes in outcomes_by_treatment(db, db.plan()):
        row: Dict[str, Any] = {
            "treatment": {
                k: v
                for k, v in treatment.items()
                if not isinstance(v, dict) and k != "fact_replication_id"
            },
            "runs": len(run_ids),
            "summary": summarize_runs(outcomes),
        }
        for deadline in deadlines:
            hits = sum(
                1 for o in outcomes if o.t_r is not None and o.t_r <= deadline
            )
            p, lo, hi = binomial_proportion_ci(hits, len(outcomes))
            row[f"R({deadline:g}s)"] = {"p": p, "ci": (lo, hi)}
        rows.append(row)
    return rows
