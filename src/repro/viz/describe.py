"""Human-readable summaries of descriptions, plans and results.

Useful both interactively and in the example/benchmark output — they
print the experiment the way the paper's Sec. IV narrates it: factors and
levels, actor roles, processes, platform mapping, treatment counts.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.core.description import ExperimentDescription
from repro.core.plan import TreatmentPlan
from repro.core.processes import (
    DomainAction,
    EventFlag,
    WaitForEvent,
    WaitForTime,
    WaitMarker,
)

__all__ = ["describe_description", "describe_plan", "describe_result", "describe_action"]


def describe_action(action) -> str:
    """One-line rendering of a single process action."""
    if isinstance(action, WaitForTime):
        return f"wait_for_time({action.seconds})"
    if isinstance(action, WaitForEvent):
        parts = [repr(action.event)]
        if action.from_nodes is not None:
            sel = action.from_nodes
            parts.append(f"from={sel.actor or sel.node_id}[{sel.instance}]")
        if action.param_nodes is not None:
            sel = action.param_nodes
            parts.append(f"param={sel.actor or sel.node_id}[{sel.instance}]")
        if action.param_values is not None:
            parts.append(f"param_values={list(action.param_values)}")
        if action.timeout is not None:
            parts.append(f"timeout={action.timeout}")
        return f"wait_for_event({', '.join(parts)})"
    if isinstance(action, WaitMarker):
        return "wait_marker()"
    if isinstance(action, EventFlag):
        return f"event_flag({action.value!r})"
    if isinstance(action, DomainAction):
        params = ", ".join(f"{k}={v}" for k, v in action.params.items())
        return f"{action.name}({params})"
    return repr(action)


def describe_description(desc: ExperimentDescription) -> str:
    """The Sec. IV narration of one description."""
    lines: List[str] = [
        f"experiment {desc.name!r}  (seed {desc.seed})",
    ]
    if desc.parameters:
        lines.append("  informative parameters:")
        for key, value in sorted(desc.parameters.items()):
            lines.append(f"    {key} = {value}")
    lines.append(
        f"  abstract nodes: {', '.join(desc.abstract_nodes) or '(none)'}"
    )
    lines.append(
        f"  factors ({len(desc.factors)}; "
        f"{desc.factors.treatment_count()} treatments x "
        f"{desc.factors.replication.count} replications = "
        f"{desc.factors.total_runs()} runs):"
    )
    for factor in desc.factors:
        values = factor.level_values
        shown = values if factor.type != "actor_node_map" else [
            "{" + ", ".join(f"{a}:{sorted(m.values())}" for a, m in v.items()) + "}"
            for v in values
        ]
        lines.append(
            f"    {factor.id} [{factor.type}, {factor.usage.value}]: {shown}"
        )
    for actor in desc.actors:
        lines.append(f"  actor {actor.actor_id} ({actor.name or 'unnamed'}):")
        for action in actor.actions:
            lines.append(f"    - {describe_action(action)}")
    for i, manip in enumerate(desc.manipulations):
        target = manip.actor_id or manip.node_id
        lines.append(f"  manipulation #{i} on {target}:")
        for action in manip.actions:
            lines.append(f"    - {describe_action(action)}")
    for i, env in enumerate(desc.environment_processes):
        lines.append(f"  environment process #{i} ({env.name}):")
        for action in env.actions:
            lines.append(f"    - {describe_action(action)}")
    if len(desc.platform):
        lines.append("  platform mapping:")
        for node in desc.platform.nodes:
            role = f"-> {node.abstract_id}" if node.is_actor_node else "(environment)"
            lines.append(f"    {node.node_id} @ {node.address} {role}")
    return "\n".join(lines)


def describe_plan(plan: TreatmentPlan, max_rows: int = 12) -> str:
    """The head of the treatment plan as a table."""
    lines = [
        f"treatment plan: {len(plan)} runs, {plan.treatment_count} treatments"
    ]
    factor_ids = plan.factor_ids
    header = "run  trt  rep  " + "  ".join(factor_ids)
    lines.append(header)
    for run in list(plan)[:max_rows]:
        cells = []
        for fid in factor_ids:
            value = run.treatment[fid]
            cells.append(
                "<map>" if isinstance(value, dict) else str(value)
            )
        lines.append(
            f"{run.run_id:>3}  {run.treatment_index:>3}  {run.replication:>3}  "
            + "  ".join(cells)
        )
    if len(plan) > max_rows:
        lines.append(f"... ({len(plan) - max_rows} more runs)")
    return "\n".join(lines)


def describe_result(summary: Dict[str, Any]) -> str:
    """Render a :meth:`~repro.campaign.CampaignResult.summary` mapping."""
    return (
        f"experiment {summary['experiment']!r}: "
        f"{summary['executed']}/{summary['total_runs']} runs executed "
        f"({summary['skipped']} resumed-skipped, {summary['timed_out']} timed out) "
        f"in {summary['duration']:.1f} s"
    )
