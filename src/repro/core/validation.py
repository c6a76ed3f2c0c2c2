"""Automatic checking of experiment descriptions.

Sec. I promises that the formal description *"allows for automatic
checking, execution and additional features"*.  This module is the
checking part: it walks a parsed :class:`ExperimentDescription` and
reports every semantic violation at once (errors) plus softer findings
(warnings) that don't block execution.

Checked invariants
------------------
* actor ids unique; abstract node ids unique and non-empty,
* at most one ``actor_node_map`` factor; each of its levels maps every
  declared actor to declared abstract nodes, with disjoint assignments,
* every abstract node used by actors is mapped by the platform spec,
* every ``factorref`` resolves to a declared factor (including the
  replication factor id),
* every domain action name is known to the action registry, and executes
  in a legal scope (environment actions cannot appear in node processes
  and vice versa),
* node selectors reference declared actors / abstract nodes,
* ``wait_for_event`` timeouts and ``wait_for_time`` delays are not
  negative (when literal),
* manipulation processes target declared actors / abstract nodes,
* every known special parameter coerces to its declared type (bools
  excepted: any value reads as one).

Warnings
--------
* events waited for that no known action emits and no ``event_flag``
  raises (could be protocol-internal — flagged, not fatal),
* unknown special parameters,
* actors with empty action sequences.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set

from repro.core.actions import ActionKind, ActionRegistry, default_registry
from repro.core.description import ExperimentDescription
from repro.core.errors import DescriptionError, ValidationError
from repro.core.factors import Usage
from repro.core.params import SPECIAL_PARAM_DEFS, SpecialParams
from repro.core.processes import (
    ActionSequence,
    DomainAction,
    EventFlag,
    FactorRef,
    NodeSelector,
    WaitForEvent,
    WaitForTime,
)

__all__ = ["ValidationReport", "validate_description"]

#: Events the framework itself generates, always legal to wait for.
FRAMEWORK_EVENTS = {
    "experiment_init", "experiment_exit", "run_init", "run_exit",
    "address_changed", "drop_all_started", "drop_all_stopped",
    "generic_executed",
}


@dataclass
class ValidationReport:
    """Outcome of validating one description."""

    errors: List[str] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    def raise_if_failed(self) -> None:
        if self.errors:
            raise ValidationError(self.errors)


def validate_description(
    desc: ExperimentDescription,
    registry: Optional[ActionRegistry] = None,
) -> ValidationReport:
    """Validate *desc* against *registry* (default: built-in actions)."""
    registry = registry or default_registry()
    report = ValidationReport()
    err = report.errors.append
    warn = report.warnings.append

    # --- identity checks ----------------------------------------------
    actor_ids = [a.actor_id for a in desc.actors]
    if len(actor_ids) != len(set(actor_ids)):
        err(f"duplicate actor ids: {sorted(actor_ids)}")
    if len(desc.abstract_nodes) != len(set(desc.abstract_nodes)):
        err(f"duplicate abstract nodes: {sorted(desc.abstract_nodes)}")
    known_actors = set(actor_ids)
    known_abstract = set(desc.abstract_nodes)

    # --- factor checks -------------------------------------------------
    try:
        map_factor = desc.factors.actor_map_factor()
    except DescriptionError as exc:  # more than one map factor
        err(str(exc))
        map_factor = None

    if map_factor is not None:
        if map_factor.usage is Usage.RANDOM:
            warn(
                f"actor_node_map factor {map_factor.id!r} is randomized; "
                "treatments then differ in role placement (intentional?)"
            )
        for i, level in enumerate(map_factor.levels):
            mapping = level.value
            assigned: Set[str] = set()
            for actor_id, instances in mapping.items():
                if known_actors and actor_id not in known_actors:
                    err(
                        f"factor {map_factor.id!r} level {i}: unknown actor "
                        f"{actor_id!r}"
                    )
                for inst_id, node in instances.items():
                    if known_abstract and node not in known_abstract:
                        err(
                            f"factor {map_factor.id!r} level {i}: actor "
                            f"{actor_id!r}[{inst_id}] maps to undeclared "
                            f"abstract node {node!r}"
                        )
                    if node in assigned:
                        err(
                            f"factor {map_factor.id!r} level {i}: abstract node "
                            f"{node!r} assigned to multiple instances"
                        )
                    assigned.add(node)
            if known_actors:
                for actor_id in sorted(known_actors - set(mapping)):
                    err(
                        f"factor {map_factor.id!r} level {i}: actor "
                        f"{actor_id!r} has no node assignment"
                    )
    elif desc.actors:
        err("actors are declared but no actor_node_map factor assigns nodes")

    # --- platform mapping ----------------------------------------------
    mapped_abstract = {
        n.abstract_id for n in desc.platform.nodes if n.abstract_id is not None
    }
    for abstract in sorted(known_abstract - mapped_abstract):
        if len(desc.platform):
            err(f"abstract node {abstract!r} not mapped by the platform spec")

    # --- event emission inventory ---------------------------------------
    emitted: Set[str] = set(FRAMEWORK_EVENTS) | set(registry.known_events())
    for actor in desc.actors:
        emitted.update(a.value for a in actor.actions if isinstance(a, EventFlag))
    for manip in desc.manipulations:
        emitted.update(a.value for a in manip.actions if isinstance(a, EventFlag))
    for env in desc.environment_processes:
        emitted.update(a.value for a in env.actions if isinstance(a, EventFlag))

    # --- per-sequence checks ---------------------------------------------
    def check_selector(sel: NodeSelector, where: str) -> None:
        if sel.actor is not None:
            if known_actors and sel.actor not in known_actors:
                err(f"{where}: selector references unknown actor {sel.actor!r}")
        elif sel.node_id is not None:
            if known_abstract and sel.node_id not in known_abstract:
                err(f"{where}: selector references unknown abstract node {sel.node_id!r}")

    def check_sequence(actions: ActionSequence, where: str, scope: ActionKind) -> None:
        for idx, action in enumerate(actions):
            at = f"{where}[{idx}]"
            if isinstance(action, WaitForTime):
                if isinstance(action.seconds, FactorRef):
                    if action.seconds.factor_id not in desc.factors:
                        err(f"{at}: factorref to unknown factor {action.seconds.factor_id!r}")
                elif isinstance(action.seconds, (int, float)) and action.seconds < 0:
                    err(f"{at}: negative wait_for_time delay")
            elif isinstance(action, WaitForEvent):
                if action.from_nodes is not None:
                    check_selector(action.from_nodes, at)
                if action.param_nodes is not None:
                    check_selector(action.param_nodes, at)
                if isinstance(action.timeout, FactorRef):
                    if action.timeout.factor_id not in desc.factors:
                        err(f"{at}: factorref to unknown factor {action.timeout.factor_id!r}")
                elif isinstance(action.timeout, (int, float)) and action.timeout < 0:
                    err(f"{at}: negative wait_for_event timeout")
                if action.event not in emitted:
                    warn(
                        f"{at}: waits for event {action.event!r} that no "
                        "declared action or flag emits (protocol-internal?)"
                    )
            elif isinstance(action, DomainAction):
                if action.name not in registry:
                    err(f"{at}: unknown action {action.name!r}")
                else:
                    spec = registry.lookup(action.name)
                    if spec.kind is not scope and action.name != "generic":
                        err(
                            f"{at}: {spec.kind.value} action {action.name!r} "
                            f"used in a {scope.value} process"
                        )
                for pname, value in action.params.items():
                    if isinstance(value, FactorRef) and value.factor_id not in desc.factors:
                        err(
                            f"{at}: parameter {pname!r} references unknown "
                            f"factor {value.factor_id!r}"
                        )
                    if isinstance(value, NodeSelector):
                        check_selector(value, at)

    for actor in desc.actors:
        if not actor.actions:
            warn(f"actor {actor.actor_id!r} has an empty action sequence")
        check_sequence(actor.actions, f"actor {actor.actor_id}", ActionKind.NODE)
    for i, manip in enumerate(desc.manipulations):
        where = f"manipulation #{i}"
        if manip.actor_id is not None and known_actors and manip.actor_id not in known_actors:
            err(f"{where}: targets unknown actor {manip.actor_id!r}")
        if manip.node_id is not None and known_abstract and manip.node_id not in known_abstract:
            err(f"{where}: targets unknown abstract node {manip.node_id!r}")
        check_sequence(manip.actions, where, ActionKind.NODE)
    for i, env in enumerate(desc.environment_processes):
        check_sequence(env.actions, f"env process #{i}", ActionKind.ENVIRONMENT)

    # --- special parameters ----------------------------------------------
    for key in SpecialParams(desc.special_params).unknown_keys():
        warn(f"unknown special parameter {key!r} (passed through untyped)")
    for key, value in sorted(desc.special_params.items()):
        definition = SPECIAL_PARAM_DEFS.get(key)
        if definition is None or definition.type is bool:
            continue
        try:
            definition.type(value)
        except (TypeError, ValueError):
            err(
                f"special parameter {key!r}: {value!r} is not a valid "
                f"{definition.type.__name__}"
            )

    return report
