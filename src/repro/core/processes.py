"""Process descriptions: action sequences with flow control.

Sec. IV-C2: *"Every process is described as a sequence of actions.
Processes run concurrently on the nodes so to specify this sequence, one
needs to consider timing and desired or necessary dependencies."*

The description-level AST defined here is **abstract**: values may be
literals or :class:`FactorRef` references resolved per run against the
treatment; locations may be :class:`NodeSelector` expressions resolved
against the actor-to-node mapping of the current run.

Flow-control nodes (the four functions of Sec. IV-C2):

``WaitForTime``   — fixed delay in seconds.
``WaitForEvent``  — block until an event matching the dependency is
                    registered on the master; optional timeout.
``WaitMarker``    — remember the current bus position; the *next*
                    ``WaitForEvent`` only considers later events.
``EventFlag``     — emit a local event (lets actions depend directly on
                    each other).

Everything else is a :class:`DomainAction` — an opaque named action with
parameters, dispatched through the action registry
(:mod:`repro.core.actions`) to the owning node, the environment, or a
manipulation target.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.core.errors import DescriptionError

__all__ = [
    "FactorRef",
    "NodeSelector",
    "Value",
    "ActionNode",
    "WaitForTime",
    "WaitForEvent",
    "WaitMarker",
    "EventFlag",
    "DomainAction",
    "ActionSequence",
    "resolve_value",
]


@dataclass(frozen=True)
class FactorRef:
    """A reference to a factor, resolved per run from the treatment.

    Appears in the XML as ``<factorref id="fact_bw"/>`` (Figs. 5, 7).
    """

    factor_id: str


@dataclass(frozen=True)
class NodeSelector:
    """A location expression: a single abstract node or an actor subset.

    ``<node actor="actor0" instance="all"/>`` selects every instance of
    ``actor0``; ``instance="2"`` one specific instance;
    ``<node id="A"/>`` one specific abstract node.
    """

    actor: Optional[str] = None
    instance: str = "all"
    node_id: Optional[str] = None

    def __post_init__(self) -> None:
        if (self.actor is None) == (self.node_id is None):
            raise DescriptionError(
                "node selector needs exactly one of actor=... or node_id=..."
            )

    @property
    def wants_all_instances(self) -> bool:
        return self.actor is not None and self.instance == "all"


#: Things allowed as action parameter values in the description.
Value = Union[str, int, float, bool, None, FactorRef, NodeSelector]


def resolve_value(value: Value, treatment: Dict[str, Any]) -> Any:
    """Resolve *value* against a run's treatment.

    ``FactorRef`` values become the factor's current level;
    ``NodeSelector`` values pass through (the action dispatcher resolves
    them, since it knows the actor mapping); literals pass through.
    """
    if isinstance(value, FactorRef):
        try:
            return treatment[value.factor_id]
        except KeyError:
            raise DescriptionError(
                f"factorref to unknown factor {value.factor_id!r}"
            ) from None
    return value


class ActionNode:
    """Base class of all description-level actions."""

    #: Tag used in the XML representation; subclasses override.
    xml_tag = ""


@dataclass
class WaitForTime(ActionNode):
    """``wait_for_time`` — wait a fixed delay in seconds."""

    xml_tag = "wait_for_time"
    seconds: Value = 0.0

    def __post_init__(self) -> None:
        if isinstance(self.seconds, (int, float)) and self.seconds < 0:
            raise DescriptionError(f"wait_for_time: negative delay {self.seconds}")


@dataclass
class WaitForEvent(ActionNode):
    """``wait_for_event`` — block until a matching event is registered.

    Attributes
    ----------
    event:
        Event name (``event_dependency``).
    from_nodes:
        Optional location dependency (``from_dependency``).
    param_nodes:
        Optional parameter dependency given as a node selector — the
        matching events' parameters must cover the selected nodes'
        identities (``param_dependency``), as in Fig. 10.
    param_values:
        Optional parameter dependency given as literal values.
    timeout:
        Optional timeout in seconds (literal or factor reference).  On
        expiry the wait completes unsuccessfully; execution continues
        (Fig. 10 relies on this to implement the 30 s deadline).
    """

    xml_tag = "wait_for_event"
    event: str = ""
    from_nodes: Optional[NodeSelector] = None
    param_nodes: Optional[NodeSelector] = None
    param_values: Optional[Tuple[Any, ...]] = None
    timeout: Optional[Value] = None

    def __post_init__(self) -> None:
        if not self.event:
            raise DescriptionError("wait_for_event: missing event_dependency")
        if self.param_nodes is not None and self.param_values is not None:
            raise DescriptionError(
                "wait_for_event: param dependency is either nodes or values, not both"
            )


@dataclass
class WaitMarker(ActionNode):
    """``wait_marker`` — only events after this point satisfy the next wait."""

    xml_tag = "wait_marker"


@dataclass
class EventFlag(ActionNode):
    """``event_flag`` — emit a local event named *value*."""

    xml_tag = "event_flag"
    value: str = ""
    params: Tuple[Any, ...] = ()

    def __post_init__(self) -> None:
        if not self.value:
            raise DescriptionError("event_flag: missing value")


@dataclass
class DomainAction(ActionNode):
    """Any non-flow-control action: process, fault or environment action.

    The ``name`` selects the implementation through the action registry;
    ``params`` map parameter names to literals, factor references or node
    selectors.
    """

    name: str = ""
    params: Dict[str, Value] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise DescriptionError("domain action: missing name")


#: A process body.
ActionSequence = List[ActionNode]
