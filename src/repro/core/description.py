"""The abstract experiment description (Sec. IV-C).

An :class:`ExperimentDescription` aggregates the three parts the paper
names — the experiment design (factors), the manipulations, and the
process under examination — plus the informative parameters (Fig. 4), the
platform specification (Fig. 8, Sec. IV-E) and the special parameters the
description can expose to the EE implementation (Sec. IV-E).

The description is platform-independent; binding abstract nodes to
concrete platform nodes happens through the :class:`PlatformSpec` mapping,
which "can change from one experiment to another on the same platform".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.errors import DescriptionError
from repro.core.factors import FactorList
from repro.core.processes import ActionSequence

__all__ = [
    "ActorDescription",
    "ManipulationProcess",
    "EnvironmentProcess",
    "PlatformNode",
    "PlatformSpec",
    "ExperimentDescription",
]

#: ExCovery framework version recorded with every stored experiment
#: (the ``EEVersion`` attribute of Table I).
EE_VERSION = "repro-excovery/1.0.0"


@dataclass
class ActorDescription:
    """A process prototype executed on one actor role (Sec. IV-C).

    *"Each abstract node is mapped to one actor description, multiple
    abstract nodes can instantiate the same actor description."*

    Attributes
    ----------
    actor_id:
        Role identifier, e.g. ``"actor0"`` — referenced by the
        ``actor_node_map`` factor and by node selectors.
    name:
        Human-readable role name, e.g. ``"SM"`` (Fig. 9).
    actions:
        The role's action sequence.
    """

    actor_id: str
    name: str = ""
    actions: ActionSequence = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.actor_id:
            raise DescriptionError("actor description needs an actor_id")


@dataclass
class ManipulationProcess:
    """A node-specific fault/manipulation process (Sec. IV-D3).

    *"A node manipulation process is created for each abstract node it is
    specified for."*  ``actor_id`` targets every instance of a role;
    ``node_id`` targets one abstract node.
    """

    actions: ActionSequence = field(default_factory=list)
    actor_id: Optional[str] = None
    node_id: Optional[str] = None
    name: str = ""

    def __post_init__(self) -> None:
        if (self.actor_id is None) == (self.node_id is None):
            raise DescriptionError(
                "manipulation process needs exactly one of actor_id / node_id"
            )


@dataclass
class EnvironmentProcess:
    """The (node-unspecific) environment manipulation process (Fig. 7).

    *"A single thread is created for the environment manipulations."*
    """

    actions: ActionSequence = field(default_factory=list)
    name: str = "environment"


@dataclass
class PlatformNode:
    """One concrete usable node of the platform (Fig. 8).

    Attributes
    ----------
    node_id:
        Unique platform identifier, conventionally the host name
        (Sec. IV-E: "ExCovery identifies nodes by their host name and IP
        address.  The host name should be constant during an experiment
        run.").
    address:
        Network address used to analyze recorded event and packet lists.
    abstract_id:
        The abstract node this platform node realizes — only actor nodes
        carry one; environment nodes do not participate as actors.
    """

    node_id: str
    address: str
    abstract_id: Optional[str] = None

    @property
    def is_actor_node(self) -> bool:
        return self.abstract_id is not None


class PlatformSpec:
    """The mapping of abstract and environment nodes to platform nodes."""

    def __init__(self, nodes: Optional[List[PlatformNode]] = None) -> None:
        self._nodes: List[PlatformNode] = []
        self._by_id: Dict[str, PlatformNode] = {}
        self._by_abstract: Dict[str, PlatformNode] = {}
        for node in nodes or []:
            self.add(node)

    def add(self, node: PlatformNode) -> None:
        if node.node_id in self._by_id:
            raise DescriptionError(f"duplicate platform node id {node.node_id!r}")
        if node.abstract_id is not None:
            if node.abstract_id in self._by_abstract:
                raise DescriptionError(
                    f"abstract node {node.abstract_id!r} mapped twice"
                )
            self._by_abstract[node.abstract_id] = node
        self._nodes.append(node)
        self._by_id[node.node_id] = node

    @property
    def nodes(self) -> List[PlatformNode]:
        return list(self._nodes)

    @property
    def actor_nodes(self) -> List[PlatformNode]:
        return [n for n in self._nodes if n.is_actor_node]

    @property
    def environment_nodes(self) -> List[PlatformNode]:
        """Nodes not participating as actors — e.g. load generators."""
        return [n for n in self._nodes if not n.is_actor_node]

    def by_id(self, node_id: str) -> PlatformNode:
        try:
            return self._by_id[node_id]
        except KeyError:
            raise DescriptionError(f"unknown platform node {node_id!r}") from None

    def for_abstract(self, abstract_id: str) -> PlatformNode:
        try:
            return self._by_abstract[abstract_id]
        except KeyError:
            raise DescriptionError(
                f"abstract node {abstract_id!r} has no platform mapping"
            ) from None

    def __len__(self) -> int:
        return len(self._nodes)


@dataclass
class ExperimentDescription:
    """The complete abstract experiment description.

    This object *is* storage level 1 (Sec. IV-F): serialized to XML it
    "can be exchanged and loaded for execution and analysis".
    """

    name: str
    seed: int = 1
    comment: str = ""
    #: Informative key-value parameters for basic classification (Fig. 4:
    #: discovery architecture, protocol, ...).
    parameters: Dict[str, str] = field(default_factory=dict)
    #: Declared abstract nodes (Fig. 4: A and B).
    abstract_nodes: List[str] = field(default_factory=list)
    factors: FactorList = field(default_factory=FactorList)
    actors: List[ActorDescription] = field(default_factory=list)
    manipulations: List[ManipulationProcess] = field(default_factory=list)
    environment_processes: List[EnvironmentProcess] = field(default_factory=list)
    platform: PlatformSpec = field(default_factory=PlatformSpec)
    #: Special parameters exposing implementation knobs to the description
    #: (Sec. IV-E), e.g. ``max_run_duration`` or ``rpc_latency``.
    special_params: Dict[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def actor(self, actor_id: str) -> ActorDescription:
        for actor in self.actors:
            if actor.actor_id == actor_id:
                return actor
        raise DescriptionError(f"unknown actor {actor_id!r}")

    def actor_ids(self) -> List[str]:
        return [a.actor_id for a in self.actors]

    def fingerprint(self) -> str:
        """Stable content hash of the description (drives recovery safety:
        a journal may only resume an identical description)."""
        import hashlib

        from repro.core.xmlio import description_to_xml

        xml = description_to_xml(self)
        return hashlib.sha256(xml.encode("utf-8")).hexdigest()

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<ExperimentDescription {self.name!r} seed={self.seed} "
            f"actors={len(self.actors)} runs={self.factors.total_runs()}>"
        )
