"""The ExCovery experimentation environment — the paper's contribution.

Layout mirrors Sec. IV of the paper:

=====================  =====================================================
Module                 Paper section
=====================  =====================================================
``description``        IV-C  abstract experiment description
``factors``            IV-C  factors, levels, replication
``plan``               IV-C1 treatment plan generation (OFAT / randomized)
``processes``          IV-C2 process descriptions & flow control
``actions``            IV-C2/V action registry (node / environment / flow)
``xmlio``              IV-C  XML notation of the description
``validation``         IV    automatic checking of descriptions
``events``             IV-B1 event model, event bus, dependency matching
``rpc``                VI-A  XML-RPC control channel, per-node locking
``nodemanager``        VI-A  the controlled entity on each node
``master``             VI-A  ExperiMaster, the controlling entity of one run
``runner``             IV-C1 run lifecycle: preparation/execution/clean-up
``timesync``           IV-B3 per-run clock offset measurement
``topomeasure``        IV-B4 hop-count topology snapshots
``plugins``            IV-B  custom measurement plugins
``params``             IV-E  special parameters exposed to the EE
=====================  =====================================================
"""

from repro.core.designs import (
    completely_randomized_design,
    latin_square_design,
    randomized_complete_block_design,
)
from repro.core.description import (
    ActorDescription,
    EnvironmentProcess,
    ExperimentDescription,
    ManipulationProcess,
    PlatformNode,
    PlatformSpec,
)
from repro.core.events import EventBus, EventPattern, ExEvent
from repro.core.factors import ActorNodeMap, Factor, FactorList, Level, Usage
from repro.core.master import ExperiMaster, ExperimentResult
from repro.core.plan import Run, TreatmentPlan, generate_plan
from repro.core.processes import (
    DomainAction,
    EventFlag,
    FactorRef,
    NodeSelector,
    WaitForEvent,
    WaitForTime,
    WaitMarker,
)
from repro.core.xmlio import description_from_xml, description_to_xml

__all__ = [
    "ActorDescription",
    "ActorNodeMap",
    "DomainAction",
    "EnvironmentProcess",
    "EventBus",
    "EventFlag",
    "EventPattern",
    "ExEvent",
    "ExperiMaster",
    "ExperimentDescription",
    "ExperimentResult",
    "Factor",
    "FactorList",
    "FactorRef",
    "Level",
    "ManipulationProcess",
    "NodeSelector",
    "PlatformNode",
    "PlatformSpec",
    "Run",
    "TreatmentPlan",
    "Usage",
    "WaitForEvent",
    "WaitForTime",
    "WaitMarker",
    "completely_randomized_design",
    "description_from_xml",
    "description_to_xml",
    "generate_plan",
    "latin_square_design",
    "randomized_complete_block_design",
]
