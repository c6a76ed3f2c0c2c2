"""Fault injection and environment manipulation (Sec. IV-D).

*"ExCovery has a concept for intentional manipulations done on participant
nodes and on their network environment."*

:mod:`repro.faults.model`
    The common temporal fault parameters *duration*, *rate*, *randomseed*
    and the activation-window algebra.
:mod:`repro.faults.injectors`
    The communication faults of Sec. IV-D1 (and drop-all) as one
    interface packet rule, :class:`FaultFilter`: drop or delay, an
    optional random draw, and a scope (all flows, the experiment flow,
    one peer).
:mod:`repro.faults.controller`
    The node-side fault controller: builds each fault kind's filter from
    the kind table :data:`FAULT_KINDS`, schedules activation windows,
    emits the start/stop events.
:mod:`repro.faults.manipulations`
    The environment manipulations of Sec. IV-D2 — traffic generation with
    per-run pair switching, drop-all — orchestrated master-side.
"""

from repro.faults.controller import FAULT_KINDS, FaultController
from repro.faults.injectors import FaultFilter
from repro.faults.manipulations import EnvironmentController
from repro.faults.model import FaultTiming, FaultWindow

__all__ = [
    "EnvironmentController",
    "FAULT_KINDS",
    "FaultController",
    "FaultFilter",
    "FaultTiming",
    "FaultWindow",
]
