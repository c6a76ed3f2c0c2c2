"""Discrete-event simulation substrate for the ExCovery reproduction.

Everything in this reproduction — the emulated network testbed, the service
discovery protocol agents, the ExCovery execution engine itself — runs as
cooperating processes on the event-driven kernel defined here.  The kernel
is deliberately small and fully deterministic: given the same initial state
and the same seeds, two executions produce the exact same event ordering.
This property underpins the paper's central repeatability claim
(Sec. IV-C1: *"This allows for perfect repeatability of random sequences
used within an experiment when initialized with the same seed"*).

Public API
----------
:class:`~repro.sim.kernel.Simulator`
    The event loop.  Owns simulated time and the pending events (one
    ``heapq``-ordered list, run by one loop).
:class:`~repro.sim.events.SimEvent`, :class:`~repro.sim.events.Timeout`,
:class:`~repro.sim.events.AnyOf`, :class:`~repro.sim.events.AllOf`
    Waitable primitives that simulation processes yield.
:class:`~repro.sim.process.Process`, :class:`~repro.sim.process.Interrupt`
    Generator-backed simulation processes.
:class:`~repro.sim.rng.RngRegistry`
    Hierarchical, name-derived pseudo-random streams rooted at a single
    experiment seed.
"""

from repro.sim.events import AllOf, AnyOf, SimEvent, Timeout
from repro.sim.kernel import Simulator
from repro.sim.process import Interrupt, Process
from repro.sim.rng import RngRegistry, derive_seed

__all__ = [
    "AllOf",
    "AnyOf",
    "Interrupt",
    "Process",
    "RngRegistry",
    "SimEvent",
    "Simulator",
    "Timeout",
    "derive_seed",
]
