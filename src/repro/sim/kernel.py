"""The discrete-event simulation kernel.

A :class:`Simulator` owns simulated time and a pending set of scheduled
callbacks.  Time advances only when the queue is drained at the current
instant (classic event-driven operation, Sec. II-C1 of the paper).  The
kernel also supports *wall-clock synchronized* execution (a "real-time
simulator" in the paper's taxonomy) via ``run(realtime_factor=...)``, used
by the ``localhost`` platform.

The pending set is one ``heapq``-ordered list.  The same single-heap
design is frozen with the tests as the equivalence oracle
(``tests/oracles/sim_reference.py``); property tests pin both kernels to
identical execution orders.

Determinism contract
--------------------
The pending set orders entries by ``(time, sequence)`` where ``sequence``
is a global monotonic counter.  Two simulations performing the same
schedule calls in the same order therefore execute callbacks in the same
order — no dict ordering, id(), or wall clock leaks into scheduling
decisions.  ``sequence`` is unique, so the heap never compares the
callables behind it.

Scheduling hot path
-------------------
``call_later`` / ``call_at`` accept ``*args`` that are stored beside the
callable and applied at execution time.  Hot callers (the wireless medium
delivering packets, the RPC channel, fault timers) pass bound methods plus
argument tuples instead of allocating a closure per event.
"""

from __future__ import annotations

import itertools
import time as _wallclock
from heapq import heappop, heappush
from typing import Any, Callable, Generator, List, Optional, Tuple

from repro.sim.events import AllOf, AnyOf, SimEvent, Timeout
from repro.sim.process import Process

__all__ = ["Simulator", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised for kernel-level failures (e.g. unobserved process crashes)."""


class Simulator:
    """Event-driven simulation core.

    Parameters
    ----------
    start_time:
        Initial simulated time in seconds.  Defaults to ``0.0``; the
        experiment master typically leaves this at zero and uses per-node
        :class:`~repro.net.clock.LocalClock` offsets to model desynchronized
        node clocks.
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        # Entries are (time, sequence, fn, args): storing the argument
        # tuple beside the callable avoids allocating a closure per
        # scheduled event on the two hottest paths (callback resumption
        # and event triggering).
        self._queue: List[Tuple[float, int, Callable[..., None], tuple]] = []
        self._sequence = itertools.count()
        self._crashed: List[Process] = []
        #: Counts every callback executed; handy for overhead benchmarks.
        self.executed_callbacks = 0

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # ------------------------------------------------------------------
    # Factories
    # ------------------------------------------------------------------
    def event(self, name: str = "") -> SimEvent:
        """Create a fresh one-shot triggerable event."""
        return SimEvent(self, name=name)

    def timeout(self, delay: float, value: Any = None, name: str = "") -> Timeout:
        """Create an event that fires after ``delay`` simulated seconds."""
        return Timeout(self, delay, value=value, name=name)

    def any_of(self, *events: SimEvent) -> AnyOf:
        """Composite event firing on the first of ``events``."""
        return AnyOf(self, events)

    def all_of(self, *events: SimEvent) -> AllOf:
        """Composite event firing when every one of ``events`` fired."""
        return AllOf(self, events)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Spawn *generator* as a simulation process at the current instant."""
        return Process(self, generator, name=name)

    # ------------------------------------------------------------------
    # Scheduling (kernel-internal API used by events/processes)
    # ------------------------------------------------------------------
    def _schedule_callback(self, cb: Callable[[Any], None], arg: Any) -> None:
        """Run ``cb(arg)`` at the current simulated instant, asynchronously."""
        heappush(self._queue, (self._now, next(self._sequence), cb, (arg,)))

    def _schedule_trigger(self, event: SimEvent, delay: float, value: Any) -> None:
        """Trigger *event* after *delay* simulated seconds."""
        heappush(
            self._queue,
            (self._now + delay, next(self._sequence), event.trigger, (value,)),
        )

    def call_at(self, when: float, fn: Callable[..., None], *args: Any) -> None:
        """Schedule ``fn(*args)`` at absolute simulated time *when*."""
        if when < self._now:
            raise SimulationError(
                f"cannot schedule in the past: {when} < now {self._now}"
            )
        heappush(self._queue, (when, next(self._sequence), fn, args))

    def call_later(self, delay: float, fn: Callable[..., None], *args: Any) -> None:
        """Schedule ``fn(*args)`` ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        heappush(self._queue, (self._now + delay, next(self._sequence), fn, args))

    def _report_crash(self, process: Process, exc: BaseException) -> None:
        self._crashed.append(process)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next scheduled callback.

        Returns ``False`` when the queue is empty.
        """
        if not self._queue:
            return False
        at, _seq, fn, args = heappop(self._queue)
        self._now = at
        self.executed_callbacks += 1
        fn(*args)
        return True

    def run(
        self,
        until: Optional[float] = None,
        until_event: Optional[SimEvent] = None,
        realtime_factor: Optional[float] = None,
    ) -> Any:
        """Drive the simulation.

        Parameters
        ----------
        until:
            Stop once simulated time would exceed this value.  Unless
            ``until_event`` fired, the clock is advanced exactly to ``until``.
        until_event:
            Stop as soon as this event has fired; its value is returned.
        realtime_factor:
            When given, synchronize execution to the wall clock: one
            simulated second takes ``1 / realtime_factor`` wall seconds.
            ``realtime_factor=2.0`` runs at double speed.

        Raises :class:`SimulationError` if any process died from an
        unhandled exception; the first crash's traceback is chained.

        Returns
        -------
        The value of ``until_event`` if given and fired, else ``None``.
        """
        wall_anchor = _wallclock.monotonic() if realtime_factor else None
        sim_anchor = self._now
        horizon = float("inf") if until is None else until
        queue = self._queue
        # _report_crash appends to this exact list; _raise_crash (which
        # rebinds the attribute) always raises, so the alias cannot go
        # stale inside the loop.
        crashed = self._crashed

        while queue:
            if until_event is not None and until_event.triggered:
                break
            head = queue[0]
            next_at = head[0]
            if next_at > horizon:
                break
            if wall_anchor is not None:
                lag = (next_at - sim_anchor) / realtime_factor - (
                    _wallclock.monotonic() - wall_anchor
                )
                if lag > 0:
                    _wallclock.sleep(lag)
            heappop(queue)
            self._now = next_at
            self.executed_callbacks += 1
            head[2](*head[3])
            if crashed:
                self._raise_crash()

        fired = until_event is not None and until_event.triggered
        if until is not None and self._now < until and not fired:
            # Drained, or the head lies beyond the horizon; either way the
            # clock advances exactly to `until`.
            self._now = until
        if self._crashed:
            self._raise_crash()
        if fired:
            value = until_event.value
            if isinstance(value, BaseException):
                raise value
            return value
        return None

    def _raise_crash(self) -> None:
        crashed, self._crashed = self._crashed, []
        first = crashed[0]
        raise SimulationError(
            f"process {first.name!r} crashed: {first.error!r}"
            + (f" (+{len(crashed) - 1} more)" if len(crashed) > 1 else "")
        ) from first.error

    @property
    def pending(self) -> int:
        """Number of scheduled-but-unexecuted callbacks."""
        return len(self._queue)
