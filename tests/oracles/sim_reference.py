"""Frozen single-heap simulation kernel (equivalence oracle).

:class:`ReferenceSimulator` is a frozen copy of the kernel's own design —
one global ``heapq`` of ``(time, sequence, fn, args)`` entries — kept so
property tests can pin the production kernel to identical
``(time, sequence)`` execution orders and so the 100-node paper-scale
digest test has a live baseline to run against
(``tests/property/test_kernel_determinism.py`` and
``tests/property/test_sim_fastpath_equivalence.py``).

Do not optimize this module.  Its value is being boring: one global heap,
``O(log n)`` everywhere.  The only change from the historical kernel is
that ``call_at``/``call_later`` accept ``*args`` like the production
kernel does, so converted callers (the medium, RPC channel, fault
timers) run unchanged on either kernel.
"""

from __future__ import annotations

import heapq
import itertools
import time as _wallclock
from typing import Any, Callable, Generator, List, Optional, Tuple

from repro.sim.events import AllOf, AnyOf, SimEvent, Timeout
from repro.sim.kernel import SimulationError
from repro.sim.process import Process

__all__ = ["ReferenceSimulator"]


class ReferenceSimulator:
    """Event-driven simulation core backed by one global ``heapq``."""

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._queue: List[Tuple[float, int, Callable[..., None], tuple]] = []
        self._sequence = itertools.count()
        self._crashed: List[Process] = []
        self.executed_callbacks = 0

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self._now

    # ------------------------------------------------------------------
    # Factories
    # ------------------------------------------------------------------
    def event(self, name: str = "") -> SimEvent:
        return SimEvent(self, name=name)

    def timeout(self, delay: float, value: Any = None, name: str = "") -> Timeout:
        return Timeout(self, delay, value=value, name=name)

    def any_of(self, *events: SimEvent) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, *events: SimEvent) -> AllOf:
        return AllOf(self, events)

    def process(self, generator: Generator, name: str = "") -> Process:
        return Process(self, generator, name=name)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def _push(self, at: float, fn: Callable[..., None], args: tuple = ()) -> None:
        heapq.heappush(self._queue, (at, next(self._sequence), fn, args))

    def _schedule_callback(self, cb: Callable[[Any], None], arg: Any) -> None:
        self._push(self._now, cb, (arg,))

    def _schedule_trigger(self, event: SimEvent, delay: float, value: Any) -> None:
        self._push(self._now + delay, event.trigger, (value,))

    def call_at(self, when: float, fn: Callable[..., None], *args: Any) -> None:
        if when < self._now:
            raise SimulationError(f"cannot schedule in the past: {when} < now {self._now}")
        self._push(when, fn, args)

    def call_later(self, delay: float, fn: Callable[..., None], *args: Any) -> None:
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        self._push(self._now + delay, fn, args)

    def _report_crash(self, process: Process, exc: BaseException) -> None:
        self._crashed.append(process)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        if not self._queue:
            return False
        at, _seq, fn, args = heapq.heappop(self._queue)
        self._now = at
        self.executed_callbacks += 1
        fn(*args)
        return True

    def run(
        self,
        until: Optional[float] = None,
        until_event: Optional[SimEvent] = None,
        realtime_factor: Optional[float] = None,
        raise_on_crash: bool = True,
    ) -> Any:
        wall_anchor = _wallclock.monotonic() if realtime_factor else None
        sim_anchor = self._now

        while self._queue:
            if until_event is not None and until_event.triggered:
                break
            next_at = self._queue[0][0]
            if until is not None and next_at > until:
                self._now = until
                break
            if wall_anchor is not None:
                lag = (next_at - sim_anchor) / realtime_factor - (
                    _wallclock.monotonic() - wall_anchor
                )
                if lag > 0:
                    _wallclock.sleep(lag)
            self.step()
            if raise_on_crash and self._crashed:
                self._raise_crash()
        else:
            if until is not None and self._now < until:
                self._now = until

        if raise_on_crash and self._crashed:
            self._raise_crash()
        if until_event is not None and until_event.triggered:
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
        return len(self._queue)
