"""Waitable event primitives for the simulation kernel.

A simulation process communicates with the kernel by *yielding* waitables.
The vocabulary is intentionally close to SimPy's, because that shape has
proven ergonomic for protocol code:

``SimEvent``
    A one-shot, triggerable event.  Processes yield it to block until some
    other process (or the kernel) calls :meth:`SimEvent.trigger`.
``Timeout``
    A ``SimEvent`` that the kernel triggers automatically after a fixed
    simulated delay.
``AnyOf`` / ``AllOf``
    Composite conditions over several waitables.

Events carry an optional *value* that is delivered to every waiter as the
result of the ``yield`` expression.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Iterable, List, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.sim.kernel import Simulator

__all__ = ["SimEvent", "Timeout", "AnyOf", "AllOf", "EventAlreadyTriggered"]

#: Monotonic tie-breaker so that events created earlier sort earlier when
#: scheduled for the same simulated instant.  Determinism of the whole
#: reproduction hangs on this ordering being total and stable.
_event_counter = itertools.count()


class EventAlreadyTriggered(RuntimeError):
    """Raised when :meth:`SimEvent.trigger` is called twice on one event."""


class SimEvent:
    """A one-shot triggerable event.

    Parameters
    ----------
    sim:
        The owning simulator.  Needed so that triggering an event can
        schedule the waiters' resumption at the current simulated instant.
    name:
        Optional human-readable label used in ``repr`` and error messages.
    """

    __slots__ = ("sim", "name", "_callbacks", "_triggered", "_value", "_uid")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        self._callbacks: List[Callable[["SimEvent"], None]] = []
        self._triggered = False
        self._value: Any = None
        self._uid = next(_event_counter)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """Whether :meth:`trigger` has been called."""
        return self._triggered

    @property
    def value(self) -> Any:
        """The value passed to :meth:`trigger` (``None`` before that)."""
        return self._value

    @property
    def uid(self) -> int:
        """Globally unique, creation-ordered identifier."""
        return self._uid

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def trigger(self, value: Any = None) -> "SimEvent":
        """Fire the event, delivering *value* to all current waiters.

        Waiters are resumed by the kernel at the *current* simulated time,
        after the currently executing process yields — never re-entrantly.
        Returns ``self`` so protocol code can ``return ev.trigger(x)``.
        """
        if self._triggered:
            raise EventAlreadyTriggered(
                f"event {self.name or self._uid} triggered twice"
            )
        self._triggered = True
        self._value = value
        callbacks, self._callbacks = self._callbacks, []
        for cb in callbacks:
            self.sim._schedule_callback(cb, self)
        return self

    def add_callback(self, cb: Callable[["SimEvent"], None]) -> None:
        """Register *cb* to run when the event fires.

        If the event already fired the callback is scheduled immediately
        (still asynchronously, preserving run-to-completion semantics).
        """
        if self._triggered:
            self.sim._schedule_callback(cb, self)
        else:
            self._callbacks.append(cb)

    def discard_callback(self, cb: Callable[["SimEvent"], None]) -> None:
        """Remove a previously registered callback if still pending."""
        try:
            self._callbacks.remove(cb)
        except ValueError:
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "fired" if self._triggered else "pending"
        label = self.name or f"#{self._uid}"
        return f"<SimEvent {label} {state}>"


class Timeout(SimEvent):
    """An event the kernel triggers after ``delay`` simulated seconds.

    The triggered value is the timeout's own ``delay`` unless an explicit
    *value* is supplied, which lets ``AnyOf`` users distinguish which branch
    completed.
    """

    __slots__ = ("delay",)

    def __init__(
        self,
        sim: "Simulator",
        delay: float,
        value: Any = None,
        name: str = "",
    ) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay!r}")
        super().__init__(sim, name=name or f"timeout({delay})")
        self.delay = float(delay)
        sim._schedule_trigger(self, self.delay, self.delay if value is None else value)


class _Condition(SimEvent):
    """Base class for composite waitables (``AnyOf`` / ``AllOf``)."""

    __slots__ = ("events",)

    def __init__(self, sim: "Simulator", events: Iterable[SimEvent], name: str) -> None:
        super().__init__(sim, name=name)
        self.events: List[SimEvent] = list(events)
        if not self.events:
            raise ValueError(f"{name} requires at least one event")
        for ev in self.events:
            ev.add_callback(self._on_child)

    def _on_child(self, ev: SimEvent) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _detach(self) -> None:
        for ev in self.events:
            ev.discard_callback(self._on_child)


class AnyOf(_Condition):
    """Fires when the *first* of its child events fires.

    The delivered value is the tuple ``(child_event, child_value)`` so the
    waiter can tell which branch won — essential for the ubiquitous
    *wait-for-event-or-timeout* pattern in the ExCovery flow control
    (Sec. IV-C2: ``wait_for_event`` with a timeout).
    """

    __slots__ = ()

    def __init__(self, sim: "Simulator", events: Iterable[SimEvent]) -> None:
        super().__init__(sim, events, name="any_of")

    def _on_child(self, ev: SimEvent) -> None:
        if not self.triggered:
            self._detach()
            self.trigger((ev, ev.value))


class AllOf(_Condition):
    """Fires when *all* of its child events have fired.

    Delivers the list of child values, in the order the children were given.
    """

    __slots__ = ("_pending",)

    def __init__(self, sim: "Simulator", events: Iterable[SimEvent]) -> None:
        self._pending = 0  # set before super() registers callbacks
        super().__init__(sim, events, name="all_of")
        # Callbacks for already-triggered children are delivered
        # asynchronously, so simply count every child as pending.
        self._pending = len(self.events)

    def _on_child(self, ev: SimEvent) -> None:
        self._pending -= 1
        if self._pending == 0 and not self.triggered:
            self.trigger([child.value for child in self.events])


def ensure_waitable(obj: Any) -> SimEvent:
    """Validate that *obj* is something a process may yield."""
    if isinstance(obj, SimEvent):
        return obj
    raise TypeError(
        f"simulation processes must yield SimEvent instances, got {obj!r}"
    )
