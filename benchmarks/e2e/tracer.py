"""Context-stacked span timer that wraps the program's entry points from outside.

A span is (name, start, end, parent).  The Python call stack *is* the span
stack: every wrapper keeps its start time in its own frame and the per-thread
state only holds "the name of the innermost open span" and "seconds already
claimed by children of the innermost open span".  Entering and leaving a span
therefore costs two clock reads and one dict update, no allocation per call
beyond the floats — a million ``WirelessMedium.transmit`` calls stay cheap.

Self time of a span = its duration minus the part covered by child spans.
Self times are aggregated per (thread kind, name, parent); spans not marked
``hot`` are also kept one by one (name, start, end, parent, thread) up to
``MAX_RECORDS`` for ``spans.json``.

Generators (``ControlChannel.call``, ``measure_offsets``) run in slices
between ``yield``s inside the simulation kernel; the generator wrapper opens
one span per slice, so the time a call spends *waiting* in simulated time is
not billed to it — only the host time its own code runs.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from contextlib import contextmanager
from importlib import import_module
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

MAX_RECORDS = 20000

ROOT = "bench"


class Target(NamedTuple):
    """One entry point to wrap.

    ``path`` is ``"module:attr"`` for a module-level function or
    ``"module:Class.method"`` for a method.  ``kind`` is ``"call"`` or
    ``"gen"`` (generator function).  ``observe(tracer_state, args, kwargs,
    result)`` runs after a successful call and may bump counters; keep it off
    hot paths.
    """

    span: str
    path: str
    kind: str = "call"
    hot: bool = False
    observe: Optional[Callable[..., None]] = None


class _ThreadState:
    __slots__ = ("cur", "child", "rows", "counts", "records", "thread", "is_main")

    def __init__(self) -> None:
        thread = threading.current_thread()
        self.cur: Optional[str] = None
        self.child = 0.0
        #: name -> parent -> [count, self_s, total_s]
        self.rows: Dict[str, Dict[Optional[str], List[float]]] = {}
        self.counts: Dict[str, float] = {}
        self.records: List[Tuple[str, float, float, Optional[str]]] = []
        self.thread = thread.name
        self.is_main = thread is threading.main_thread()

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n


class Tracer:
    """Owns the wrappers, the per-thread aggregates and the patch ledger."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._states_lock = threading.Lock()
        #: (namespace, key, original, wrapper) for every patched binding
        self.patches: List[Tuple[Any, str, Any, Any]] = []

    # ------------------------------------------------------------------
    # Per-thread state
    # ------------------------------------------------------------------
    def _state(self) -> _ThreadState:
        try:
            return self._local.st
        except AttributeError:
            st = self._local.st = _ThreadState()
            with self._states_lock:
                self._states.append(st)
            return st

    # ------------------------------------------------------------------
    # Span bookkeeping (shared by all wrapper kinds)
    # ------------------------------------------------------------------
    def _close(self, st: _ThreadState, name: str, parent: Optional[str],
               saved_child: float, start: float, hot: bool) -> None:
        end = self.clock()
        dur = end - start
        self_s = dur - st.child
        st.child = saved_child + dur
        st.cur = parent
        by_parent = st.rows.get(name)
        if by_parent is None:
            by_parent = st.rows[name] = {}
        cell = by_parent.get(parent)
        if cell is None:
            by_parent[parent] = [1, self_s, dur]
        else:
            cell[0] += 1
            cell[1] += self_s
            cell[2] += dur
        if not hot and len(st.records) < MAX_RECORDS:
            st.records.append((name, start, end, parent))

    @contextmanager
    def span(self, name: str, hot: bool = False):
        """Open a span from the benchmark's own code."""
        st = self._state()
        parent, saved_child = st.cur, st.child
        st.cur, st.child = name, 0.0
        start = self.clock()
        try:
            yield st
        finally:
            self._close(st, name, parent, saved_child, start, hot)

    def wrap_call(self, name: str, fn: Callable, hot: bool = False,
                  observe: Optional[Callable[..., None]] = None) -> Callable:
        state, close, clock = self._state, self._close, self.clock

        def wrapper(*args, **kwargs):
            st = state()
            parent, saved_child = st.cur, st.child
            st.cur, st.child = name, 0.0
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(st, name, parent, saved_child, start, hot)
            if observe is not None:
                observe(st, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def wrap_gen(self, name: str, fn: Callable, hot: bool = False,
                 observe: Optional[Callable[..., None]] = None) -> Callable:
        """Wrap a generator function: one span per slice between yields."""
        state, close, clock = self._state, self._close, self.clock

        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            send_value: Any = None
            throw: Optional[BaseException] = None
            while True:
                st = state()
                parent, saved_child = st.cur, st.child
                st.cur, st.child = name, 0.0
                start = clock()
                try:
                    if throw is not None:
                        yielded = gen.throw(throw)
                    else:
                        yielded = gen.send(send_value)
                except StopIteration as stop:
                    if observe is not None:
                        observe(st, args, kwargs, stop.value)
                    return stop.value
                finally:
                    close(st, name, parent, saved_child, start, hot)
                try:
                    send_value = yield yielded
                    throw = None
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as exc:  # forwarded into the wrapped generator
                    throw = exc

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def install(self, targets: Iterable[Target]) -> None:
        """Replace every binding of every target with its wrapper.

        A method is replaced on the class that defines it.  A module-level
        function is replaced in every loaded module whose globals hold the
        same function object (``from x import f`` makes private bindings).
        """
        targets = list(targets)
        resolved = []
        for target in targets:
            module_name, _, attr_path = target.path.partition(":")
            module = import_module(module_name)
            parts = attr_path.split(".")
            owner: Any = module
            for part in parts[:-1]:
                owner = getattr(owner, part)
            key = parts[-1]
            original = owner.__dict__[key] if isinstance(owner, type) else getattr(owner, key)
            if not callable(original) or isinstance(original, (staticmethod, classmethod)):
                raise TypeError(f"{target.path} is not a plain function")
            make = self.wrap_gen if target.kind == "gen" else self.wrap_call
            wrapper = make(target.span, original, target.hot, target.observe)
            resolved.append((owner, key, original, wrapper))

        # One pass over all loaded modules finds the private bindings of the
        # module-level functions.
        by_id = {
            id(original): (original, wrapper)
            for owner, _key, original, wrapper in resolved
            if not isinstance(owner, type)
        }
        bindings: List[Tuple[Any, str, Any, Any]] = []
        if by_id:
            for module in list(sys.modules.values()):
                namespace = getattr(module, "__dict__", None)
                if not isinstance(namespace, dict):
                    continue
                for key, value in list(namespace.items()):
                    hit = by_id.get(id(value))
                    if hit is not None and hit[0] is value:
                        bindings.append((module, key, value, hit[1]))
        for owner, key, original, wrapper in resolved:
            if isinstance(owner, type):
                bindings.append((owner, key, original, wrapper))
        for owner, key, original, wrapper in bindings:
            setattr(owner, key, wrapper)
            self.patches.append((owner, key, original, wrapper))

    def uninstall(self) -> None:
        """Put every original back (identity-restoring)."""
        while self.patches:
            owner, key, original, _wrapper = self.patches.pop()
            setattr(owner, key, original)

    @contextmanager
    def installed(self, targets: Iterable[Target]):
        self.install(targets)
        try:
            yield self
        finally:
            self.uninstall()

    # ------------------------------------------------------------------
    # Read-out
    # ------------------------------------------------------------------
    def _fold(self, pick: Callable[[_ThreadState], bool], index: int) -> Dict[str, float]:
        out: Dict[str, float] = {}
        with self._states_lock:
            states = [st for st in self._states if pick(st)]
        for st in states:
            for name, by_parent in st.rows.items():
                out[name] = out.get(name, 0.0) + sum(c[index] for c in by_parent.values())
        return out

    def self_times(self, main_only: bool = False) -> Dict[str, float]:
        return self._fold((lambda st: st.is_main) if main_only else (lambda st: True), 1)

    def total_times(self) -> Dict[str, float]:
        """Inclusive seconds per span name, all threads.  A span opened
        directly inside a span of the same name is already covered by it."""
        out: Dict[str, float] = {}
        with self._states_lock:
            states = list(self._states)
        for st in states:
            for name, by_parent in st.rows.items():
                out[name] = out.get(name, 0.0) + sum(
                    cell[2] for parent, cell in by_parent.items() if parent != name
                )
        return out

    def span_counts(self) -> Dict[str, int]:
        return {k: int(v) for k, v in self._fold(lambda st: True, 0).items()}

    def counters(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        with self._states_lock:
            states = list(self._states)
        for st in states:
            for name, value in st.counts.items():
                out[name] = out.get(name, 0) + value
        return out

    def kept_spans(self) -> Dict[str, List[Tuple[str, float, float, Optional[str]]]]:
        """Thread name -> the individually kept (name, start, end, parent)."""
        with self._states_lock:
            return {st.thread: list(st.records) for st in self._states}

    def table(self, wait_spans: Iterable[str] = (),
              idle_spans: Iterable[str] = ()) -> Dict[str, float]:
        """Self seconds per span name that sum to the main thread's wall.

        The main thread's self times sum to the duration of its root span by
        construction.  When other threads did the work while the main thread
        sat in one of *wait_spans*, that waiting time is shared out over the
        other threads' self times in proportion, so the rows still sum to the
        wall and show what the wall was spent on.  *idle_spans* are other
        threads' own waiting (a worker's poll loop) and take no share.
        """
        rows = self.self_times(main_only=True)
        others = self._fold(lambda st: not st.is_main, 1)
        for name in idle_spans:
            others.pop(name, None)
        busy_elsewhere = sum(others.values())
        waited = sum(rows.get(name, 0.0) for name in wait_spans)
        if waited > 0 and busy_elsewhere > 0:
            for name in wait_spans:
                rows.pop(name, None)
            scale = waited / busy_elsewhere
            for name, seconds in others.items():
                rows[name] = rows.get(name, 0.0) + seconds * scale
        return rows

    def dump(self, path, extra: Optional[Dict[str, Any]] = None) -> None:
        """Write aggregates and the kept individual spans as JSON."""
        with self._states_lock:
            states = list(self._states)
        aggregates = []
        records = []
        for st in states:
            for name, by_parent in st.rows.items():
                for parent, (count, self_s, total_s) in by_parent.items():
                    aggregates.append({
                        "thread": st.thread, "name": name, "parent": parent,
                        "count": int(count), "self_s": self_s, "total_s": total_s,
                    })
            records.extend(
                {"thread": st.thread, "name": n, "start": s, "end": e, "parent": p}
                for n, s, e, p in st.records
            )
        payload = {"aggregates": aggregates, "spans": records,
                   "counters": self.counters()}
        payload.update(extra or {})
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def by_layer(rows: Dict[str, float]) -> Dict[str, float]:
    """Fold ``layer:op`` span names into per-layer seconds."""
    out: Dict[str, float] = {}
    for name, seconds in rows.items():
        layer = name.split(":", 1)[0]
        out[layer] = out.get(layer, 0.0) + seconds
    return out
