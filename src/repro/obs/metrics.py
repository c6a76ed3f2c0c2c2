"""Process-wide metrics registry with JSON and Prometheus export.

Absorbs the ad-hoc counters that used to live on individual objects
(``ControlChannel.retried_calls``, campaign run tallies, fault counts)
into one registry with three instrument kinds:

* :class:`Counter` — monotonically increasing totals;
* :class:`Gauge` — last-write-wins values (per-worker busy seconds);
* :class:`Histogram` — fixed, explicit bucket bounds chosen at
  declaration time so snapshots from different workers merge exactly.

The registry is process-global by default (:func:`get_registry`) because
metrics, unlike traces, are aggregates: campaign workers snapshot the
registry around each run and ship the *delta* back to the parent, which
merges it only when the worker lives in another process (process pools);
thread-pool workers already share the parent's registry.

Everything is plain data: :meth:`MetricsRegistry.snapshot` returns a
JSON-safe dict, :func:`diff_snapshots` and :meth:`MetricsRegistry.merge`
operate on those dicts, and :func:`render_prometheus` renders any
snapshot to Prometheus text exposition format — so ``repro metrics`` can
serve a file written by a long-gone process.
"""

from __future__ import annotations

import json
import math
import threading
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "count_suppressed_error",
    "diff_snapshots",
    "get_registry",
    "render_prometheus",
    "set_registry",
]

#: Default histogram bounds (seconds): sub-millisecond RPC turnarounds up
#: to multi-minute phases, roughly base-4 spaced.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001,
    0.004,
    0.016,
    0.0625,
    0.25,
    1.0,
    4.0,
    16.0,
    64.0,
    256.0,
)


class _Instrument:
    kind = "untyped"

    def __init__(self, name: str, help_text: str, label_names: Sequence[str]) -> None:
        self.name = name
        self.help = help_text
        self.label_names = tuple(label_names)
        self._lock = threading.Lock()
        # label values (all ``str``, in declared order) -> their stored key
        self._keys: Dict[Tuple[str, ...], str] = {}

    def _key(self, labels: Dict[str, str]) -> str:
        """The key one label set is stored under: the JSON list of its values
        as ``str``, in declared order.  Built once per distinct tuple of
        ``str`` values; a non-string or unhashable value is spelled afresh."""
        names = self.label_names
        values = tuple(map(labels.get, names))
        try:
            if len(labels) == len(names):
                return self._keys[values]
        except (KeyError, TypeError):  # first sight, or an unhashable value
            pass
        if set(labels) != set(names):
            raise ValueError(f"labels {sorted(labels)} do not match declared {sorted(names)}")
        key = json.dumps([str(value) for value in values])
        if all(type(value) is str for value in values):
            with self._lock:
                self._keys[values] = key
        return key


class Counter(_Instrument):
    kind = "counter"

    def __init__(self, name: str, help_text: str, label_names: Sequence[str]) -> None:
        super().__init__(name, help_text, label_names)
        self._values: Dict[str, float] = {}

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        return self._values.get(self._key(labels), 0.0)


class Gauge(_Instrument):
    kind = "gauge"

    def __init__(self, name: str, help_text: str, label_names: Sequence[str]) -> None:
        super().__init__(name, help_text, label_names)
        self._values: Dict[str, float] = {}

    def set(self, value: float, **labels: str) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = float(value)

    def add(self, amount: float, **labels: str) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        return self._values.get(self._key(labels), 0.0)


class Histogram(_Instrument):
    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        label_names: Sequence[str],
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help_text, label_names)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.bounds = bounds
        # per label key: [counts per bound] + [+Inf count], sum
        self._values: Dict[str, Dict[str, object]] = {}

    def observe(self, value: float, **labels: str) -> None:
        key = self._key(labels)
        with self._lock:
            cell = self._values.get(key)
            if cell is None:
                cell = self._values[key] = {
                    "counts": [0] * (len(self.bounds) + 1),
                    "sum": 0.0,
                }
            counts: List[int] = cell["counts"]  # type: ignore[assignment]
            for idx, bound in enumerate(self.bounds):
                if value <= bound:
                    counts[idx] += 1
                    break
            else:
                counts[len(self.bounds)] += 1
            cell["sum"] = float(cell["sum"]) + value  # type: ignore[arg-type]

    def count(self, **labels: str) -> int:
        cell = self._values.get(self._key(labels))
        return sum(cell["counts"]) if cell else 0  # type: ignore[arg-type]


class MetricsRegistry:
    """Named instruments; declaration is idempotent."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: Dict[str, _Instrument] = {}

    def _declare(self, cls, name: str, help_text: str, labels, **kwargs):
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already declared as {existing.kind}",
                    )
                return existing
            inst = cls(name, help_text, tuple(labels), **kwargs)
            self._instruments[name] = inst
            return inst

    def counter(
        self,
        name: str,
        help_text: str = "",
        labels: Sequence[str] = (),
    ) -> Counter:
        return self._declare(Counter, name, help_text, labels)

    def gauge(
        self,
        name: str,
        help_text: str = "",
        labels: Sequence[str] = (),
    ) -> Gauge:
        return self._declare(Gauge, name, help_text, labels)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._declare(Histogram, name, help_text, labels, buckets=buckets)

    # -- plain-data interchange ----------------------------------------

    def snapshot(self) -> Dict[str, dict]:
        """JSON-safe dump of every instrument and its current values."""
        out: Dict[str, dict] = {}
        with self._lock:
            instruments = list(self._instruments.values())
        for inst in instruments:
            entry: Dict[str, object] = {
                "kind": inst.kind,
                "help": inst.help,
                "labels": list(inst.label_names),
            }
            if isinstance(inst, Histogram):
                entry["buckets"] = list(inst.bounds)
                entry["values"] = {
                    key: {"counts": list(cell["counts"]), "sum": cell["sum"]}
                    for key, cell in inst._values.items()
                }
            else:
                entry["values"] = dict(inst._values)  # type: ignore[attr-defined]
            out[inst.name] = entry
        return out

    def merge(self, snap: Dict[str, dict]) -> None:
        """Fold a snapshot (typically a worker delta) into this registry.

        Counters and histogram cells add; gauges take the incoming value
        (last writer wins, which is correct for per-worker series since
        label sets are disjoint across workers).
        """
        for name, entry in snap.items():
            kind = entry.get("kind")
            labels = tuple(entry.get("labels", ()))
            if kind == "counter":
                inst = self.counter(name, entry.get("help", ""), labels)
                with inst._lock:
                    for key, val in entry.get("values", {}).items():
                        inst._values[key] = inst._values.get(key, 0.0) + val
            elif kind == "gauge":
                inst = self.gauge(name, entry.get("help", ""), labels)
                with inst._lock:
                    inst._values.update(entry.get("values", {}))
            elif kind == "histogram":
                inst = self.histogram(
                    name,
                    entry.get("help", ""),
                    labels,
                    buckets=entry.get("buckets", DEFAULT_BUCKETS),
                )
                with inst._lock:
                    for key, cell in entry.get("values", {}).items():
                        mine = inst._values.get(key)
                        if mine is None:
                            inst._values[key] = {
                                "counts": list(cell["counts"]),
                                "sum": float(cell["sum"]),
                            }
                        else:
                            counts: List[int] = mine["counts"]  # type: ignore[assignment]
                            for idx, c in enumerate(cell["counts"]):
                                counts[idx] += c
                            mine["sum"] = float(mine["sum"]) + float(cell["sum"])


def diff_snapshots(after: Dict[str, dict], before: Dict[str, dict]) -> Dict[str, dict]:
    """Delta between two snapshots of the *same* registry.

    Counters and histogram cells subtract (clamped at zero); gauges take
    the ``after`` value.  Used by campaign workers to report only what a
    single run contributed.
    """
    out: Dict[str, dict] = {}
    for name, entry in after.items():
        prev = before.get(name)
        kind = entry.get("kind")
        new_entry = {k: v for k, v in entry.items() if k != "values"}
        if kind == "counter" and prev is not None:
            prev_values = prev.get("values", {})
            values = {
                key: val - prev_values.get(key, 0.0)
                for key, val in entry.get("values", {}).items()
                if val - prev_values.get(key, 0.0) > 0
            }
        elif kind == "histogram" and prev is not None:
            prev_values = prev.get("values", {})
            values = {}
            for key, cell in entry.get("values", {}).items():
                pcell = prev_values.get(key)
                if pcell is None:
                    values[key] = {
                        "counts": list(cell["counts"]),
                        "sum": float(cell["sum"]),
                    }
                    continue
                counts = [max(0, c - p) for c, p in zip(cell["counts"], pcell["counts"])]
                if any(counts):
                    values[key] = {
                        "counts": counts,
                        "sum": max(0.0, float(cell["sum"]) - float(pcell["sum"])),
                    }
        else:
            values = dict(entry.get("values", {}))
        if values:
            new_entry["values"] = values
            out[name] = new_entry
    return out


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _label_str(
    label_names: Sequence[str],
    key: str,
    extra: Iterable[Tuple[str, str]] = (),
) -> str:
    pairs = list(zip(label_names, json.loads(key))) + list(extra)
    if not pairs:
        return ""
    body = ",".join(f'{name}="{_escape_label(str(val))}"' for name, val in pairs)
    return "{" + body + "}"


def render_prometheus(snap: Dict[str, dict]) -> str:
    """Render a snapshot to Prometheus text exposition format (0.0.4)."""
    lines: List[str] = []
    for name in sorted(snap):
        entry = snap[name]
        kind = entry.get("kind", "untyped")
        label_names = entry.get("labels", [])
        if entry.get("help"):
            lines.append(f"# HELP {name} {entry['help']}")
        lines.append(f"# TYPE {name} {kind}")
        values = entry.get("values", {})
        if kind == "histogram":
            bounds = entry.get("buckets", [])
            for key in sorted(values):
                cell = values[key]
                counts = cell["counts"]
                cumulative = 0
                for bound, count in zip(bounds, counts):
                    cumulative += count
                    labels = _label_str(
                        label_names,
                        key,
                        [("le", _format_value(float(bound)))],
                    )
                    lines.append(f"{name}_bucket{labels} {cumulative}")
                cumulative += counts[len(bounds)] if len(counts) > len(bounds) else 0
                inf_labels = _label_str(label_names, key, [("le", "+Inf")])
                lines.append(f"{name}_bucket{inf_labels} {cumulative}")
                plain = _label_str(label_names, key)
                lines.append(f"{name}_sum{plain} {_format_value(float(cell['sum']))}")
                lines.append(f"{name}_count{plain} {cumulative}")
        else:
            for key in sorted(values):
                labels = _label_str(label_names, key)
                lines.append(f"{name}{labels} {_format_value(float(values[key]))}")
    return "\n".join(lines) + "\n" if lines else ""


_registry: Optional[MetricsRegistry] = None
_registry_lock = threading.Lock()


def get_registry() -> MetricsRegistry:
    """The process-global registry (created on first use)."""
    global _registry
    if _registry is None:
        with _registry_lock:
            if _registry is None:
                _registry = MetricsRegistry()
    return _registry


def set_registry(registry: Optional[MetricsRegistry]) -> None:
    """Swap the process-global registry (tests)."""
    global _registry
    with _registry_lock:
        _registry = registry


def count_suppressed_error(site: str) -> None:
    """Count one exception swallowed at the continue-anyway boundary *site*
    (``repro_suppressed_errors_total{site}``, DESIGN.md §12 audit)."""
    get_registry().counter(
        "repro_suppressed_errors_total",
        "Exceptions swallowed at continue-anyway boundaries",
        labels=("site",),
    ).inc(site=site)
