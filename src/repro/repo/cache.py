"""Cache-aside layer for hot warehouse aggregates.

Read-model queries are already cheap (materialized tables), but the hot
ones — trend series polled by dashboards, the event-count surface the
CLI renders — are asked far more often than the warehouse changes.  The
cache is the classic aside shape: the caller asks the cache first, on a
miss computes from the read models and fills the entry.  Invalidation
is generation-based: every committed ingest bumps the warehouse
generation, instantly orphaning all cached entries without walking them.

Hits and misses feed the process metrics registry
(``repro_repo_cache_requests_total{outcome=...}``).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Tuple

from repro.obs.metrics import get_registry

__all__ = ["AggregateCache"]


class AggregateCache:
    """Generation-tagged memo for aggregate query results."""

    def __init__(self, max_entries: int = 256) -> None:
        self.max_entries = max_entries
        self.generation = 0
        self.hits = 0
        self.misses = 0
        self._entries: Dict[Any, Tuple[int, Any]] = {}

    def invalidate(self) -> None:
        """Called after every committed ingest: everything cached is
        stale now.  Entries are dropped lazily on next access."""
        self.generation += 1

    def get_or_compute(self, key: Any, compute: Callable[[], Any]) -> Any:
        entry = self._entries.get(key)
        if entry is not None and entry[0] == self.generation:
            self.hits += 1
            self._count("hit")
            return entry[1]
        value = compute()
        self.misses += 1
        self._count("miss")
        if len(self._entries) >= self.max_entries:
            self._entries.clear()  # generation churn keeps this rare
        self._entries[key] = (self.generation, value)
        return value

    def _count(self, outcome: str) -> None:
        get_registry().counter(
            "repro_repo_cache_requests_total",
            "Warehouse aggregate cache lookups by outcome",
            labels=("outcome",),
        ).inc(outcome=outcome)
