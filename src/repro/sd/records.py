"""TTL-bounded service record caches.

*"It should be noted that most SDPs implement also a local cache on SUs
and SMs to reduce network load"* (Sec. III-A).  Both protocol families use
this cache: mDNS caches every record heard on the multicast group; the SLP
SU caches directed query results; the SCM's registration store is the same
structure with registration lifetimes.

Expiry is pull-based: owners call :meth:`ServiceCache.purge_expired` from
their housekeeping processes and emit ``sd_service_del`` for what fell
out.  The cache never touches the clock itself — callers pass "now",
keeping the structure trivially testable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.sd.model import ServiceInstance

__all__ = ["CacheEntry", "ServiceCache"]


@dataclass
class CacheEntry:
    """One cached service record with its expiry deadline."""

    instance: ServiceInstance
    expires_at: float
    learned_at: float

    def remaining(self, now: float) -> float:
        return max(0.0, self.expires_at - now)

    def fresh_fraction(self, now: float) -> float:
        """Fraction of the record's lifetime still remaining — the
        known-answer suppression rule compares this against 1/2."""
        ttl = self.instance.ttl
        if ttl <= 0:
            return 0.0
        return max(0.0, min(1.0, self.remaining(now) / ttl))


class ServiceCache:
    """A ``{(service_type, instance_name): CacheEntry}`` store."""

    def __init__(self) -> None:
        self._entries: Dict[Tuple[str, str], CacheEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    def add(self, instance: ServiceInstance, now: float) -> Tuple[bool, bool]:
        """Insert/refresh a record.

        Returns ``(is_new, is_update)``: *new* when the instance was not
        cached; *update* when it was cached with an older version.

        A record with ``ttl <= 0`` is a goodbye, not an offer: it never
        enters the cache (it would sit there pre-expired until the next
        housekeeping sweep, visible to ``entries_for_type``/``get`` in
        the meantime) — instead any cached entry for the same key is
        dropped.  A record carrying an *older* description version than
        the cached one is stale (late-arriving response, gossip echo)
        and must not overwrite the newer description or reset its
        expiry.  Re-registration with the same or newer version always
        extends ``expires_at`` to ``now + ttl`` — that is the renewal
        path registries and SCMs rely on.
        """
        key = (instance.service_type, instance.name)
        existing = self._entries.get(key)
        if instance.ttl <= 0:
            self._entries.pop(key, None)
            return False, False
        if existing is not None and instance.version < existing.instance.version:
            return False, False
        entry = CacheEntry(
            instance=instance,
            expires_at=now + instance.ttl,
            learned_at=now,
        )
        self._entries[key] = entry
        if existing is None:
            return True, False
        return False, instance.version > existing.instance.version

    def refresh(
        self, instance: ServiceInstance, expires_at: float, learned_at: float
    ) -> Tuple[bool, bool]:
        """Merge a record with an *explicit* expiry deadline.

        Used by anti-entropy gossip, where the sender ships the remaining
        lifetime of each record rather than its full TTL.  The newer
        description version wins; at equal versions the later deadline
        wins (a peer that heard a more recent renewal extends ours).
        Returns ``(is_new, is_update)`` like :meth:`add`.
        """
        key = (instance.service_type, instance.name)
        existing = self._entries.get(key)
        if expires_at <= learned_at:
            return False, False
        if existing is not None:
            if instance.version < existing.instance.version:
                return False, False
            if (
                instance.version == existing.instance.version
                and expires_at <= existing.expires_at
            ):
                return False, False
        self._entries[key] = CacheEntry(
            instance=instance, expires_at=expires_at, learned_at=learned_at
        )
        if existing is None:
            return True, False
        return False, instance.version > existing.instance.version

    def remove(self, service_type: str, name: str) -> Optional[ServiceInstance]:
        entry = self._entries.pop((service_type, name), None)
        return entry.instance if entry else None

    def get(self, service_type: str, name: str) -> Optional[CacheEntry]:
        return self._entries.get((service_type, name))

    def entries_for_type(self, service_type: str) -> List[CacheEntry]:
        return [
            entry
            for (stype, _name), entry in sorted(self._entries.items())
            if stype == service_type
        ]

    def all_entries(self) -> List[CacheEntry]:
        return [entry for _key, entry in sorted(self._entries.items())]

    def purge_expired(self, now: float) -> List[ServiceInstance]:
        """Drop expired entries; returns what was dropped."""
        gone = []
        for key in sorted(self._entries):
            if self._entries[key].expires_at <= now:
                gone.append(self._entries.pop(key).instance)
        return gone

    def clear(self) -> None:
        self._entries.clear()
