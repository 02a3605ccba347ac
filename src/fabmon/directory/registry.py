"""Provider registry with TTL leases.

Agents, archives and child directories advertise the subtree they serve;
an entry is visible only while its lease is live and vanishes on sweep once
now >= registered_at + ttl. Re-registration of the same (subtree, endpoint)
renews the lease in place.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from fabmon.core import ResourcePath

MIN_TTL_S = 5
MAX_TTL_S = 86400

# agents beat archives for freshness; directories only match when nothing
# closer to the data is registered
KIND_PRECEDENCE = {"agent": 0, "archive": 1, "directory": 2}

_Key = tuple[tuple[str, ...], str]  # (subtree components, endpoint)


class InvalidTTL(ValueError):
    pass


@dataclass(frozen=True)
class RegistryEntry:
    subtree: ResourcePath
    provider_kind: str  # agent | archive | directory
    endpoint: str
    ttl: int  # seconds
    registered_at: int  # unix ms

    @property
    def expires_at(self) -> int:
        return self.registered_at + self.ttl * 1000

    def live(self, now: int) -> bool:
        return now < self.expires_at


class Registry:
    def __init__(self):
        self._entries: dict[_Key, RegistryEntry] = {}
        # prefix -> key -> entry, so resolve() is a handful of dict probes
        # instead of a scan over every registration
        self._by_prefix: dict[tuple[str, ...], dict[_Key, RegistryEntry]] = {}
        self._lock = threading.RLock()

    def _put(self, entry: RegistryEntry) -> None:
        key = (entry.subtree.components, entry.endpoint)
        self._entries[key] = entry
        self._by_prefix.setdefault(entry.subtree.components, {})[key] = entry

    def _drop(self, key: _Key) -> RegistryEntry | None:
        entry = self._entries.pop(key, None)
        if entry is not None:
            bucket = self._by_prefix.get(key[0])
            if bucket is not None:
                bucket.pop(key, None)
                if not bucket:
                    del self._by_prefix[key[0]]
        return entry

    def register(self, subtree: ResourcePath, kind: str, endpoint: str, ttl: int, now: int) -> int:
        if not MIN_TTL_S <= ttl <= MAX_TTL_S:
            raise InvalidTTL(f"ttl {ttl}s outside [{MIN_TTL_S}, {MAX_TTL_S}]")
        if kind not in KIND_PRECEDENCE:
            raise ValueError(f"unknown provider kind {kind!r}")
        entry = RegistryEntry(subtree, kind, endpoint, ttl, now)
        with self._lock:
            self._put(entry)
        return entry.expires_at

    def deregister(self, subtree: ResourcePath, endpoint: str) -> int:
        with self._lock:
            return 0 if self._drop((subtree.components, endpoint)) is None else 1

    def live_entries(self, now: int) -> list[RegistryEntry]:
        with self._lock:
            entries = [e for e in self._entries.values() if e.live(now)]
        return sorted(entries, key=lambda e: (e.subtree.components, e.provider_kind, e.endpoint))

    def sweep(self, now: int) -> list[RegistryEntry]:
        """Drop exactly the expired entries; returns what was removed."""
        with self._lock:
            dead = [k for k, e in self._entries.items() if not e.live(now)]
            return [e for k in dead if (e := self._drop(k)) is not None]

    def resolve(self, path: ResourcePath, kinds: tuple[str, ...], now: int) -> RegistryEntry | None:
        """Longest-prefix live provider for path, restricted to kinds.

        Ties at one prefix length break by kind precedence, then endpoint,
        so resolution is deterministic for any registration set.
        """
        with self._lock:
            for plen in range(len(path.components), 0, -1):
                bucket = self._by_prefix.get(path.components[:plen])
                if not bucket:
                    continue
                candidates = [
                    e for e in bucket.values() if e.live(now) and e.provider_kind in kinds
                ]
                if candidates:
                    return min(
                        candidates,
                        key=lambda e: (KIND_PRECEDENCE[e.provider_kind], e.endpoint),
                    )
        return None

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
