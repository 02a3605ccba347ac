"""Directory service: latest-value cache, query routing, federation.

Latest queries hit the cache while it is fresh, then the longest-prefix
live provider (agents preferred over archives; a child directory means the
query federates down with a hop cap). Historical queries always delegate to
an archive. When a provider is registered but unreachable, a stale cache
cell may be served, explicitly flagged, instead of going silent; sweep()
drops a cell FRESHNESS_CAP_S seconds after it went stale, so the cache
holds only keys asked for recently.

A refused query raises RequestError, in process as on the wire: hop_limit,
invalid_range and no_provider from this directory, an upstream's hop_limit
and invalid_range unchanged, and upstream_unreachable, naming the
endpoint, for any other upstream failure.
"""

from __future__ import annotations

import logging
import threading
from dataclasses import dataclass
from typing import Callable, TypeVar

from fabmon.core import Clock, MetricSample, ResourcePath
from fabmon.directory.registry import InvalidTTL, Registry
from fabmon.wire.client import WireClient
from fabmon.wire.pool import SessionPool
from fabmon.wire.session import (
    LatestResult, ProtocolViolation, RequestError, WireHandler, WireServer)

log = logging.getLogger(__name__)

MAX_HOPS = 8
FRESHNESS_CAP_S = 300
UPSTREAM_TIMEOUT_S = 5.0  # wait for an upstream's reply before giving up on it

T = TypeVar("T")


@dataclass
class CacheCell:
    sample: MetricSample
    fetched_at: int  # unix ms
    freshness_ttl: int  # seconds

    def fresh(self, now: int) -> bool:
        return now < self.fetched_at + self.freshness_ttl * 1000

    def expired(self, now: int) -> bool:
        """Past freshness plus a FRESHNESS_CAP_S grace in which it may be served stale."""
        return now >= self.fetched_at + (self.freshness_ttl + FRESHNESS_CAP_S) * 1000


Dialer = Callable[[str], object]  # endpoint -> channel


class DirectoryService(WireHandler):
    def __init__(
        self,
        clock: Clock,
        dial: Dialer,
        name: str = "directory",
        freshness_ttls: dict[str, int] | None = None,
    ):
        self.clock = clock
        self.registry = Registry()
        self.server = WireServer(self, clock, name=name)
        self.freshness_ttls = dict(freshness_ttls or {})
        self._cache: dict[tuple[str, str], CacheCell] = {}
        self._cache_lock = threading.Lock()
        # (key, hops) -> set once the caller that put it here has fetched
        self._inflight: dict[tuple[tuple[str, str], int], threading.Event] = {}
        self.pool = SessionPool(dial, "consumer", name, timeout=UPSTREAM_TIMEOUT_S)

    # -- cache -------------------------------------------------------------

    def _freshness_for(self, sample: MetricSample) -> int:
        ttl = self.freshness_ttls.get(sample.metric, sample.ttl)
        return max(1, min(ttl, FRESHNESS_CAP_S))

    def _cache_put(self, key: tuple[str, str], sample: MetricSample, now: int) -> None:
        cell = CacheCell(sample, now, self._freshness_for(sample))
        with self._cache_lock:
            self._cache[key] = cell

    # -- upstream sessions ----------------------------------------------------

    def _fetch(self, endpoint: str, call: Callable[[WireClient], T]) -> T:
        """call on a pooled session to endpoint. hop_limit and invalid_range
        pass through; any other failure becomes upstream_unreachable."""
        try:
            return self.pool.call(endpoint, call)
        except RequestError as exc:
            if exc.code in ("hop_limit", "invalid_range"):
                raise
            raise RequestError("upstream_unreachable", f"{endpoint}: {exc}") from exc
        except (OSError, ProtocolViolation, ValueError) as exc:
            # ValueError: an endpoint that does not parse
            raise RequestError("upstream_unreachable", f"{endpoint}: {exc}") from exc

    def close(self) -> None:
        """Close every idle upstream session."""
        self.pool.close()

    # -- queries -------------------------------------------------------------

    def query_latest(self, path: ResourcePath, metric: str, hops: int = 0) -> LatestResult:
        """Latest value for (path, metric): cache, then provider, then stale.

        Concurrent misses on one key at one hop count share one upstream
        fetch: the first claims it, the others wait for it and read the
        cache. A federation cycle comes back with more hops, so it never
        waits on its own fetch, whatever thread or transport carries it.
        """
        if hops > MAX_HOPS:
            raise RequestError("hop_limit", f"query for {path}/{metric} exceeded {MAX_HOPS} hops")
        now = self.clock.now()
        key = (str(path), metric)
        with self._cache_lock:
            cell = self._cache.get(key)
            if cell is not None and cell.fresh(now):
                return LatestResult(cell.sample, stale=False, source="cache")
            flight = (key, hops)
            event = self._inflight.get(flight)
            owner = event is None
            if owner:
                event = self._inflight[flight] = threading.Event()
        if not owner:
            # if the fetch in flight leaves nothing fresh, fetch alone, unclaimed
            event.wait(timeout=30)
            now = self.clock.now()
            with self._cache_lock:
                cell = self._cache.get(key)
            if cell is not None and cell.fresh(now):
                return LatestResult(cell.sample, stale=False, source="cache")
        try:
            entry = self.registry.resolve(path, ("agent", "archive", "directory"), now)
            if entry is None:
                return LatestResult(None)
            next_hops = hops + 1 if entry.provider_kind == "directory" else hops
            try:
                result = self._fetch(
                    entry.endpoint, lambda c: c.query_latest(path, metric, hops=next_hops))
            except RequestError as exc:
                if cell is None or exc.code != "upstream_unreachable":
                    raise
                log.warning("serving stale %s/%s: upstream %s unreachable",
                            path, metric, entry.endpoint)
                return LatestResult(cell.sample, stale=True, source="cache")
            if result.sample is not None and not result.stale:
                self._cache_put(key, result.sample, self.clock.now())
            if result.sample is None:
                return LatestResult(None)
            return LatestResult(result.sample, stale=result.stale, source="upstream")
        finally:
            if owner:  # only the claimant removes its claim
                with self._cache_lock:
                    del self._inflight[flight]
                event.set()

    def query_history(self, path: ResourcePath, metric: str, t0: int, t1: int,
                      hops: int = 0) -> list[MetricSample]:
        """Historical samples, always from an archive, never the cache."""
        if hops > MAX_HOPS:
            raise RequestError("hop_limit", f"history for {path}/{metric} exceeded {MAX_HOPS} hops")
        if t0 > t1:
            raise RequestError("invalid_range", f"t0 {t0} > t1 {t1}")
        now = self.clock.now()
        entry = self.registry.resolve(path, ("archive", "directory"), now)
        if entry is None:
            raise RequestError("no_provider", f"no archive covers {path}")
        next_hops = hops + 1 if entry.provider_kind == "directory" else hops
        return self._fetch(
            entry.endpoint, lambda c: c.query_range(path, metric, t0, t1, hops=next_hops))

    def sweep(self) -> int:
        """Expire registrations and cache cells; close idle sessions no live
        registration points at."""
        now = self.clock.now()
        removed = self.registry.sweep(now)
        with self._cache_lock:
            for key in [k for k, cell in self._cache.items() if cell.expired(now)]:
                del self._cache[key]
        live = {e.endpoint for e in self.registry.live_entries(now)}
        self.pool.close(keep=live.__contains__)
        return len(removed)

    def registry_dump(self) -> list[dict]:
        now = self.clock.now()
        return [
            {
                "subtree": str(e.subtree),
                "kind": e.provider_kind,
                "endpoint": e.endpoint,
                "ttl": e.ttl,
                "registered_at": e.registered_at,
                "expires_at": e.expires_at,
            }
            for e in self.registry.live_entries(now)
        ]

    # -- wire handler ----------------------------------------------------------

    def on_register(self, subtree, kind, endpoint, ttl):
        try:
            return self.registry.register(subtree, kind, endpoint, ttl, self.clock.now())
        except InvalidTTL as exc:
            raise RequestError("invalid_ttl", str(exc)) from None

    on_query_registry = registry_dump

    def on_deregister(self, subtree, endpoint):
        return self.registry.deregister(subtree, endpoint)

    def on_query_latest(self, path, metric, hops):
        return self.query_latest(path, metric, hops)

    def on_query_range(self, path, metric, t0, t1, hops):
        return self.query_history(path, metric, t0, t1, hops)
