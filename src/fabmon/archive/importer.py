"""Importer: ingests producer sample streams into a telemetry store.

Every data line a producer sends lands in exactly one counter bucket:
ingested, duplicates or rejected (malformed lines and value conflicts).
The importer endpoint doubles as the archive's query server.
"""

from __future__ import annotations

import logging
import threading
from dataclasses import dataclass

from fabmon.core import Clock, MetricSample, ResourcePath
from fabmon.archive.store import AppendResult, InvalidRange, MemoryStore, check_range
from fabmon.wire.session import LatestResult, RequestError, WireHandler, WireServer

log = logging.getLogger(__name__)


@dataclass
class ImporterCounters:
    ingested: int = 0
    duplicates: int = 0
    rejected: int = 0


class Importer(WireHandler):
    def __init__(self, store: MemoryStore, clock: Clock, name: str = "importer"):
        self.store = store
        self.clock = clock
        self.counters = ImporterCounters()
        self._lock = threading.Lock()
        self.server = WireServer(self, clock, name=name)

    def on_sample(self, sample: MetricSample) -> None:
        try:
            result = self.store.append(sample)
        except Exception:  # the store failed (say, a full disk): the line is rejected
            with self._lock:
                self.counters.rejected += 1
            raise
        with self._lock:
            if result is AppendResult.OK:
                self.counters.ingested += 1
            elif result is AppendResult.DUPLICATE:
                self.counters.duplicates += 1
            else:
                self.counters.rejected += 1
        if result is AppendResult.CONFLICT:
            raise RequestError("conflict", f"different value already stored for {sample.key()}")

    def on_bad_line(self, line: bytes, error: Exception) -> None:
        with self._lock:
            self.counters.rejected += 1
        log.debug("rejected line: %s", error)

    def on_query_latest(self, path: ResourcePath, metric: str, hops: int):
        return LatestResult(self.store.latest(path, metric), source="archive")

    def on_query_range(self, path: ResourcePath, metric: str, t0: int, t1: int, hops: int):
        try:
            check_range(t0, t1)
        except InvalidRange as exc:
            raise RequestError("invalid_range", str(exc)) from None
        return self.store.range(path, metric, t0, t1)
