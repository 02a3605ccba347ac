"""Telemetry store interface and the in-memory backend.

Append is idempotent on the (path, metric, timestamp) key: re-appending an
identical sample is a no-op, a different value for an existing key is a
conflict and leaves the store unchanged. Ranges are half-open [t0, t1) and
come back sorted by timestamp.
"""

from __future__ import annotations

import bisect
import threading
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional

from fabmon.core import MetricSample, ResourcePath


class AppendResult(Enum):
    OK = "ok"
    DUPLICATE = "duplicate"
    CONFLICT = "conflict"


class InvalidRange(ValueError):
    pass


class KindMismatch(TypeError):
    """Numeric aggregation requested over text samples."""


AGGREGATE_FNS = ("min", "max", "mean", "count", "last")

Key = tuple[str, str]  # (path text, metric)


def sample_key(sample: MetricSample) -> Key:
    return (str(sample.path), sample.metric)


class TelemetryStore:
    """Abstract append/query surface; memory and file backends implement it."""

    def append(self, sample: MetricSample) -> AppendResult:
        raise NotImplementedError

    def latest(self, path: ResourcePath, metric: str) -> Optional[MetricSample]:
        raise NotImplementedError

    def range(self, path: ResourcePath, metric: str, t0: int, t1: int) -> list[MetricSample]:
        raise NotImplementedError

    def keys(self) -> list[Key]:
        raise NotImplementedError

    def is_derived(self, path: ResourcePath, metric: str, timestamp: int) -> bool:
        raise NotImplementedError

    # retention support
    def append_derived(self, sample: MetricSample) -> AppendResult:
        raise NotImplementedError

    def remove(self, path: ResourcePath, metric: str, timestamps: Iterable[int]) -> int:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def aggregate(self, path: ResourcePath, metric: str, t0: int, t1: int, fn: str):
        """min/max/mean/count/last over the half-open range; None when empty.

        count is 0 on an empty range; min/max/mean refuse text values.
        """
        if fn not in AGGREGATE_FNS:
            raise ValueError(f"unknown aggregate fn {fn!r}")
        samples = self.range(path, metric, t0, t1)
        if fn == "count":
            return len(samples)
        if not samples:
            return None
        if fn == "last":
            return samples[-1].value
        values = []
        for s in samples:
            if isinstance(s.value, str):
                raise KindMismatch(f"cannot {fn} text metric {metric}")
            values.append(s.value)
        if fn == "min":
            return min(values)
        if fn == "max":
            return max(values)
        return sum(values) / len(values)


def check_range(t0: int, t1: int) -> None:
    if t0 > t1:
        raise InvalidRange(f"t0 {t0} > t1 {t1}")


@dataclass
class _Series:
    timestamps: list[int] = field(default_factory=list)  # sorted
    by_ts: dict[int, MetricSample] = field(default_factory=dict)
    derived: set[int] = field(default_factory=set)
    latest_ts: int = 0


class MemoryStore(TelemetryStore):
    def __init__(self):
        self._series: dict[Key, _Series] = {}
        self._lock = threading.RLock()

    def _append(self, sample: MetricSample, derived: bool) -> AppendResult:
        key = sample_key(sample)
        with self._lock:
            series = self._series.get(key)
            if series is None:  # not setdefault: that builds a _Series per call
                series = self._series[key] = _Series()
            existing = series.by_ts.get(sample.timestamp)
            if existing is not None:
                return AppendResult.DUPLICATE if existing == sample else AppendResult.CONFLICT
            bisect.insort(series.timestamps, sample.timestamp)
            series.by_ts[sample.timestamp] = sample
            if derived:
                series.derived.add(sample.timestamp)
            series.latest_ts = max(series.latest_ts, sample.timestamp)
            return AppendResult.OK

    def append(self, sample: MetricSample) -> AppendResult:
        return self._append(sample, derived=False)

    def append_derived(self, sample: MetricSample) -> AppendResult:
        return self._append(sample, derived=True)

    def latest(self, path, metric):
        with self._lock:
            series = self._series.get((str(path), metric))
            if series is None or not series.timestamps:
                return None
            return series.by_ts[series.latest_ts]

    def range(self, path, metric, t0, t1):
        check_range(t0, t1)
        with self._lock:
            series = self._series.get((str(path), metric))
            if series is None:
                return []
            lo = bisect.bisect_left(series.timestamps, t0)
            hi = bisect.bisect_left(series.timestamps, t1)
            return [series.by_ts[ts] for ts in series.timestamps[lo:hi]]

    def keys(self):
        with self._lock:
            return sorted(self._series.keys())

    def is_derived(self, path, metric, timestamp):
        with self._lock:
            series = self._series.get((str(path), metric))
            return series is not None and timestamp in series.derived

    def remove(self, path, metric, timestamps):
        with self._lock:
            series = self._series.get((str(path), metric))
            if series is None:
                return 0
            doomed = {ts for ts in timestamps if ts in series.by_ts}
            if not doomed:
                return 0
            series.timestamps = [ts for ts in series.timestamps if ts not in doomed]
            for ts in doomed:
                del series.by_ts[ts]
                series.derived.discard(ts)
            series.latest_ts = series.timestamps[-1] if series.timestamps else 0
            return len(doomed)
