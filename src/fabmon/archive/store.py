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


@dataclass(slots=True)
class _Series:
    """One series as two parallel lists sorted by timestamp, plus derived timestamps."""

    timestamps: list[int] = field(default_factory=list)
    samples: list[MetricSample] = field(default_factory=list)
    derived: set[int] = field(default_factory=set)


class MemoryStore(TelemetryStore):
    def __init__(self):
        self._series: dict[Key, _Series] = {}
        self._lock = threading.RLock()

    def _append(self, sample: MetricSample, derived: bool) -> AppendResult:
        key = sample_key(sample)
        ts = sample.timestamp
        with self._lock:
            series = self._series.get(key)
            if series is None:  # not setdefault: that builds a _Series per call
                series = self._series[key] = _Series()
            times = series.timestamps
            if not times or ts > times[-1]:  # the usual case: newer than the last
                times.append(ts)
                series.samples.append(sample)
            else:
                i = bisect.bisect_left(times, ts)
                if times[i] == ts:
                    existing = series.samples[i]
                    return AppendResult.DUPLICATE if existing == sample else AppendResult.CONFLICT
                times.insert(i, ts)
                series.samples.insert(i, sample)
            if derived:
                series.derived.add(ts)
            return AppendResult.OK

    def append(self, sample: MetricSample) -> AppendResult:
        return self._append(sample, derived=False)

    def append_derived(self, sample: MetricSample) -> AppendResult:
        return self._append(sample, derived=True)

    def latest(self, path, metric):
        with self._lock:
            series = self._series.get((str(path), metric))
            return None if series is None else series.samples[-1]

    def range(self, path, metric, t0, t1):
        check_range(t0, t1)
        with self._lock:
            series = self._series.get((str(path), metric))
            if series is None:
                return []
            lo = bisect.bisect_left(series.timestamps, t0)
            hi = bisect.bisect_left(series.timestamps, t1, lo)
            return series.samples[lo:hi]

    def keys(self):
        with self._lock:
            return sorted(self._series.keys())

    def is_derived(self, path, metric, timestamp):
        with self._lock:
            series = self._series.get((str(path), metric))
            return series is not None and timestamp in series.derived

    def remove(self, path, metric, timestamps):
        doomed = set(timestamps)
        with self._lock:
            series = self._series.get((str(path), metric))
            if series is None:
                return 0
            kept = [(ts, s) for ts, s in zip(series.timestamps, series.samples)
                    if ts not in doomed]
            removed = len(series.timestamps) - len(kept)
            if not kept:  # no key for an emptied series, as after a reopen
                del self._series[(str(path), metric)]
            elif removed:
                series.timestamps = [ts for ts, _ in kept]
                series.samples = [s for _, s in kept]
                series.derived -= doomed
            return removed
