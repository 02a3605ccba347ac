"""In-memory telemetry store; the file store is one that also writes through.

Append is idempotent on the (path, metric, timestamp) key: re-appending an
identical sample is a no-op, a different value for an existing key is a
conflict and leaves the store unchanged. Ranges are half-open [t0, t1) and
come back sorted by timestamp.
"""

from __future__ import annotations

import bisect
import threading
from array import array
from enum import Enum
from itertools import repeat
from typing import Optional

from fabmon.core import MetricSample, ResourcePath


class AppendResult(Enum):
    OK = "ok"
    DUPLICATE = "duplicate"
    CONFLICT = "conflict"


class InvalidRange(ValueError):
    pass


Key = tuple[str, str]  # (path text, metric)


def sample_key(sample: MetricSample) -> Key:
    return (str(sample.path), sample.metric)


def check_range(t0: int, t1: int) -> None:
    if t0 > t1:
        raise InvalidRange(f"t0 {t0} > t1 {t1}")


class _Series:
    """One series as parallel columns sorted by timestamp.

    The path and metric are held once per series; each sample costs one
    array slot for its timestamp and ttl and one list slot for its value
    (the int, float or str object as appended). MetricSamples are built
    when read. The derived-timestamp set exists once a derived sample does.
    """

    __slots__ = ("path", "metric", "timestamps", "values", "ttls", "derived")

    def __init__(self, path: ResourcePath, metric: str):
        self.path = path
        self.metric = metric
        self.timestamps = array("q")
        self.values: list = []
        self.ttls = array("q")
        self.derived: Optional[set[int]] = None

    def samples(self, lo: int, hi: int) -> list[MetricSample]:
        return list(map(_column_sample, repeat(self.path), repeat(self.metric),
                        self.timestamps[lo:hi], self.values[lo:hi], self.ttls[lo:hi]))


_set_path, _set_metric, _set_timestamp, _set_value, _set_ttl = (
    MetricSample.__dict__[name].__set__ for name in ("path", "metric", "timestamp", "value", "ttl"))


def _column_sample(path, metric, timestamp, value, ttl) -> MetricSample:
    """A MetricSample from column fields, which a MetricSample validated on
    append: filling its slots directly skips checking them again, at a third
    of the cost of MetricSample(...)."""
    sample = object.__new__(MetricSample)
    _set_path(sample, path)
    _set_metric(sample, metric)
    _set_timestamp(sample, timestamp)
    _set_value(sample, value)
    _set_ttl(sample, ttl)
    return sample


class MemoryStore:
    def __init__(self):
        self._series: dict[Key, _Series] = {}
        self._lock = threading.RLock()

    def _append(self, sample: MetricSample, derived: bool) -> AppendResult:
        key = sample_key(sample)
        ts = sample.timestamp
        with self._lock:
            series = self._series.get(key)
            if series is None:  # not setdefault: that builds a _Series per call
                series = self._series[key] = _Series(sample.path, sample.metric)
            times = series.timestamps
            if not times or ts > times[-1]:  # the usual case: newer than the last
                times.append(ts)
                series.values.append(sample.value)
                series.ttls.append(sample.ttl)
            else:
                i = bisect.bisect_left(times, ts)
                if times[i] == ts:
                    same = series.values[i] == sample.value and series.ttls[i] == sample.ttl
                    return AppendResult.DUPLICATE if same else AppendResult.CONFLICT
                times.insert(i, ts)
                series.values.insert(i, sample.value)
                series.ttls.insert(i, sample.ttl)
            if derived:
                if series.derived is None:
                    series.derived = set()
                series.derived.add(ts)
            return AppendResult.OK

    def append(self, sample: MetricSample) -> AppendResult:
        return self._append(sample, derived=False)

    def append_derived(self, sample: MetricSample) -> AppendResult:
        return self._append(sample, derived=True)

    def latest(self, path, metric):
        with self._lock:
            series = self._series.get((str(path), metric))
            if series is None:
                return None
            return _column_sample(series.path, series.metric, series.timestamps[-1],
                                  series.values[-1], series.ttls[-1])

    def range(self, path, metric, t0, t1):
        check_range(t0, t1)
        with self._lock:
            series = self._series.get((str(path), metric))
            if series is None:
                return []
            lo = bisect.bisect_left(series.timestamps, t0)
            hi = bisect.bisect_left(series.timestamps, t1, lo)
            return series.samples(lo, hi)

    def keys(self):
        with self._lock:
            return sorted(self._series.keys())

    def is_derived(self, path, metric, timestamp):
        with self._lock:
            series = self._series.get((str(path), metric))
            return series is not None and timestamp in (series.derived or ())

    def remove(self, path, metric, timestamps):
        doomed = set(timestamps)
        key = (str(path), metric)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                return 0
            kept = [i for i, ts in enumerate(series.timestamps) if ts not in doomed]
            removed = len(series.timestamps) - len(kept)
            if not kept:  # no key for an emptied series, as after a reopen
                del self._series[key]
            elif removed:
                series.timestamps = array("q", [series.timestamps[i] for i in kept])
                series.values = [series.values[i] for i in kept]
                series.ttls = array("q", [series.ttls[i] for i in kept])
                if series.derived:
                    series.derived -= doomed
            return removed

    def close(self) -> None:
        pass
