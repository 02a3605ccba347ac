"""Retention sweep: downsample raw history older than max_age to per-bucket means.

Numeric samples beyond the age horizon collapse to one derived sample per
bucket (timestamp = bucket start, value = mean); text samples just age out.
A series' latest sample is never removed, however old, so latest queries
keep answering after long quiet spells. Buckets that already hold a derived
sample are left alone.
"""

from __future__ import annotations

from dataclasses import dataclass

from fabmon.core import MetricSample, ResourcePath
from fabmon.archive.store import MemoryStore


@dataclass(frozen=True)
class RetentionPolicy:
    max_age_s: int
    bucket_s: int  # downsample horizon; one mean kept per bucket

    def __post_init__(self):
        if self.bucket_s <= 0:
            raise ValueError("bucket_s must be positive")
        if self.max_age_s <= self.bucket_s:
            raise ValueError("max_age_s must exceed the downsample bucket")


@dataclass
class SweepResult:
    removed: int = 0
    compacted: int = 0  # derived samples created


def retention_sweep(store: MemoryStore, policy: RetentionPolicy, now: int) -> SweepResult:
    result = SweepResult()
    cutoff = now - policy.max_age_s * 1000
    if cutoff <= 1:
        return result
    bucket_ms = policy.bucket_s * 1000
    for path_text, metric in store.keys():
        path = ResourcePath.parse(path_text)
        latest = store.latest(path, metric)
        old = store.range(path, metric, 1, cutoff)
        doomed: list[MetricSample] = []
        buckets: dict[int, list[float]] = {}
        for s in old:
            if latest is not None and s.timestamp == latest.timestamp:
                continue  # latest value is exempt
            if store.is_derived(path, metric, s.timestamp):
                continue  # compacted on an earlier sweep
            doomed.append(s)
            if not isinstance(s.value, str):
                buckets.setdefault(s.timestamp - s.timestamp % bucket_ms, []).append(s.value)
        if not doomed:
            continue
        result.removed += store.remove(path, metric, [s.timestamp for s in doomed])
        for bucket_start, values in sorted(buckets.items()):
            derived = MetricSample(
                path=path,
                metric=metric,
                timestamp=bucket_start or 1,
                value=sum(values) / len(values),
                ttl=policy.bucket_s,
            )
            if store.append_derived(derived).name == "OK":
                result.compacted += 1
    return result
