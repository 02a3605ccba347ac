"""Shared domain model for the monitoring fabric.

Resource paths, metric descriptors, time-stamped samples, statuses and the
clock abstraction live here. Everything is an immutable value type, safe to
hand between threads; the agents, archive, directory and probes all build
on this vocabulary.
"""

from __future__ import annotations

import functools
import re
import threading
import time
from dataclasses import dataclass
from enum import IntEnum

MAX_PATH_DEPTH = 8

# Texts ResourcePath.parse interns; a 1100-host fabric has about 1,110 paths.
PARSE_CACHE_SIZE = 16_384

_SEGMENT_RE = re.compile(r"[a-z0-9][a-z0-9._-]*\Z")  # \Z: "$" would pass a trailing newline

INT64_MAX = (1 << 63) - 1  # timestamps and ttls fit the archive's int64 columns


def is_token(text) -> bool:
    """True when text is a legal lowercase name segment / metric token."""
    return isinstance(text, str) and bool(_SEGMENT_RE.match(text))


class MalformedPath(ValueError):
    """Raised for paths with empty segments, illegal characters or depth > 8."""


@dataclass(frozen=True, slots=True)
class ResourcePath:
    """Hierarchical site/cluster/host identity, e.g. bnl/linux-farm/node0042.

    Components are canonicalized to lowercase; the text form joins them
    with '/' and round-trips through parse().
    """

    components: tuple[str, ...]

    def __post_init__(self):
        if not isinstance(self.components, tuple):
            object.__setattr__(self, "components", tuple(self.components))
        if not 1 <= len(self.components) <= MAX_PATH_DEPTH:
            raise MalformedPath(
                f"path depth {len(self.components)} outside 1..{MAX_PATH_DEPTH}"
            )
        lowered = tuple(c.lower() for c in self.components)
        for seg in lowered:
            if not _SEGMENT_RE.match(seg):
                raise MalformedPath(f"illegal path segment {seg!r}")
        object.__setattr__(self, "components", lowered)

    def __str__(self) -> str:
        return "/".join(self.components)

    @staticmethod
    @functools.lru_cache(maxsize=PARSE_CACHE_SIZE)
    def parse(text: str) -> "ResourcePath":
        """One shared instance per text; malformed text raises on every call."""
        if not text:
            raise MalformedPath("empty path")
        segments = text.split("/")
        if any(not s for s in segments):
            raise MalformedPath(f"empty segment in {text!r}")
        return ResourcePath(tuple(segments))

    @property
    def site(self) -> str:
        return self.components[0]


class Status(IntEnum):
    """Health levels ordered by severity; rollups take the worst."""

    PASS = 0
    WARN = 1
    FAIL = 2
    UNREACHABLE = 3

    @property
    def label(self) -> str:
        return self.name.lower()

    @classmethod
    def parse(cls, text: str) -> "Status":
        try:
            return cls[text.upper()]
        except KeyError:
            raise ValueError(f"unknown status {text!r}") from None


def combine_status(statuses) -> Status:
    """Worst-of rollup; an empty input means no evidence of life."""
    return max(statuses, default=Status.UNREACHABLE)


@dataclass(frozen=True)
class MetricDescriptor:
    """Declares one metric an agent emits and how often it refreshes."""

    name: str
    default_period: float = 30.0
    validity_ttl: float = 90.0

    def __post_init__(self):
        if not _SEGMENT_RE.match(self.name):
            raise ValueError(f"illegal metric name {self.name!r}")
        if self.default_period < 1:
            raise ValueError("default_period must be >= 1s")
        if self.validity_ttl < self.default_period:
            raise ValueError("validity_ttl must be >= default_period")


@dataclass(frozen=True, slots=True)
class MetricSample:
    """One time-stamped measurement of one metric at one resource.

    (path, metric, timestamp) is the identity key used for deduplication
    downstream. Finiteness of numeric values is enforced at the wire
    boundary, not at construction.
    """

    path: ResourcePath
    metric: str
    timestamp: int  # unix ms, UTC
    value: float | int | str
    ttl: int  # seconds

    def __post_init__(self):
        if not isinstance(self.path, ResourcePath):
            raise TypeError("path must be a ResourcePath")
        if not _SEGMENT_RE.match(self.metric):
            raise ValueError(f"illegal metric name {self.metric!r}")
        if isinstance(self.timestamp, bool) or not isinstance(self.timestamp, int):
            raise TypeError("timestamp must be an int (unix ms)")
        if not 0 < self.timestamp <= INT64_MAX:
            raise ValueError("timestamp must be in 1..2**63-1")
        if isinstance(self.value, bool) or not isinstance(self.value, (int, float, str)):
            raise TypeError(f"value must be a number or text, got {type(self.value).__name__}")
        if isinstance(self.ttl, bool) or not isinstance(self.ttl, int):
            raise TypeError("ttl must be an int (seconds)")
        if not 0 <= self.ttl <= INT64_MAX:
            raise ValueError("ttl must be in 0..2**63-1")

    def key(self) -> tuple[str, str, int]:
        return (str(self.path), self.metric, self.timestamp)


class Clock:
    """Time source: unix ms now() plus sleep_until(). Monotone within a process."""

    def now(self) -> int:
        raise NotImplementedError

    def sleep_until(self, t_ms: int) -> None:
        raise NotImplementedError


class SystemClock(Clock):
    def __init__(self):
        self._last = 0
        self._lock = threading.Lock()

    def now(self) -> int:
        t = int(time.time() * 1000)
        with self._lock:
            # guard against wall-clock steps backwards
            self._last = max(self._last, t)
            return self._last

    def sleep_until(self, t_ms: int) -> None:
        delta = (t_ms - self.now()) / 1000.0
        if delta > 0:
            time.sleep(delta)


class SimClock(Clock):
    """Deterministic clock that advances only on demand."""

    def __init__(self, start_ms: int = 1):
        if start_ms <= 0:
            raise ValueError("start_ms must be > 0")
        self._now = start_ms
        self._lock = threading.Lock()

    def now(self) -> int:
        with self._lock:
            return self._now

    def sleep_until(self, t_ms: int) -> None:
        with self._lock:
            self._now = max(self._now, t_ms)
