"""Built-in sensors: load average, memory, disk, uptime/idle, network RTT.

Real readers pull straight from the usual system interfaces (/proc files,
os.getloadavg, shutil.disk_usage); every kind also has a deterministic
synthetic twin so the full stack can run and be tested on any platform.
Readers return (metric, value) pairs; the agent stamps path, timestamp and
ttl when it builds the samples.
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

from fabmon.core import MetricDescriptor

BUILTIN_KINDS = ("cpu_load", "memory", "disk", "uptime_idle", "net_rtt")

BUILTIN_METRICS: dict[str, tuple[str, ...]] = {
    "cpu_load": ("cpu.load1", "cpu.load5", "cpu.load15"),
    "memory": ("mem.used_bytes", "mem.total_bytes"),
    "disk": ("disk.used_bytes", "disk.total_bytes"),
    "uptime_idle": ("sys.uptime_s", "sys.idle_s"),
    "net_rtt": ("net.rtt_ms",),
}


class SensorUnavailable(RuntimeError):
    """This platform lacks the system interface the sensor needs."""


class ReadFailure(RuntimeError):
    """Transient read problem; the sampling cycle logs it and moves on."""


@dataclass
class SensorSpec:
    """One scheduled sensor: a builtin kind or an external command."""

    id: str
    source: str  # builtin kind name or "external"
    metrics: list[MetricDescriptor]
    period: float = 30.0  # seconds
    jitter: float = 0.0  # fraction of period, [0, 0.5]
    command: list[str] | None = None
    timeout: float = 10.0
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.period < 1:
            raise ValueError("sensor period must be >= 1s")
        if not 0 <= self.jitter <= 0.5:
            raise ValueError("jitter must be within [0, 0.5]")
        if self.source == "external":
            if not self.command:
                raise ValueError("external sensor needs a command")
            if not Path(self.command[0]).is_absolute():
                raise ValueError("external sensor command must use an absolute program path")
        elif self.source == "synthetic":
            if not self.metrics:
                raise ValueError("synthetic sensor needs metric descriptors")
        elif self.source not in BUILTIN_KINDS:
            raise ValueError(f"unknown sensor source {self.source!r}")

    def metric_ttl(self, metric: str) -> int:
        for desc in self.metrics:
            if desc.name == metric:
                return int(desc.validity_ttl)
        return int(max(60.0, 3 * self.period))


def _read_meminfo(path: str = "/proc/meminfo") -> tuple[int, int]:
    fields = {}
    try:
        with open(path) as fh:
            for line in fh:
                name, _, rest = line.partition(":")
                parts = rest.split()
                if parts:
                    fields[name] = int(parts[0]) * 1024  # values are in kB
    except OSError as exc:
        raise SensorUnavailable(f"cannot read {path}: {exc}") from exc
    try:
        total = fields["MemTotal"]
        available = fields.get("MemAvailable", fields.get("MemFree", 0))
    except KeyError as exc:
        raise ReadFailure(f"{path} missing {exc}") from None
    return total - available, total


def _read_uptime(path: str = "/proc/uptime") -> tuple[float, float]:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise SensorUnavailable(f"cannot read {path}: {exc}") from exc
    try:
        uptime_s, idle_s = (float(x) for x in text.split()[:2])
    except (ValueError, IndexError) as exc:
        raise ReadFailure(f"unparseable {path}: {text!r}") from exc
    return uptime_s, idle_s


def _measure_rtt(peer: str, dial, timeout: float = 5.0) -> float:
    """Round-trip of one HELLO exchange to the peer endpoint."""
    from fabmon.wire.client import WireClient  # late import, avoids a cycle

    start = time.perf_counter()
    try:
        channel = dial(peer, timeout=timeout) if dial else None
        if channel is None:
            raise SensorUnavailable("net_rtt needs a dial function and peer endpoint")
        try:
            WireClient(channel, role="consumer", name="rtt-probe", timeout=timeout)
        finally:
            channel.close()
    except SensorUnavailable:
        raise
    except Exception as exc:
        raise ReadFailure(f"rtt probe to {peer} failed: {exc}") from exc
    return (time.perf_counter() - start) * 1000.0


def read_builtin(kind: str, params: dict | None = None) -> list[tuple[str, float]]:
    """Read one builtin sensor from the live system."""
    params = params or {}
    if kind == "cpu_load":
        try:
            import os

            load1, load5, load15 = os.getloadavg()
        except (OSError, AttributeError) as exc:
            raise SensorUnavailable(f"no load averages here: {exc}") from exc
        return [("cpu.load1", load1), ("cpu.load5", load5), ("cpu.load15", load15)]
    if kind == "memory":
        used, total = _read_meminfo(params.get("meminfo", "/proc/meminfo"))
        return [("mem.used_bytes", used), ("mem.total_bytes", total)]
    if kind == "disk":
        mount = params.get("mount", "/")
        try:
            usage = shutil.disk_usage(mount)
        except OSError as exc:
            raise ReadFailure(f"disk_usage({mount!r}): {exc}") from exc
        return [("disk.used_bytes", usage.used), ("disk.total_bytes", usage.total)]
    if kind == "uptime_idle":
        uptime_s, idle_s = _read_uptime(params.get("uptime", "/proc/uptime"))
        return [("sys.uptime_s", uptime_s), ("sys.idle_s", idle_s)]
    if kind == "net_rtt":
        peer = params.get("peer")
        if not peer:
            raise SensorUnavailable("net_rtt needs params['peer']")
        return [("net.rtt_ms", _measure_rtt(peer, params.get("dial"), params.get("timeout", 5.0)))]
    raise SensorUnavailable(f"unknown builtin sensor kind {kind!r}")


def default_sensor_specs(period: float = 30.0, include_net: bool = False) -> list[SensorSpec]:
    """The stock sensor set; net_rtt only when a peer will be configured."""
    kinds = list(BUILTIN_KINDS) if include_net else [k for k in BUILTIN_KINDS if k != "net_rtt"]
    specs = []
    for kind in kinds:
        metrics = [
            MetricDescriptor(name=m, default_period=period, validity_ttl=period * 3)
            for m in BUILTIN_METRICS[kind]
        ]
        specs.append(SensorSpec(id=kind, source=kind, metrics=metrics, period=period))
    return specs

