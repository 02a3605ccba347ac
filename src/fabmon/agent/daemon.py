"""Per-host sampling daemon.

One Agent owns its sensor schedule, a latest-value map it serves to probing
consumers, and the publishing link to the importer. When that link is down,
samples land in a bounded drop-oldest spool and flush on reconnect; every
produced sample is accounted for as delivered, spooled or dropped, exactly.

The agent also measures itself: process CPU time over wall time is exported
as agent.overhead (percent), alongside agent.dropped_samples and
agent.sensor_errors.
"""

from __future__ import annotations

import logging
import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional

from fabmon.core import Clock, MetricSample, ResourcePath
from fabmon.agent import external as external_mod
from fabmon.agent import synthetic
from fabmon.agent.scheduling import SensorSchedule
from fabmon.agent.sensors import ReadFailure, SensorSpec, SensorUnavailable, read_builtin
from fabmon.agent.spool import SpoolRing
from fabmon.wire.client import WireClient
from fabmon.wire.pool import Lease, open_session
from fabmon.wire.session import LatestResult, ProtocolViolation, WireHandler, WireServer

log = logging.getLogger(__name__)

SELF_METRICS_TTL_S = 180


def _process_cpu_ms() -> float:
    return time.process_time() * 1000.0


class OverheadLedger:
    """Self-measured cost: agent CPU time as a fraction of wall time."""

    def __init__(self, clock: Clock, cpu_time_ms: Callable[[], float] = _process_cpu_ms):
        self._clock = clock
        self._cpu_time_ms = cpu_time_ms
        self.start_wall = clock.now()
        self.start_cpu = cpu_time_ms()

    @property
    def cpu_time_used(self) -> float:
        return self._cpu_time_ms() - self.start_cpu

    @property
    def wall_elapsed(self) -> float:
        return max(1.0, self._clock.now() - self.start_wall)

    def fraction(self) -> float:
        return self.cpu_time_used / self.wall_elapsed


@dataclass
class AgentConfig:
    host_path: ResourcePath
    sensors: list[SensorSpec]
    importer_endpoint: str = ""
    directory_endpoint: str = ""
    listen_endpoint: str = ""  # how others reach this agent's query server
    seed: int = 0
    spool_capacity: int = 1024
    registration_ttl: int = 120  # seconds
    emit_self_metrics: bool = True


@dataclass
class AgentCounters:
    produced: int = 0
    delivered: int = 0
    dropped: int = 0
    sensor_errors: int = 0


class Agent(WireHandler):
    def __init__(self, config: AgentConfig, clock: Clock, dial: Callable | None = None,
                 cpu_time_ms: Callable[[], float] = _process_cpu_ms):
        declared = [d.name for spec in config.sensors for d in spec.metrics]
        if len(declared) != len(set(declared)):
            dupes = sorted({n for n in declared if declared.count(n) > 1})
            raise ValueError(f"metric names must be unique within an agent: {dupes}")
        self.config = config
        self.clock = clock
        self.dial = dial
        self.counters = AgentCounters()
        self.ledger = OverheadLedger(clock, cpu_time_ms)
        self.schedule = SensorSchedule(config.sensors, clock.now(), config.seed,
                                       host=str(config.host_path))
        self.spool = SpoolRing(config.spool_capacity)
        self.server = WireServer(self, clock, name=f"agent:{config.host_path}")
        self._specs = {s.id: s for s in config.sensors}
        self._disabled: set[str] = set()
        self._latest: dict[str, MetricSample] = {}
        self._latest_lock = threading.Lock()
        self._client: Optional[WireClient] = None
        registers = dial and config.directory_endpoint and config.listen_endpoint
        self._lease = Lease(dial, config.directory_endpoint,
                            [config.host_path] if registers else [], "agent",
                            config.listen_endpoint, config.registration_ttl)
        self._stop = threading.Event()
        # simulation hook: fault lookup for synthetic reads
        self.synthetic_fault: Optional[Callable[[str, str, int], Optional[str]]] = None

    # -- sampling ----------------------------------------------------------

    def _read_spec(self, spec: SensorSpec, now: int) -> list[tuple[str, float | int | str]]:
        params = dict(spec.params)
        if spec.source == "external":
            samples, bad = external_mod.run_external(
                spec.command, spec.timeout, self.config.host_path)
            self.counters.sensor_errors += bad
            return [(s.metric, s.value) for s in samples]
        if spec.source == "synthetic":
            host = str(self.config.host_path)
            readings = []
            for metric in (d.name for d in spec.metrics):
                fault = self.synthetic_fault(host, metric, now) if self.synthetic_fault else None
                if fault == "stale_metrics":
                    continue  # the metric stops updating during the fault window
                if fault == "out_of_range":
                    readings.append((metric, synthetic.out_of_range_value(metric, now, self.config.seed)))
                else:
                    readings.append((metric, synthetic.synthetic_value(host, metric, now, self.config.seed)))
            return readings
        if spec.source == "net_rtt":
            params.setdefault("dial", self.dial)
        return read_builtin(spec.source, params)

    def sample_due(self, now: int) -> list[MetricSample]:
        """Read every due sensor; failures are logged and counted, not raised."""
        out: list[MetricSample] = []
        for sensor_id in self.schedule.due(now):
            if sensor_id in self._disabled:
                self.schedule.mark_run(sensor_id, now)
                continue
            spec = self._specs[sensor_id]
            try:
                readings = self._read_spec(spec, now)
            except SensorUnavailable as exc:
                log.warning("sensor %s disabled: %s", sensor_id, exc)
                self._disabled.add(sensor_id)
                self.schedule.mark_run(sensor_id, now)
                continue
            except ReadFailure as exc:
                log.info("sensor %s read failed: %s", sensor_id, exc)
                self.counters.sensor_errors += 1
                self.schedule.mark_run(sensor_id, now)
                continue
            for metric, value in readings:
                out.append(MetricSample(
                    path=self.config.host_path,
                    metric=metric,
                    timestamp=now,
                    value=value,
                    ttl=spec.metric_ttl(metric),
                ))
            self.schedule.mark_run(sensor_id, now)
        return out

    def _self_metrics(self, now: int) -> list[MetricSample]:
        overhead_pct = round(self.ledger.fraction() * 100.0, 4)
        mk = lambda metric, value: MetricSample(  # noqa: E731
            path=self.config.host_path, metric=metric, timestamp=now,
            value=value, ttl=SELF_METRICS_TTL_S)
        return [
            mk("agent.overhead", overhead_pct),
            mk("agent.dropped_samples", self.counters.dropped),
            mk("agent.sensor_errors", self.counters.sensor_errors),
        ]

    # -- publishing ---------------------------------------------------------

    def _connect(self) -> Optional[WireClient]:
        if self._client is not None:
            return self._client
        if not self.dial or not self.config.importer_endpoint:
            return None
        try:
            self._client = open_session(
                self.dial, self.config.importer_endpoint, "producer", self.server.name)
        except (OSError, ProtocolViolation) as exc:
            log.debug("importer unreachable: %s", exc)
        return self._client

    def _spool_all(self, samples: list[MetricSample]) -> None:
        for s in samples:
            self.spool.put(s)
        self.counters.dropped = self.spool.dropped

    def publish(self, samples: list[MetricSample]) -> int:
        """Send spooled then fresh samples in timestamp order; spool on failure."""
        pending = self.spool.drain() + sorted(samples, key=lambda s: s.timestamp)
        client = self._connect()
        if client is None:
            self._spool_all(pending)
            return 0
        delivered = 0
        for i, sample in enumerate(pending):
            try:
                client.publish(sample)
                delivered += 1
            except OSError as exc:
                log.info("publish failed, spooling: %s", exc)
                self._client = None
                self._spool_all(pending[i:])
                break
        self.counters.delivered += delivered
        return delivered

    # -- main loop --------------------------------------------------------------

    def tick(self, now: int) -> list[MetricSample]:
        """One scheduling step: read due sensors, publish, renew lease.

        Returns the samples produced in this step.
        """
        self._lease.keep(now)
        samples = self.sample_due(now)
        if samples and self.config.emit_self_metrics:
            samples += self._self_metrics(now)
        if not samples:
            return samples
        self.counters.produced += len(samples)
        with self._latest_lock:
            for s in samples:
                prev = self._latest.get(s.metric)
                if prev is None or s.timestamp >= prev.timestamp:
                    self._latest[s.metric] = s
        self.publish(samples)
        return samples

    def run(self) -> None:
        """Wall-clock loop; tick at each due time, wake at least once a second."""
        while not self._stop.is_set():
            now = self.clock.now()
            self.tick(now)
            wake = min(self.schedule.next_due_time(), now + 1000)
            self.clock.sleep_until(max(wake, now + 50))

    def stop(self) -> None:
        """End the run loop, close the importer link and drop the directory lease."""
        self._stop.set()
        if self._client is not None:
            try:
                self._client.close()
            except Exception:
                pass
        self._lease.release()

    # -- the agent's own query server ---------------------------------------------

    def latest(self, metric: str) -> Optional[MetricSample]:
        with self._latest_lock:
            return self._latest.get(metric)

    def on_query_latest(self, path: ResourcePath, metric: str, hops: int):
        if path != self.config.host_path:
            return LatestResult(None, source="agent")
        return LatestResult(self.latest(metric), source="agent")

    @property
    def accounted(self) -> tuple[int, int, int, int]:
        """(produced, delivered, spooled, dropped) - first equals sum of rest."""
        return (
            self.counters.produced,
            self.counters.delivered,
            len(self.spool),
            self.counters.dropped,
        )
