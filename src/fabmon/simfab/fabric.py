"""Deterministic simulated fabric.

Spins up the whole stack in one process: per-host agents with synthetic
sensors, an importer over a telemetry store, a directory, and the probe
daemon, all wired through in-memory channels under a simulated clock. The
event loop is single-threaded and seeded, so a SimConfig maps to exactly
one stream of samples, registrations, queries and snapshots; two runs
serialize byte-identically.

While it runs, the fabric cross-checks the stack against a shadow model of
every produced sample: answered latest-queries must be real samples within
the cache freshness window, snapshot rollups must equal the worst of their
children, and at the end every produced sample must be accounted for as
ingested, still spooled or dropped.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import time
from dataclasses import asdict, dataclass, field

from fabmon.agent.daemon import Agent, AgentConfig
from fabmon.agent.sensors import SensorSpec
from fabmon.archive.importer import Importer
from fabmon.archive.store import AppendResult, MemoryStore
from fabmon.core import MetricDescriptor, MetricSample, ResourcePath, SimClock, Status
from fabmon.directory.service import DirectoryService
from fabmon.probe.checks import ConsistencyRule, default_rules
from fabmon.probe.runner import HostSpec, ProbeConfig, ProbeRunner, StepSpec
from fabmon.probe.snapshot import verify_rollups
from fabmon.wire.channel import MemoryChannel, connect_memory
from fabmon.wire.codec import encode_sample
from fabmon.wire.pool import Lease
from fabmon.wire.session import ConnectionLost, WireServer

SIM_EPOCH_MS = 1_600_000_000_000  # fixed start so day buckets never drift

FAULT_KINDS = ("host_down", "stale_metrics", "out_of_range", "slow_endpoint")

DEFAULT_METRICS = ("cpu.load1", "cpu.util", "mem.used_bytes", "sys.uptime_s", "net.rtt_ms")


class SimInvariantViolation(AssertionError):
    pass


@dataclass(frozen=True)
class FaultSpec:
    kind: str
    target: str  # path prefix, canonical text
    t0_ms: int  # window start, ms from sim start
    t1_ms: int  # window end (exclusive)
    parameter: float = 0.0  # e.g. connect latency ms for slow_endpoint

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.t0_ms >= self.t1_ms:
            raise ValueError("fault window must be non-empty")

    def applies_to(self, path_text: str) -> bool:
        return path_text == self.target or path_text.startswith(self.target + "/")


@dataclass(frozen=True)
class SimConfig:
    n_hosts: int = 10
    n_sites: int = 2
    metrics: tuple[str, ...] = DEFAULT_METRICS
    period_s: int = 30
    jitter: float = 0.1
    duration_s: int = 300
    seed: int = 1
    probe_period_s: int = 300
    spool_capacity: int = 256
    faults: tuple[FaultSpec, ...] = ()

    def __post_init__(self):
        if self.n_hosts < 1 or self.n_sites < 1 or self.n_sites > self.n_hosts:
            raise ValueError("need at least one host and 1 <= sites <= hosts")
        duration_ms = self.duration_s * 1000
        for f in self.faults:
            if not (0 <= f.t0_ms < f.t1_ms <= duration_ms):
                raise ValueError(f"fault window outside the run: {f}")

    def site_of(self, host_index: int) -> str:
        return f"site{host_index % self.n_sites + 1}"

    def host_path(self, host_index: int) -> str:
        return f"{self.site_of(host_index)}/farm/node{host_index:04d}"


class SimNetwork:
    """Endpoint registry plus fault-aware dialing for in-memory servers."""

    def __init__(self, clock: SimClock, config: SimConfig):
        self.clock = clock
        self.config = config
        self._servers: dict[str, WireServer] = {}
        self._host_of: dict[str, str] = {}  # endpoint -> host path text

    def add(self, endpoint: str, server: WireServer, host: str = "") -> None:
        self._servers[endpoint] = server
        if host:
            self._host_of[endpoint] = host

    def fault_at(self, host: str, kind: str, now_rel_ms: int) -> FaultSpec | None:
        for f in self.config.faults:
            if f.kind == kind and f.t0_ms <= now_rel_ms < f.t1_ms and f.applies_to(host):
                return f
        return None

    def host_down(self, host: str, now_rel_ms: int) -> bool:
        return self.fault_at(host, "host_down", now_rel_ms) is not None

    def down_until(self, host: str, now_rel_ms: int) -> int:
        f = self.fault_at(host, "host_down", now_rel_ms)
        return f.t1_ms if f else now_rel_ms

    def dial(self, endpoint: str, timeout: float = 5.0):
        """Connect to endpoint; a slow_endpoint fault slower than timeout times out."""
        server = self._servers.get(endpoint)
        if server is None:
            raise ConnectionRefusedError(f"no listener at {endpoint}")
        host = self._host_of.get(endpoint, "")
        if not host:
            return connect_memory(server)
        now_rel = self.clock.now() - SIM_EPOCH_MS
        if self.host_down(host, now_rel):
            raise ConnectionRefusedError(f"{endpoint} is down")
        slow = self.fault_at(host, "slow_endpoint", now_rel)
        if slow is not None and slow.parameter > timeout * 1000:
            raise TimeoutError(f"connect to {endpoint} timed out")
        return _HostChannel(server, self, host)


class _HostChannel(MemoryChannel):
    """Memory channel to a simulated host; sends fail while the host is down.

    A session held across a host_down window then fails the way a held TCP
    session to a dead peer does, instead of answering from the down host.
    """

    def __init__(self, server: WireServer, network: SimNetwork, host: str):
        super().__init__(server)
        self._network = network
        self._host = host

    def send(self, line: bytes) -> None:
        if self._network.host_down(self._host, self._network.clock.now() - SIM_EPOCH_MS):
            raise ConnectionLost(f"{self._host} is down")
        super().send(line)


class _ShadowModel:
    """Record of every produced sample, for query checking."""

    def __init__(self):
        self.store = MemoryStore()
        self.stream_digest = hashlib.sha256()
        self.produced = 0

    def record(self, samples: list[MetricSample]) -> None:
        for s in samples:
            if self.store.append(s) is AppendResult.CONFLICT:
                raise SimInvariantViolation(f"two values produced for {s.key()}")
            self.stream_digest.update(encode_sample(s))
            self.produced += 1


class _CheckedDirectory(DirectoryService):
    """DirectoryService that verifies each latest answer against the shadow."""

    def __init__(self, *args, shadow: _ShadowModel, failures: list[str], stats: dict, **kwargs):
        super().__init__(*args, **kwargs)
        self._shadow = shadow
        self._failures = failures
        self._stats = stats

    def query_latest(self, path, metric, hops=0):
        result = super().query_latest(path, metric, hops)
        self._stats["query_checks"] = self._stats.get("query_checks", 0) + 1
        self._check(path, metric, result)
        return result

    def _check(self, path, metric, result) -> None:
        key = (str(path), metric)
        now = self.clock.now()
        answer = result.sample
        if answer is None:
            return  # absent is legitimate when nothing covers the path
        produced = self._shadow.store
        if produced.range(path, metric, answer.timestamp, answer.timestamp + 1) != [answer]:
            self._fail(f"{key}: answered sample was never produced: {answer}")
            return
        if result.stale:
            return  # explicitly flagged; no freshness claim to check
        cutoff = now - self._freshness_for(answer) * 1000
        if answer.timestamp < cutoff:
            newer = produced.range(path, metric, answer.timestamp + 1, cutoff + 1)
            if newer:
                self._fail(
                    f"{key}: answer at {answer.timestamp} older than every "
                    f"fetch in the freshness window could see ({newer[-1].timestamp})")

    def _fail(self, detail: str) -> None:
        if len(self._failures) < 25:
            self._failures.append(detail)
        self._stats["query_check_failures"] = self._stats.get("query_check_failures", 0) + 1


@dataclass
class SimResult:
    config: SimConfig
    produced: int = 0
    delivered: int = 0
    ingested: int = 0
    duplicates: int = 0
    rejected: int = 0
    dropped: int = 0
    spooled_residual: int = 0
    query_checks: int = 0
    query_check_failures: int = 0
    rollup_failures: int = 0
    cycles: int = 0
    failures: list[str] = field(default_factory=list)
    snapshots: list[dict] = field(default_factory=list)
    stream_digest: str = ""
    wall_seconds: float = 0.0  # informational; not part of the canonical report

    @property
    def accounted(self) -> bool:
        return self.produced == self.ingested + self.duplicates + self.dropped + self.spooled_residual

    def report_dict(self) -> dict:
        return {
            "schema": 1,
            "config": asdict(self.config),
            "counts": {
                "produced": self.produced,
                "delivered": self.delivered,
                "ingested": self.ingested,
                "duplicates": self.duplicates,
                "rejected": self.rejected,
                "dropped": self.dropped,
                "spooled_residual": self.spooled_residual,
                "query_checks": self.query_checks,
                "query_check_failures": self.query_check_failures,
                "rollup_failures": self.rollup_failures,
                "cycles": self.cycles,
            },
            "failures": self.failures,
            "snapshot_digests": [
                hashlib.sha256(json.dumps(s, sort_keys=True).encode()).hexdigest()
                for s in self.snapshots
            ],
            "stream_digest": self.stream_digest,
        }

    def report_bytes(self) -> bytes:
        return (json.dumps(self.report_dict(), sort_keys=True, indent=2) + "\n").encode()


# event priorities: directory sweeps, then agent ticks, then probe cycles
_SWEEP, _AGENT, _PROBE = 0, 1, 2


def run_sim(config: SimConfig, store=None) -> SimResult:
    started_wall = time.monotonic()
    clock = SimClock(SIM_EPOCH_MS)
    end_ms = SIM_EPOCH_MS + config.duration_s * 1000
    network = SimNetwork(clock, config)
    shadow = _ShadowModel()
    stats: dict = {}
    failures: list[str] = []

    store = store if store is not None else MemoryStore()
    importer = Importer(store, clock, name="sim-importer")
    network.add("importer:9812", importer.server)

    directory = _CheckedDirectory(
        clock, network.dial, name="sim-directory",
        shadow=shadow, failures=failures, stats=stats)
    network.add("directory:9811", directory.server)

    # the archive advertises each site subtree it stores
    archive = Lease(network.dial, "directory:9811",
                    [ResourcePath.parse(f"site{i + 1}") for i in range(config.n_sites)],
                    "archive", "importer:9812", min(86400, max(600, config.duration_s * 2)))
    archive.keep(clock.now())

    descriptors = [
        MetricDescriptor(
            name=m, default_period=config.period_s,
            validity_ttl=config.period_s * 3)
        for m in config.metrics
    ]

    agents: list[Agent] = []
    sites: dict[str, list[HostSpec]] = {}
    for i in range(config.n_hosts):
        host_text = config.host_path(i)
        path = ResourcePath.parse(host_text)
        endpoint = f"{host_text}:9810"
        agent = Agent(
            AgentConfig(
                host_path=path,
                sensors=[SensorSpec(
                    id="sim", source="synthetic", metrics=descriptors,
                    period=config.period_s, jitter=config.jitter)],
                importer_endpoint="importer:9812",
                directory_endpoint="directory:9811",
                listen_endpoint=endpoint,
                seed=config.seed,
                spool_capacity=config.spool_capacity,
                emit_self_metrics=False,
            ),
            clock,
            dial=network.dial,
        )
        agent.synthetic_fault = (
            lambda host, metric, now: _value_fault(network, host, metric, now))
        network.add(endpoint, agent.server, host=host_text)
        agents.append(agent)
        sites.setdefault(path.site, []).append(HostSpec(path=path, endpoint=endpoint))

    freshness_limit_s = config.period_s * 3
    probe_config = ProbeConfig(
        sites=sites,
        sequence=[
            StepSpec(kind="tcp_connect", name="connect", timeout=5.0),
            StepSpec(kind="directory_query", name="lookup",
                     params={"metric": config.metrics[0]}),
            StepSpec(kind="consistency", name="consistency"),
            StepSpec(kind="latest_freshness", name="freshness",
                     params={"metric": config.metrics[0], "max_age_s": freshness_limit_s}),
        ],
        rules=_sim_rules(config),
        cycle_period_s=config.probe_period_s,
        fanout=1,  # one host after another: the event loop is single-threaded
        directory_endpoint="directory:9811",
    )
    runner = ProbeRunner(probe_config, clock, dial=network.dial)

    result = SimResult(config=config)

    # seeded event loop: (time, priority, seq) orders everything
    heap: list[tuple[int, int, int, int]] = []
    seq = 0
    for i, agent in enumerate(agents):
        heapq.heappush(heap, (agent.schedule.next_due_time(), _AGENT, seq, i))
        seq += 1
        shadow.record(agent.tick(clock.now()))  # initial registration; no sensors due yet
    heapq.heappush(heap, (SIM_EPOCH_MS + 1000, _SWEEP, seq, -1))
    seq += 1
    heapq.heappush(heap, (SIM_EPOCH_MS + config.probe_period_s * 1000, _PROBE, seq, -1))
    seq += 1

    while heap:
        t, priority, _, idx = heapq.heappop(heap)
        if t > end_ms:  # the run window is [start, start + duration]
            break
        clock.sleep_until(t)
        now_rel = clock.now() - SIM_EPOCH_MS
        if priority == _AGENT:
            agent = agents[idx]
            host_text = str(agent.config.host_path)
            if network.host_down(host_text, now_rel):
                wake = SIM_EPOCH_MS + network.down_until(host_text, now_rel)
                heapq.heappush(heap, (wake, _AGENT, seq, idx))
            else:
                shadow.record(agent.tick(clock.now()))
                heapq.heappush(heap, (agent.schedule.next_due_time(), _AGENT, seq, idx))
            seq += 1
        elif priority == _SWEEP:
            directory.sweep()
            heapq.heappush(heap, (clock.now() + 15000, _SWEEP, seq, -1))
            seq += 1
        else:  # probe cycle
            snapshot = runner.run_cycle(result.cycles + 1)
            snap_dict = snapshot.to_dict()
            problems = verify_rollups(snap_dict)
            if problems:
                result.rollup_failures += len(problems)
                failures.extend(f"rollup: {p}" for p in problems[:5])
            result.snapshots.append(snap_dict)
            result.cycles += 1
            heapq.heappush(
                heap, (snapshot.started_at + config.probe_period_s * 1000, _PROBE, seq, -1))
            seq += 1

    clock.sleep_until(end_ms)

    result.produced = shadow.produced
    result.delivered = sum(a.counters.delivered for a in agents)
    result.dropped = sum(a.counters.dropped for a in agents)
    result.spooled_residual = sum(len(a.spool) for a in agents)
    result.ingested = importer.counters.ingested
    result.duplicates = importer.counters.duplicates
    result.rejected = importer.counters.rejected
    result.query_checks = stats.get("query_checks", 0)
    result.query_check_failures = stats.get("query_check_failures", 0)
    result.stream_digest = shadow.stream_digest.hexdigest()
    result.wall_seconds = time.monotonic() - started_wall

    if not result.accounted:
        failures.append(
            f"accounting: produced {result.produced} != ingested {result.ingested} "
            f"+ duplicates {result.duplicates} + dropped {result.dropped} "
            f"+ spooled {result.spooled_residual}")
    result.failures = failures
    return result


def _value_fault(network: SimNetwork, host: str, metric: str, now: int) -> str | None:
    now_rel = now - SIM_EPOCH_MS
    if network.fault_at(host, "out_of_range", now_rel):
        return "out_of_range"
    if network.fault_at(host, "stale_metrics", now_rel):
        return "stale_metrics"
    return None


def _sim_rules(config: SimConfig) -> list[ConsistencyRule]:
    rules = []
    if "cpu.util" in config.metrics:
        rules.append(ConsistencyRule(
            metric="cpu.util", min_value=0.0, max_value=100.0, on_violation=Status.WARN))
    if "cpu.load1" in config.metrics:
        rules.extend(r for r in default_rules(config.period_s) if r.metric == "cpu.load1")
    return rules
