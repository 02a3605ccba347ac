from __future__ import annotations

import os
import sys
import time
from pathlib import Path

import pytest

from conftest import EPOCH_MS, make_sample
from fabmon.core import MetricDescriptor, ResourcePath, SimClock
from fabmon.agent import (
    Agent,
    AgentConfig,
    OverheadLedger,
    ReadFailure,
    SensorSchedule,
    SensorSpec,
    SensorUnavailable,
    SpoolRing,
    default_sensor_specs,
    read_builtin,
    run_external,
)
from fabmon.agent.sensors import BUILTIN_METRICS
from fabmon.agent.synthetic import synthetic_value
from fabmon.archive import Importer, MemoryStore
from fabmon.directory import DirectoryService
from fabmon.wire import connect_memory
from fabmon.wire.codec import encode_sample

HOST = ResourcePath.parse("bnl/farm/n1")


def _synth_spec(period=30.0, jitter=0.0, metrics=("cpu.load1", "cpu.util")):
    descs = [MetricDescriptor(name=m, default_period=period, validity_ttl=period * 3)
             for m in metrics]
    return SensorSpec(id="synth", source="synthetic", metrics=descs,
                      period=period, jitter=jitter)


class TestSchedule:
    def test_due_at_period(self):
        sched = SensorSchedule([_synth_spec(period=30)], start_ms=0, seed=0)
        assert sched.due(29_999) == []
        assert sched.due(30_000) == ["synth"]

    def test_mark_run_reschedules(self):
        sched = SensorSchedule([_synth_spec(period=30)], start_ms=0, seed=0)
        sched.mark_run("synth", 30_000)
        assert sched.due(30_001) == []
        assert sched.due(60_000) == ["synth"]

    def test_jitter_counts_over_an_hour(self):
        # 100 sensors, 30s +/- 10%: every one fires between 109 and 133 times
        specs = [
            SensorSpec(id=f"s{i:03d}", source="synthetic",
                       metrics=[MetricDescriptor(name="m", default_period=30)],
                       period=30, jitter=0.1)
            for i in range(100)
        ]
        sched = SensorSchedule(specs, start_ms=0, seed=42)
        fires = {s.id: 0 for s in specs}
        now = 0
        while now < 3_600_000:
            now = max(sched.next_due_time(), now)
            if now >= 3_600_000:
                break
            for sid in sched.due(now):
                fires[sid] += 1
                sched.mark_run(sid, now)
        counts = sorted(fires.values())
        assert counts[0] >= 109
        assert counts[-1] <= 133

    def test_deterministic_under_seed(self):
        def trace(seed):
            sched = SensorSchedule([_synth_spec(period=30, jitter=0.2)], 0, seed)
            out, now = [], 0
            for _ in range(50):
                now = sched.next_due_time()
                out.append(now)
                sched.mark_run("synth", now)
            return out

        assert trace(7) == trace(7)
        assert trace(7) != trace(8)

    def test_hosts_sharing_a_seed_do_not_sample_in_lockstep(self):
        # a fleet shares one config, seed included; the host path tells them apart
        def trace(host):
            agent = Agent(AgentConfig(host_path=ResourcePath.parse(host),
                                      sensors=[_synth_spec(period=30, jitter=0.1)],
                                      importer_endpoint="imp:1", seed=3),
                          SimClock(EPOCH_MS), dial=None)
            out = []
            for _ in range(20):
                now = agent.schedule.next_due_time()
                out.append(now)
                agent.schedule.mark_run("synth", now)
            return out

        assert trace("bnl/farm/n1") == trace("bnl/farm/n1")
        assert trace("bnl/farm/n1") != trace("bnl/farm/n2")


class TestSpool:
    def test_drop_oldest(self):
        ring = SpoolRing(capacity=3)
        batch = [make_sample(ts=EPOCH_MS + i) for i in range(5)]
        for s in batch:
            ring.put(s)
        assert ring.dropped == 2
        assert ring.drain() == batch[2:]  # newest three retained

    def test_drain_clears(self):
        ring = SpoolRing(capacity=2)
        ring.put(make_sample())
        assert len(ring.drain()) == 1
        assert len(ring) == 0


class _FlakyNet:
    """Dial helper whose importer link can be cut."""

    def __init__(self, importer):
        self.importer = importer
        self.up = True

    def dial(self, endpoint, timeout=None):
        if not self.up:
            raise ConnectionRefusedError("importer down")
        return connect_memory(self.importer.server)


def _make_agent(clock, net, spool=16, period=30, jitter=0.0):
    config = AgentConfig(
        host_path=HOST,
        sensors=[_synth_spec(period=period, jitter=jitter)],
        importer_endpoint="imp:1",
        seed=3,
        spool_capacity=spool,
        emit_self_metrics=False,
    )
    return Agent(config, clock, dial=net.dial)


class TestPublish:
    def test_live_session_delivers_all(self, clock):
        importer = Importer(MemoryStore(), clock)
        net = _FlakyNet(importer)
        agent = _make_agent(clock, net)
        samples = [make_sample(ts=clock.now() + i) for i in range(5)]
        assert agent.publish(samples) == 5
        assert importer.counters.ingested == 5

    def test_disconnected_spools_with_drop_oldest(self, clock):
        importer = Importer(MemoryStore(), clock)
        net = _FlakyNet(importer)
        net.up = False
        agent = _make_agent(clock, net, spool=3)
        samples = [make_sample(ts=clock.now() + i) for i in range(5)]
        assert agent.publish(samples) == 0
        assert len(agent.spool) == 3
        assert agent.counters.dropped == 2

    def test_reconnect_flushes_exactly_once(self, clock):
        importer = Importer(MemoryStore(), clock)
        net = _FlakyNet(importer)
        agent = _make_agent(clock, net, spool=64)
        net.up = False
        first = [make_sample(ts=clock.now() + i) for i in range(4)]
        agent.publish(first)
        net.up = True
        second = [make_sample(ts=clock.now() + 10 + i) for i in range(2)]
        agent.publish(second)
        stored = importer.store.range(HOST, "cpu.load1", 1, 2**60)
        assert stored == first + second
        assert importer.counters.duplicates == 0

    def test_accounting_identity_through_outages(self, clock):
        importer = Importer(MemoryStore(), clock)
        net = _FlakyNet(importer)
        agent = _make_agent(clock, net, spool=8, period=30)
        for i in range(40):
            net.up = i % 3 != 1  # importer flaps
            clock.sleep_until(agent.schedule.next_due_time())
            agent.tick(clock.now())
        produced, delivered, spooled, dropped = agent.accounted
        assert produced > 0
        assert produced == delivered + spooled + dropped

    def test_timestamps_non_decreasing_per_metric(self, clock):
        importer = Importer(MemoryStore(), clock)
        net = _FlakyNet(importer)
        agent = _make_agent(clock, net, spool=64, jitter=0.3)
        net.up = False
        for _ in range(5):
            clock.sleep_until(agent.schedule.next_due_time())
            agent.tick(clock.now())
        net.up = True
        clock.sleep_until(agent.schedule.next_due_time())
        agent.tick(clock.now())
        seen = {}
        for s in importer.store.range(HOST, "cpu.load1", 1, 2**60):
            assert s.timestamp >= seen.get(s.metric, 0)
            seen[s.metric] = s.timestamp


class TestAgentTick:
    def test_synthetic_streams_are_deterministic(self, clock):
        def run_stream():
            c = SimClock(EPOCH_MS)
            importer = Importer(MemoryStore(), c)
            net = _FlakyNet(importer)
            agent = _make_agent(c, net)
            for _ in range(10):
                c.sleep_until(agent.schedule.next_due_time())
                agent.tick(c.now())
            return [encode_sample(s) for s in importer.store.range(HOST, "cpu.load1", 1, 2**60)]

        assert run_stream() == run_stream()

    def test_latest_map_serves_queries(self, clock):
        importer = Importer(MemoryStore(), clock)
        net = _FlakyNet(importer)
        agent = _make_agent(clock, net)
        clock.sleep_until(agent.schedule.next_due_time())
        agent.tick(clock.now())
        assert agent.latest("cpu.load1") is not None
        assert agent.on_query_latest(HOST, "cpu.load1", 0).sample == agent.latest("cpu.load1")
        assert agent.on_query_latest(ResourcePath.parse("uta/x"), "cpu.load1", 0).absent

    def test_self_metrics_exported(self, clock):
        importer = Importer(MemoryStore(), clock)
        net = _FlakyNet(importer)
        config = AgentConfig(
            host_path=HOST, sensors=[_synth_spec()], importer_endpoint="imp:1",
            emit_self_metrics=True)
        agent = Agent(config, clock, dial=net.dial, cpu_time_ms=lambda: 0.0)
        clock.sleep_until(agent.schedule.next_due_time())
        agent.tick(clock.now())
        assert agent.latest("agent.overhead") is not None
        assert agent.latest("agent.dropped_samples").value == 0
        assert agent.latest("agent.sensor_errors").value == 0


class TestOverheadLedger:
    def test_fraction(self):
        clock = SimClock(1000)
        cpu = iter([0.0, 50.0, 50.0, 50.0])
        ledger = OverheadLedger(clock, cpu_time_ms=lambda: next(cpu))
        clock.sleep_until(clock.now() + 10_000)
        assert ledger.fraction() == pytest.approx(50.0 / 10_000)


@pytest.mark.skipif(not os.path.exists("/proc/loadavg"), reason="needs procfs")
class TestRealSensors:
    def test_cpu_load_matches_system_interface(self):
        readings = dict(read_builtin("cpu_load"))
        assert set(readings) == {"cpu.load1", "cpu.load5", "cpu.load15"}
        # independent read of the same interface, same second
        with open("/proc/loadavg") as fh:
            l1, l5, l15 = (float(x) for x in fh.read().split()[:3])
        assert readings["cpu.load1"] == pytest.approx(l1, abs=0.5)
        assert readings["cpu.load5"] == pytest.approx(l5, abs=0.5)
        assert readings["cpu.load15"] == pytest.approx(l15, abs=0.5)
        assert all(v >= 0 for v in readings.values())

    def test_memory_containment(self):
        readings = dict(read_builtin("memory"))
        assert 0 < readings["mem.used_bytes"] <= readings["mem.total_bytes"]

    def test_uptime_idle(self):
        readings = dict(read_builtin("uptime_idle"))
        assert readings["sys.uptime_s"] > 0
        assert readings["sys.idle_s"] >= 0

    def test_disk_vs_statvfs_oracle(self):
        readings = dict(read_builtin("disk", {"mount": "/"}))
        sv = os.statvfs("/")
        total = sv.f_blocks * sv.f_frsize
        assert readings["disk.total_bytes"] == pytest.approx(total, rel=0.01)
        assert 0 <= readings["disk.used_bytes"] <= readings["disk.total_bytes"]

    def test_net_rtt_loopback(self, clock):
        from fabmon.wire.channel import TcpWireServer, tcp_dial
        from fabmon.wire.session import WireHandler, WireServer

        server = TcpWireServer(WireServer(WireHandler(), clock, name="peer")).start()
        try:
            # the reading is one dial + HELLO, so it fits inside the call that
            # made it; a wall-clock bound would fail on a loaded machine
            start = time.perf_counter()
            readings = dict(read_builtin(
                "net_rtt", {"peer": server.endpoint, "dial": tcp_dial}))
            elapsed_ms = (time.perf_counter() - start) * 1000.0
            assert 0 < readings["net.rtt_ms"] <= elapsed_ms
        finally:
            server.stop()

    def test_unknown_kind(self):
        with pytest.raises(SensorUnavailable):
            read_builtin("quantum_flux")


class TestSyntheticSensors:
    def test_same_shapes_as_real(self):
        assert set(BUILTIN_METRICS) == {"cpu_load", "memory", "disk", "uptime_idle", "net_rtt"}
        for kind, metrics in BUILTIN_METRICS.items():
            readings = [(m, synthetic_value("bnl/farm/n1", m, EPOCH_MS, 1)) for m in metrics]
            assert readings, kind
            assert all(isinstance(v, float) for _, v in readings), kind
            metric_names = [m for m, _ in readings]
            assert len(metric_names) == len(set(metric_names))

    def test_memory_containment(self):
        readings = {m: synthetic_value("bnl/farm/n1", m, EPOCH_MS, 1)
                    for m in BUILTIN_METRICS["memory"]}
        assert readings["mem.used_bytes"] <= readings["mem.total_bytes"]


class TestExternalSensors:
    def test_valid_record_restamped(self, tmp_path):
        line = encode_sample(make_sample(path="other/host", value=7)).decode().strip()
        samples, bad = run_external(
            [sys.executable, "-c", f"print('{line}')"], timeout=10, host_path=HOST)
        assert bad == 0
        assert len(samples) == 1
        assert samples[0].path == HOST  # re-stamped with the agent's own path
        assert samples[0].value == 7

    def test_nonzero_exit_is_read_failure(self):
        with pytest.raises(ReadFailure):
            run_external([sys.executable, "-c", "import sys; sys.exit(1)"],
                         timeout=10, host_path=HOST)

    def test_garbage_lines_skipped_and_counted(self):
        line = encode_sample(make_sample(value=1)).decode().strip()
        code = f"print('{line}'); print('not a record')"
        samples, bad = run_external([sys.executable, "-c", code], timeout=10, host_path=HOST)
        assert len(samples) == 1
        assert bad == 1

    def test_timeout(self):
        with pytest.raises(ReadFailure):
            run_external([sys.executable, "-c", "import time; time.sleep(30)"],
                         timeout=0.5, host_path=HOST)

    def test_relative_command_rejected_at_spec(self):
        with pytest.raises(ValueError):
            SensorSpec(id="x", source="external", metrics=[], command=["./relative"])

    def test_agent_counts_external_errors(self, clock):
        importer = Importer(MemoryStore(), clock)
        net = _FlakyNet(importer)
        line = encode_sample(make_sample(value=1)).decode().strip()
        spec = SensorSpec(
            id="ext", source="external", metrics=[],
            command=[sys.executable, "-c", f"print('{line}'); print('garbage')"],
            period=30)
        config = AgentConfig(host_path=HOST, sensors=[spec], importer_endpoint="imp:1",
                             emit_self_metrics=False)
        agent = Agent(config, clock, dial=net.dial)
        clock.sleep_until(agent.schedule.next_due_time())
        agent.tick(clock.now())
        assert agent.counters.produced == 1
        assert agent.counters.sensor_errors == 1


class TestAgentValidation:
    def test_duplicate_metric_names_rejected(self, clock):
        spec_a = _synth_spec(metrics=("cpu.load1",))
        spec_b = SensorSpec(
            id="other", source="synthetic", period=30,
            metrics=[MetricDescriptor(name="cpu.load1", default_period=30)])
        config = AgentConfig(host_path=HOST, sensors=[spec_a, spec_b])
        with pytest.raises(ValueError, match="unique"):
            Agent(config, clock)


class TestDefaultSpecs:
    def test_default_set(self):
        specs = default_sensor_specs(period=30)
        assert [s.source for s in specs] == ["cpu_load", "memory", "disk", "uptime_idle"]
        specs = default_sensor_specs(period=30, include_net=True)
        assert "net_rtt" in [s.source for s in specs]

    def test_metric_ttls(self):
        spec = default_sensor_specs(period=30)[0]
        assert spec.metric_ttl("cpu.load1") == 90


class TestDeregisterOnStop:
    def _agent(self, clock, dial, ttl=120):
        config = AgentConfig(host_path=HOST, sensors=[_synth_spec()],
                             directory_endpoint="dir:1", listen_endpoint="agent:1",
                             registration_ttl=ttl, emit_self_metrics=False)
        return Agent(config, clock, dial=dial)

    def test_stop_drops_the_lease_at_once(self, clock):
        directory = DirectoryService(clock, lambda ep: None, name="dir")
        agent = self._agent(clock, lambda ep: connect_memory(directory.server))
        agent.tick(clock.now())
        assert [e["endpoint"] for e in directory.registry_dump()] == ["agent:1"]
        agent.stop()  # well inside the 120 s lease
        assert directory.registry_dump() == []

    def test_stop_with_directory_down_is_quiet_and_quick(self, clock):
        directory = DirectoryService(clock, lambda ep: None, name="dir")
        up = {"dir": True}

        def dial(endpoint):
            if not up["dir"]:
                raise ConnectionRefusedError("directory down")
            return connect_memory(directory.server)

        agent = self._agent(clock, dial)
        agent.tick(clock.now())
        up["dir"] = False
        started = time.monotonic()
        agent.stop()  # logs and swallows the refused dial
        assert time.monotonic() - started < 1.0
        assert len(directory.registry_dump()) == 1  # left to expire with its lease

    def test_no_directory_session_held_between_ticks(self, clock):
        directory = DirectoryService(clock, lambda ep: None, name="dir")
        dials = []

        def dial(endpoint):
            dials.append(endpoint)
            return connect_memory(directory.server)

        agent = self._agent(clock, dial, ttl=60)  # the lease reads its ttl once
        for _ in range(3):  # the lease is renewed every half ttl
            agent.tick(clock.now())
            assert directory.server.connections() == []
            clock.sleep_until(clock.now() + 31_000)
        assert dials == ["dir:1"] * 3
        assert [e["endpoint"] for e in directory.registry_dump()] == ["agent:1"]

    def test_never_registered_sends_nothing(self, clock):
        dials = []
        agent = self._agent(clock, lambda ep: dials.append(ep))
        agent.stop()
        assert dials == []
