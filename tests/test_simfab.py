from __future__ import annotations

import itertools
import time
from pathlib import Path

import pytest

from fabmon.agent.synthetic import plausible_range, synthetic_value
from fabmon.core import ResourcePath, SimClock
from fabmon.simfab import FaultSpec, SimConfig, run_sim
from fabmon.simfab.fabric import SIM_EPOCH_MS, SimNetwork
from fabmon.wire import ConnectionLost, WireClient, WireServer
from fabmon.wire.session import WireHandler


class TestSyntheticGenerator:
    def test_same_inputs_same_value(self):
        a = synthetic_value("site1/farm/node0001", "cpu.util", 12345, 42)
        b = synthetic_value("site1/farm/node0001", "cpu.util", 12345, 42)
        assert a == b

    def test_inputs_change_value(self):
        base = synthetic_value("h1", "cpu.util", 1000, 1)
        assert base != synthetic_value("h2", "cpu.util", 1000, 1)
        assert base != synthetic_value("h1", "cpu.util", 2000, 1)
        assert base != synthetic_value("h1", "cpu.util", 1000, 2)

    @pytest.mark.parametrize("metric", ["cpu.load1", "cpu.util", "mem.used_bytes",
                                        "net.rtt_ms", "sys.uptime_s", "sys.idle_s"])
    def test_bounds_over_ten_thousand_ticks(self, metric):
        lo, hi = plausible_range(metric)
        for tick in range(0, 10_000 * 30_000, 30_000):  # 10^4 scheduled reads
            v = synthetic_value("site1/farm/node0001", metric, SIM_EPOCH_MS + tick, 7)
            assert lo <= v <= hi, (metric, tick, v)

    def test_idle_below_uptime(self):
        for tick in range(0, 100 * 30_000, 30_000):
            up = synthetic_value("h1", "sys.uptime_s", SIM_EPOCH_MS + tick, 3)
            idle = synthetic_value("h1", "sys.idle_s", SIM_EPOCH_MS + tick, 3)
            assert 0 <= idle <= up


class TestConfig:
    def test_partition(self):
        cfg = SimConfig(n_hosts=10, n_sites=3)
        sites = {cfg.site_of(i) for i in range(10)}
        assert sites == {"site1", "site2", "site3"}
        assert cfg.host_path(0) == "site1/farm/node0000"

    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(n_hosts=2, n_sites=5)
        with pytest.raises(ValueError):
            SimConfig(duration_s=60, faults=(
                FaultSpec(kind="host_down", target="site1", t0_ms=0, t1_ms=120_000),))
        with pytest.raises(ValueError):
            FaultSpec(kind="weird", target="site1", t0_ms=0, t1_ms=1)


class TestBaselineRun:
    def test_no_faults_full_accounting(self):
        result = run_sim(SimConfig(n_hosts=10, n_sites=2, duration_s=60, seed=4))
        assert result.produced > 0
        assert result.produced == result.ingested
        assert result.dropped == 0
        assert result.failures == []
        assert result.query_check_failures == 0

    def test_snapshot_host_completeness(self):
        cfg = SimConfig(n_hosts=9, n_sites=3, duration_s=320, probe_period_s=300, seed=2)
        result = run_sim(cfg)
        assert result.cycles >= 1
        for snap in result.snapshots:
            hosts = sorted(h["host"] for s in snap["sites"] for h in s["hosts"])
            assert hosts == sorted(cfg.host_path(i) for i in range(cfg.n_hosts))

    def test_full_determinism(self):
        cfg = SimConfig(n_hosts=8, n_sites=2, duration_s=650, seed=33,
                        probe_period_s=300,
                        faults=(FaultSpec(kind="host_down", target="site1/farm/node0000",
                                          t0_ms=100_000, t1_ms=400_000),))
        assert run_sim(cfg).report_bytes() == run_sim(cfg).report_bytes()

    def test_golden_report_bytes(self):
        # written by an earlier commit; a change that alters these bytes
        # rewrites tests/golden/sim_report.json and says why
        cfg = SimConfig(n_hosts=60, n_sites=4, duration_s=900, seed=5)
        golden = Path(__file__).parent / "golden" / "sim_report.json"
        assert run_sim(cfg).report_bytes() == golden.read_bytes()

    def test_report_ignores_wall_clock(self, monkeypatch):
        cfg = SimConfig(n_hosts=4, n_sites=2, duration_s=320, seed=33, probe_period_s=300)
        expected = run_sim(cfg).report_bytes()
        ticks = itertools.count()
        monkeypatch.setattr(time, "perf_counter", lambda: next(ticks) * 0.007)  # 7 ms a call
        assert run_sim(cfg).report_bytes() == expected


class TestFaults:
    def test_held_session_fails_while_host_down(self):
        host = "site1/farm/node0000"
        cfg = SimConfig(n_hosts=2, n_sites=2, duration_s=600, faults=(
            FaultSpec(kind="host_down", target=host, t0_ms=100_000, t1_ms=200_000),))
        clock = SimClock(SIM_EPOCH_MS)
        network = SimNetwork(clock, cfg)
        network.add("agent:1", WireServer(WireHandler(), clock), host=host)
        client = WireClient(network.dial("agent:1"), role="consumer")
        clock.sleep_until(clock.now() + 150_000)
        with pytest.raises(ConnectionLost):
            client.query_latest(ResourcePath.parse(host), "cpu.load1")
        with pytest.raises(ConnectionRefusedError):
            network.dial("agent:1")

    def test_host_down_visible_within_one_cycle(self):
        period = 120
        fault = FaultSpec(kind="host_down", target="site1/farm/node0000",
                          t0_ms=150_000, t1_ms=600_000)
        cfg = SimConfig(n_hosts=4, n_sites=2, duration_s=600, seed=6,
                        probe_period_s=period, faults=(fault,))
        result = run_sim(cfg)
        assert result.failures == []
        down_host = "site1/farm/node0000"
        for snap in result.snapshots:
            rel_start = snap["started_at"] - SIM_EPOCH_MS
            statuses = {h["host"]: h["status"] for s in snap["sites"] for h in s["hosts"]}
            if fault.t0_ms <= rel_start < fault.t1_ms:
                assert statuses[down_host] == "unreachable", rel_start
            elif rel_start < fault.t0_ms:
                assert statuses[down_host] == "pass", rel_start
        in_window = [s for s in result.snapshots
                     if fault.t0_ms <= s["started_at"] - SIM_EPOCH_MS < fault.t1_ms]
        assert in_window, "no probe cycle fell inside the fault window"

    def test_host_down_does_not_disturb_others(self):
        fault = FaultSpec(kind="host_down", target="site1/farm/node0000",
                          t0_ms=100_000, t1_ms=500_000)
        cfg = SimConfig(n_hosts=4, n_sites=2, duration_s=600, seed=6,
                        probe_period_s=120, faults=(fault,))
        result = run_sim(cfg)
        for snap in result.snapshots:
            for site in snap["sites"]:
                for host in site["hosts"]:
                    if host["host"] != "site1/farm/node0000":
                        assert host["status"] == "pass"

    def test_out_of_range_values_only_in_window(self):
        fault = FaultSpec(kind="out_of_range", target="site1/farm/node0000",
                          t0_ms=120_000, t1_ms=240_000)
        cfg = SimConfig(n_hosts=2, n_sites=2, duration_s=360, seed=8,
                        period_s=30, probe_period_s=120, faults=(fault,))
        store_probe = []

        from fabmon.archive.store import MemoryStore

        store = MemoryStore()
        result = run_sim(cfg, store=store)
        assert result.failures == []
        from fabmon.core import ResourcePath

        lo, hi = plausible_range("cpu.util")
        for s in store.range(ResourcePath.parse("site1/farm/node0000"), "cpu.util", 1, 2**60):
            rel = s.timestamp - SIM_EPOCH_MS
            if fault.t0_ms <= rel < fault.t1_ms:
                assert not lo <= s.value <= hi, rel
            else:
                assert lo <= s.value <= hi, rel

    def test_out_of_range_downgrades_via_rules(self):
        fault = FaultSpec(kind="out_of_range", target="site1/farm/node0000",
                          t0_ms=60_000, t1_ms=400_000)
        cfg = SimConfig(n_hosts=2, n_sites=2, duration_s=400, seed=8,
                        probe_period_s=120, faults=(fault,))
        result = run_sim(cfg)
        flagged = [
            h["status"]
            for snap in result.snapshots
            if fault.t0_ms <= snap["started_at"] - SIM_EPOCH_MS < fault.t1_ms
            for s in snap["sites"]
            for h in s["hosts"]
            if h["host"] == "site1/farm/node0000"
        ]
        assert flagged and all(st == "warn" for st in flagged)

    def test_stale_metrics_fail_freshness(self):
        fault = FaultSpec(kind="stale_metrics", target="site2",
                          t0_ms=60_000, t1_ms=600_000)
        cfg = SimConfig(n_hosts=4, n_sites=2, duration_s=600, seed=10,
                        period_s=30, probe_period_s=150, faults=(fault,))
        result = run_sim(cfg)
        late = [s for s in result.snapshots
                if s["started_at"] - SIM_EPOCH_MS >= fault.t0_ms +
                3 * cfg.period_s * 1000]
        assert late, "need a cycle after staleness exceeds the freshness horizon"
        for snap in late:
            for site in snap["sites"]:
                if site["site"] == "site2":
                    assert site["status"] == "fail"

    @staticmethod
    def _slow_host_statuses(connect_ms: float) -> list[str]:
        """The slow host's status in each cycle inside its slow_endpoint window."""
        fault = FaultSpec(kind="slow_endpoint", target="site1/farm/node0000",
                          t0_ms=60_000, t1_ms=400_000, parameter=connect_ms)
        cfg = SimConfig(n_hosts=2, n_sites=2, duration_s=400, seed=12,
                        probe_period_s=120, faults=(fault,))
        result = run_sim(cfg)
        assert result.failures == []
        return [
            h["status"]
            for snap in result.snapshots
            if fault.t0_ms <= snap["started_at"] - SIM_EPOCH_MS < fault.t1_ms
            for s in snap["sites"]
            for h in s["hosts"]
            if h["host"] == "site1/farm/node0000"
        ]

    def test_slow_endpoint_times_out_probe(self):
        in_window = self._slow_host_statuses(20_000)  # past the 5 s connect timeout
        assert in_window and all(st == "unreachable" for st in in_window)

    def test_slow_endpoint_within_timeout_passes(self):
        in_window = self._slow_host_statuses(4_000)
        assert in_window and all(st == "pass" for st in in_window)


class TestShadowChecks:
    def test_queries_checked_and_clean(self):
        result = run_sim(SimConfig(n_hosts=6, n_sites=2, duration_s=650,
                                   probe_period_s=300, seed=21))
        assert result.query_checks > 0
        assert result.query_check_failures == 0
        assert result.rollup_failures == 0
