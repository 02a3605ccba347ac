"""Acceptance suite: one test per release criterion, at its stated tolerance.

Run with `pytest tests/test_acceptance.py -s` to see one PASS/FAIL line per
criterion. The non-intrusiveness criterion samples a real agent for five
wall-clock minutes, so the full suite takes a little over that.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import random
import socket
import subprocess
import sys
import time

import pytest

from conftest import EPOCH_MS, make_sample
from fabmon.core import (
    MetricSample,
    ResourcePath,
    Status,
    SystemClock,
    combine_status,
)
from fabmon.agent import Agent, default_sensor_specs
from fabmon.agent.daemon import AgentConfig
from fabmon.archive import FileSegmentStore, Importer, MemoryStore
from fabmon.directory.registry import Registry
from fabmon.probe.checks import ConsistencyRule, consistency_check
from fabmon.simfab import FaultSpec, SimConfig, run_sim
from fabmon.simfab.fabric import SIM_EPOCH_MS
from fabmon.surface.httpd import SurfaceConfig, SurfaceServer
from fabmon.surface.textview import render_text_status
from fabmon.wire.channel import TcpWireServer, tcp_dial
from fabmon.wire.client import WireClient
from fabmon.wire.codec import decode_sample, decode_wire_line, encode_message, encode_sample
from golden_fixtures import fixed_snapshot
from test_wire import messages

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

P = ResourcePath.parse


@contextlib.contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"\ncriterion {number} ({name}): FAIL", file=sys.stderr)
        raise
    print(f"\ncriterion {number} ({name}): PASS", file=sys.stderr)


def test_01_scale_run_1100_nodes():
    with criterion(1, "scale run, 1100 nodes / 8 sites / 30 simulated minutes"):
        config = SimConfig(
            n_hosts=1100, n_sites=8,
            metrics=("cpu.load1", "cpu.util", "mem.used_bytes", "sys.uptime_s", "net.rtt_ms"),
            period_s=30, duration_s=1800, probe_period_s=300, seed=2026)
        started = time.monotonic()
        result = run_sim(config)
        wall = time.monotonic() - started
        assert result.dropped == 0
        assert result.produced == result.ingested + result.dropped
        assert result.query_check_failures == 0, result.failures
        assert result.rollup_failures == 0, result.failures
        assert result.failures == []
        assert result.cycles >= 5
        assert wall <= 300.0, f"scale run took {wall:.0f}s, budget 300s"


def test_02_agent_overhead_below_one_percent():
    with criterion(2, "agent overhead < 1% over 5 wall-clock minutes"):
        run_seconds = int(os.environ.get("FABMON_OVERHEAD_SECONDS", "300"))
        clock = SystemClock()
        importer = Importer(MemoryStore(), clock)
        server = TcpWireServer(importer.server, "127.0.0.1", 0).start()
        host = P("dev/farm/n1")
        agent = Agent(
            AgentConfig(
                host_path=host,
                sensors=default_sensor_specs(period=30.0),
                importer_endpoint=server.endpoint,
                emit_self_metrics=True,
            ),
            clock,
            dial=tcp_dial,
        )
        import threading

        thread = threading.Thread(target=agent.run, daemon=True)
        thread.start()
        try:
            time.sleep(run_seconds)
        finally:
            agent.stop()
            thread.join(timeout=10)
            server.stop()
        overheads = [
            s.value for s in importer.store.range(host, "agent.overhead", 1, 2**62)
        ]
        assert len(overheads) >= max(1, run_seconds // 35), "agent barely cycled"
        mean = sum(overheads) / len(overheads)
        assert mean < 1.0, f"mean self-measured overhead {mean:.3f}%"
        produced, delivered, spooled, dropped = agent.accounted
        assert produced == delivered + spooled + dropped


def test_03_backend_equivalence_and_partial_record_loss(tmp_path):
    with criterion(3, "memory/file backend equivalence over 10k ops"):
        rng = random.Random(1337)
        mem = MemoryStore()
        fil = FileSegmentStore(tmp_path / "telemetry")
        paths = [P(f"site{i}/farm/n{j}") for i in range(2) for j in range(3)]
        metrics = ["cpu.load1", "mem.used_bytes", "sys.note"]
        appended: list[MetricSample] = []
        day_ms = 86_400_000

        def random_query():
            path = rng.choice(paths)
            metric = rng.choice(metrics)
            t0 = EPOCH_MS + rng.randrange(0, 3 * day_ms)
            t1 = t0 + rng.randrange(0, day_ms)
            assert mem.latest(path, metric) == fil.latest(path, metric)
            assert mem.range(path, metric, t0, t1) == fil.range(path, metric, t0, t1)

        for op in range(10_000):
            if rng.random() < 0.7:
                metric = rng.choice(metrics)
                s = make_sample(
                    path=str(rng.choice(paths)),
                    metric=metric,
                    ts=EPOCH_MS + rng.randrange(0, 3 * day_ms),
                    value="text" if metric == "sys.note" else rng.randrange(10_000),
                )
                got_mem, got_fil = mem.append(s), fil.append(s)
                assert got_mem == got_fil
                if got_mem.name == "OK":
                    appended.append(s)
            else:
                random_query()

        # reopen mid-workload with a torn trailing record
        fil.close()
        victim = appended[-1]
        seg = (tmp_path / "telemetry" / str(victim.path).replace("/", "~")
               / victim.metric / time.strftime("%Y%m%d", time.gmtime(victim.timestamp / 1000)))
        seg = seg.with_suffix(".seg")
        raw = seg.read_bytes()
        assert raw.endswith(encode_sample(victim))
        seg.write_bytes(raw[:-3])  # tear the newest record
        reopened = FileSegmentStore(tmp_path / "telemetry")

        survivors = MemoryStore()
        for s in appended:
            if s != victim:
                survivors.append(s)
        lost = 0
        for path in paths:
            for metric in metrics:
                expect = survivors.range(path, metric, 1, 2**62)
                got = reopened.range(path, metric, 1, 2**62)
                assert got == expect
                assert reopened.latest(path, metric) == survivors.latest(path, metric)
        total_after = sum(
            len(reopened.range(p, m, 1, 2**62)) for p in paths for m in metrics)
        lost = len(appended) - total_after
        assert lost <= 1, f"lost {lost} records to one torn line"
        reopened.close()


def test_04_registration_ttl_semantics():
    with criterion(4, "registration TTL liveness matches brute force"):
        rng = random.Random(777)
        for _ in range(25):
            registry = Registry()
            book = {}
            for i in range(100):
                subtree = P(rng.choice(["bnl", "uta", "bnl/farm", "uta/grid", f"s{i % 11}"]))
                endpoint = f"ep{i}"
                ttl = rng.randint(5, 86_400)
                at = rng.randrange(0, 10_000_000)
                registry.register(subtree, "agent", endpoint, ttl, now=at)
                book[(subtree.components, endpoint)] = at + ttl * 1000
            renew_keys = rng.sample(sorted(book), 20)
            for key in renew_keys:
                subtree = ResourcePath(key[0])
                ttl = rng.randint(5, 86_400)
                at = rng.randrange(0, 20_000_000)
                expires = registry.register(subtree, "agent", key[1], ttl, now=at)
                assert expires == at + ttl * 1000  # renewal extends exactly
                book[key] = expires
            sweep_at = rng.randrange(0, 40_000_000)
            live = {(e.subtree.components, e.endpoint)
                    for e in registry.live_entries(sweep_at)}
            expected = {k for k, expires in book.items() if sweep_at < expires}
            assert live == expected
            removed = {(e.subtree.components, e.endpoint) for e in registry.sweep(sweep_at)}
            assert removed == {k for k, expires in book.items() if sweep_at >= expires}


def test_05_rollup_oracle_exhaustive():
    with criterion(5, "status rollup equals brute-force max, all tuples k<=4"):
        levels = list(Status)
        cases = 0
        for k in range(0, 5):
            for combo in itertools.product(levels, repeat=k):
                expected = max(combo) if combo else Status.UNREACHABLE
                assert combine_status(combo) is expected
                cases += 1
        # 4^1..4^4 = 340 non-empty tuples, plus the empty rollup
        assert cases == 341


def test_06_wire_round_trip_and_golden_fixtures():
    with criterion(6, "wire round-trip, 10k randomized + golden bytes"):
        from hypothesis import HealthCheck, given, settings

        from conftest import samples

        counter = {"n": 0}

        @settings(max_examples=5000, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])
        @given(samples())
        def sample_trip(s):
            counter["n"] += 1
            assert decode_sample(encode_sample(s)) == s

        @settings(max_examples=5000, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])
        @given(messages())
        def message_trip(m):
            counter["n"] += 1
            assert decode_wire_line(encode_message(m)) == m

        sample_trip()
        message_trip()
        assert counter["n"] >= 10_000

        golden = open(os.path.join(GOLDEN, "records.jsonl"), "rb").read().splitlines(True)
        assert len(golden) == 5
        for line in golden:
            assert encode_sample(decode_sample(line)) == line


def test_07_consistency_fault_detection():
    with criterion(7, "out-of-range fault flagged within one probe cycle"):
        fault = FaultSpec(kind="out_of_range", target="site1/farm/node0000",
                          t0_ms=60_000, t1_ms=560_000)
        config = SimConfig(n_hosts=4, n_sites=2, duration_s=600, seed=99,
                           period_s=30, probe_period_s=120, faults=(fault,))
        result = run_sim(config)
        assert result.failures == []
        # every cycle that starts inside the window must already see the breach
        in_window = [
            snap for snap in result.snapshots
            if fault.t0_ms + 30_000 <= snap["started_at"] - SIM_EPOCH_MS < fault.t1_ms
        ]
        assert in_window
        for snap in in_window:
            statuses = {h["host"]: h["status"] for s in snap["sites"] for h in s["hosts"]}
            assert statuses["site1/farm/node0000"] == "warn"  # the rule's on_violation

        # randomized rule evaluation equals the brute-force oracle
        rng = random.Random(4242)
        for _ in range(200):
            rules = []
            for m in ("m1", "m2"):
                lo = rng.choice([None, rng.uniform(-5, 0)])
                hi = rng.choice([None, rng.uniform(0, 5)])
                age = rng.choice([None, rng.randint(1, 50)])
                if lo is None and hi is None and age is None:
                    lo = 0.0  # a rule must bound something
                rules.append(ConsistencyRule(
                    metric=m, min_value=lo, max_value=hi, max_age_s=age,
                    on_violation=rng.choice([Status.WARN, Status.FAIL])))
            now = EPOCH_MS + 100_000
            observed = [
                (make_sample(metric=rng.choice(("m1", "m2", "m3")),
                             ts=now - rng.randint(0, 80_000),
                             value=rng.uniform(-8, 8)),
                 rng.random() < 0.25)
                for _ in range(10)
            ]
            got = consistency_check(observed, rules, now)
            brute = []
            for sample, stale in observed:
                for rule in rules:
                    if rule.metric != sample.metric:
                        continue
                    if rule.min_value is not None and sample.value < rule.min_value:
                        brute.append((sample.timestamp, rule.metric, "below_min"))
                    if rule.max_value is not None and sample.value > rule.max_value:
                        brute.append((sample.timestamp, rule.metric, "above_max"))
                    if rule.max_age_s is not None:
                        if stale:
                            brute.append((sample.timestamp, rule.metric, "stale_flagged"))
                        elif now - sample.timestamp > rule.max_age_s * 1000:
                            brute.append((sample.timestamp, rule.metric, "too_old"))
            assert [(v.sample.timestamp, v.rule.metric, v.reason) for v in got] == brute


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def test_08_live_stack_freshness_and_snapshot(tmp_path):
    with criterion(8, "live TCP stack: fresh query, verbatim /snapshot"):
        period_s = 2
        agent_port, dir_port, imp_port = _free_port(), _free_port(), _free_port()
        admin_port = _free_port()
        host_text = "dev/farm/n1"
        config = {
            "host_path": host_text,
            "endpoints": {
                "agent": f"127.0.0.1:{agent_port}",
                "directory": f"127.0.0.1:{dir_port}",
                "importer": f"127.0.0.1:{imp_port}",
                "directory_http": f"127.0.0.1:{admin_port}",
            },
            "agent": {"period_s": period_s, "registration_ttl_s": 30},
            "importer": {"store": "memory", "subtrees": ["dev"]},
            "directory": {"sweep_period_s": 5},
            "probe": {
                "cycle_period_s": 60,
                "snapshot_dir": str(tmp_path / "snapshots"),
                "sites": {"dev": [
                    {"path": host_text, "endpoint": f"127.0.0.1:{agent_port}"}]},
                "sequence": [
                    {"kind": "tcp_connect", "name": "connect"},
                    {"kind": "latest_freshness", "name": "freshness",
                     "params": {"metric": "cpu.load1", "max_age_s": 3 * period_s}},
                ],
            },
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))

        def spawn(*args):
            return subprocess.Popen(
                [sys.executable, "-m", "fabmon.surface.cli", *args,
                 "--config", str(config_path)],
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)

        procs = [spawn("directory", "run"), spawn("importer", "run"), spawn("agent", "run")]
        try:
            client = None
            deadline = time.time() + 30
            result = None
            while time.time() < deadline:
                try:
                    if client is None:
                        client = WireClient(
                            tcp_dial(f"127.0.0.1:{dir_port}"), role="consumer", name="test")
                    result = client.query_latest(P(host_text), "cpu.load1")
                    if result.sample is not None:
                        break
                except (ConnectionError, OSError, TimeoutError, Exception):
                    client = None
                time.sleep(0.5)
            assert result is not None and result.sample is not None, "stack never produced"

            # freshness: no older than metric period + cache freshness ttl
            freshness_ttl = 3 * period_s
            age_s = (time.time() * 1000 - result.sample.timestamp) / 1000
            assert age_s <= period_s + freshness_ttl, f"sample {age_s:.1f}s old"

            # the CLI path agrees
            proc = subprocess.run(
                [sys.executable, "-m", "fabmon.surface.cli", "query", "latest",
                 host_text, "cpu.load1", "--directory", f"127.0.0.1:{dir_port}"],
                capture_output=True, text=True, timeout=30)
            assert proc.returncode == 0
            assert "cpu.load1 =" in proc.stdout

            # probe one cycle, then serve: /snapshot must be byte-identical
            proc = subprocess.run(
                [sys.executable, "-m", "fabmon.surface.cli", "probe", "run", "--once",
                 "--config", str(config_path)],
                capture_output=True, text=True, timeout=60)
            assert proc.returncode == 0, proc.stderr
            published = (tmp_path / "snapshots" / "snapshot.json").read_bytes()
            surface = SurfaceServer(SurfaceConfig(
                snapshot_dir=str(tmp_path / "snapshots"),
                host="127.0.0.1", port=0)).start()
            try:
                import http.client

                conn = http.client.HTTPConnection(surface.endpoint, timeout=10)
                conn.request("GET", "/snapshot")
                resp = conn.getresponse()
                body = resp.read()
                conn.close()
                assert resp.status == 200
                assert body == published
            finally:
                surface.stop()
            snapshot = json.loads(published)
            statuses = [h["status"] for s in snapshot["sites"] for h in s["hosts"]]
            assert statuses == ["pass"], snapshot
        finally:
            for proc in procs:
                proc.terminate()
            for proc in procs:
                try:
                    proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    proc.kill()


def test_09_snapshot_schema_and_text_render_stability(tmp_path):
    with criterion(9, "snapshot schema and text table are byte-stable"):
        from fabmon.probe.snapshot import publish_snapshot, snapshot_bytes

        golden_snapshot = open(os.path.join(GOLDEN, "snapshot.json"), "rb").read()
        publish_snapshot(fixed_snapshot(), tmp_path)
        assert (tmp_path / "snapshot.json").read_bytes() == golden_snapshot
        assert snapshot_bytes(fixed_snapshot().to_dict()) == golden_snapshot

        golden_text = open(os.path.join(GOLDEN, "status.txt")).read()
        rendered = render_text_status(json.loads(golden_snapshot))
        assert rendered == golden_text
        assert render_text_status(json.loads(golden_snapshot)) == rendered
