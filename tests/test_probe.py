from __future__ import annotations

import json
import os
import random
import socket
import threading
import time

import pytest

from conftest import EPOCH_MS, make_sample
from fabmon.core import ResourcePath, Status, SystemClock, combine_status
from fabmon.directory import DirectoryService
from fabmon.probe import (
    ConsistencyRule,
    HostSpec,
    IoFailure,
    ProbeConfig,
    ProbeRunner,
    StepSpec,
    consistency_check,
    publish_snapshot,
)
from fabmon.probe.runner import TestStep as ProbeStep
from fabmon.probe.snapshot import TRANSCRIPT_GRACE_S, snapshot_bytes, verify_rollups
from fabmon.wire import WireServer, connect_memory, tcp_dial
from fabmon.wire.session import LatestResult, WireHandler
from golden_fixtures import fixed_snapshot

P = ResourcePath.parse


class _Net:
    def __init__(self):
        self.servers = {}
        self.down = set()
        self.dials = {}
        self._lock = threading.Lock()

    def add(self, endpoint, server):
        self.servers[endpoint] = server

    def dial(self, endpoint, timeout=None):
        with self._lock:  # the probe dials from its worker threads
            self.dials[endpoint] = self.dials.get(endpoint, 0) + 1
        if endpoint in self.down or endpoint not in self.servers:
            raise ConnectionRefusedError(f"{endpoint} refused")
        return connect_memory(self.servers[endpoint])


class _AgentStub(WireHandler):
    def __init__(self, path, samples):
        self.path = path
        self.samples = samples  # metric -> MetricSample

    def on_query_latest(self, path, metric, hops):
        if path == self.path:
            return LatestResult(self.samples.get(metric), source="agent")
        return LatestResult(None, source="agent")


def _fabric(clock, hosts, metrics=("cpu.load1",), rules=None, sequence=None):
    """Directory + one agent stub per host, all in memory."""
    net = _Net()
    directory = DirectoryService(clock, net.dial, name="dir")
    net.add("dir:1", directory.server)
    sites = {}
    for host_text in hosts:
        path = P(host_text)
        endpoint = f"{host_text}:9810"
        samples = {
            m: make_sample(path=host_text, metric=m, ts=clock.now(), value=0.5)
            for m in metrics
        }
        net.add(endpoint, WireServer(_AgentStub(path, samples), clock))
        directory.registry.register(path, "agent", endpoint, 6000, clock.now())
        sites.setdefault(path.site, []).append(HostSpec(path=path, endpoint=endpoint))
    config = ProbeConfig(
        sites=sites,
        sequence=sequence or [
            StepSpec(kind="tcp_connect", name="connect"),
            StepSpec(kind="directory_query", name="lookup", params={"metric": "cpu.load1"}),
            StepSpec(kind="latest_freshness", name="freshness",
                     params={"metric": "cpu.load1", "max_age_s": 90}),
        ],
        rules=rules or [],
        directory_endpoint="dir:1",
        fanout=1,
    )
    runner = ProbeRunner(config, clock, dial=net.dial)
    return net, directory, runner


class TestSequence:
    def test_all_pass(self, clock):
        net, _, runner = _fabric(clock, ["bnl/farm/n1"])
        report = runner.run_test_sequence(runner.config.sites["bnl"][0])
        assert report.combined is Status.PASS
        assert [s.status for s in report.steps] == [Status.PASS] * 3

    def test_connect_failure_short_circuits(self, clock):
        net, _, runner = _fabric(clock, ["bnl/farm/n1"])
        net.down.add("bnl/farm/n1:9810")
        report = runner.run_test_sequence(runner.config.sites["bnl"][0])
        assert report.combined is Status.UNREACHABLE
        assert report.steps[0].status is Status.UNREACHABLE
        assert report.steps[0].transcript == [
            "connect: cannot reach bnl/farm/n1:9810: bnl/farm/n1:9810 refused"]
        for step in report.steps[1:]:
            assert step.status is Status.UNREACHABLE
            assert step.transcript == [f"{step.name}: skipped, host unreachable"]

    def test_absent_expected_metric_fails_with_key(self, clock):
        net, _, runner = _fabric(clock, ["bnl/farm/n1"], metrics=("other.metric",))
        report = runner.run_test_sequence(runner.config.sites["bnl"][0])
        lookup = report.steps[1]
        assert lookup.status is Status.FAIL
        assert any("bnl/farm/n1" in line and "cpu.load1" in line
                   for line in lookup.transcript)

    def test_failed_steps_have_transcripts(self):
        with pytest.raises(ValueError):
            ProbeStep(name="x", status=Status.FAIL, transcript=[], started_at=1, duration_ms=0)


class TestDirectorySessions:
    """The probe holds its directory sessions across hosts and cycles."""

    HOSTS = [f"s{i}/farm/n{j}" for i in range(4) for j in range(10)]

    def test_dials_at_most_fanout_times(self, clock):
        net, _, runner = _fabric(clock, self.HOSTS)
        fanout = 4
        runner.config.fanout = fanout
        for cycle in (1, 2):
            snap = runner.run_cycle(cycle)
            assert {h.combined for s in snap.sites for h in s.hosts} == {Status.PASS}
        assert 1 <= net.dials["dir:1"] <= fanout  # not one per host per cycle
        runner.close()
        assert net.servers["dir:1"].connections() == []

    def test_restarted_directory_is_redialed_once(self, clock):
        net, directory, runner = _fabric(clock, self.HOSTS)
        runner.run_cycle(1)
        assert net.dials["dir:1"] == 1
        restarted = DirectoryService(clock, net.dial, name="dir")
        for entry in directory.registry.live_entries(clock.now()):
            restarted.registry.register(
                entry.subtree, entry.provider_kind, entry.endpoint, 6000, clock.now())
        for conn in directory.server.connections():
            directory.server.detach(conn)
        net.servers["dir:1"] = restarted.server
        snap = runner.run_cycle(2)
        assert {h.combined for s in snap.sites for h in s.hosts} == {Status.PASS}
        assert net.dials["dir:1"] == 2

    def test_refusing_directory_costs_one_dial_per_host(self, clock):
        net, _, runner = _fabric(clock, self.HOSTS)
        net.down.add("dir:1")
        snap = runner.run_cycle(1)
        assert net.dials["dir:1"] == len(self.HOSTS)
        for host in (h for s in snap.sites for h in s.hosts):
            lookup = host.steps[1]
            assert lookup.status is Status.FAIL
            assert any("dir:1 refused" in line for line in lookup.transcript), lookup.transcript


class TestConnect:
    """The connect step opens and closes one channel through the probe's dial."""

    def test_each_agent_dialed_once_per_cycle(self, clock):
        hosts = [f"s{i}/farm/n{j}" for i in range(4) for j in range(10)]
        net, _, runner = _fabric(clock, hosts)
        down = {f"s{i}/farm/n{i * 3}:9810" for i in range(4)}
        net.down.update(down)
        probe_dials = {}
        lock = threading.Lock()

        def dial(endpoint, timeout=None):
            with lock:
                probe_dials[endpoint] = probe_dials.get(endpoint, 0) + 1
            return net.dial(endpoint, timeout)

        runner.config.fanout = 4
        runner = ProbeRunner(runner.config, clock, dial=dial)
        for cycle in (1, 2):
            snap = runner.run_cycle(cycle)
            for host in (h for s in snap.sites for h in s.hosts):
                endpoint = f"{host.host}:9810"
                assert probe_dials[endpoint] == cycle
                if endpoint in down:
                    assert host.combined is Status.UNREACHABLE
                    assert host.steps[0].transcript == [
                        f"connect: cannot reach {endpoint}: {endpoint} refused"]
                else:
                    assert host.combined is Status.PASS
        runner.close()

    def test_over_tcp(self):
        listener = socket.create_server(("127.0.0.1", 0))
        spare = socket.create_server(("127.0.0.1", 0))
        closed_port = spare.getsockname()[1]
        spare.close()
        up, down = f"127.0.0.1:{listener.getsockname()[1]}", f"127.0.0.1:{closed_port}"
        config = ProbeConfig(
            sites={"lab": [HostSpec(P("lab/farm/up"), up), HostSpec(P("lab/farm/down"), down)]},
            sequence=[StepSpec(kind="tcp_connect", name="connect", timeout=2.0)])
        try:
            snap = ProbeRunner(config, SystemClock(), dial=tcp_dial).run_cycle(1)
            by_host = {str(h.host): h for h in snap.sites[0].hosts}
            assert by_host["lab/farm/up"].combined is Status.PASS
            assert by_host["lab/farm/up"].steps[0].transcript == [f"connect: connected to {up}"]
            refused = by_host["lab/farm/down"].steps[0]
            assert refused.status is Status.UNREACHABLE
            with pytest.raises(OSError) as os_error:  # what the OS says for this port
                socket.create_connection(("127.0.0.1", closed_port), timeout=2.0)
            assert refused.transcript == [f"connect: cannot reach {down}: {os_error.value}"]
            # the check opened one connection, sent nothing on it and closed it
            listener.settimeout(5)
            conn, _ = listener.accept()
            with conn:
                conn.settimeout(5)
                assert conn.recv(1) == b""
        finally:
            listener.close()


class TestConsistency:
    RULES = [
        ConsistencyRule(metric="cpu.util", min_value=0.0, max_value=100.0,
                        on_violation=Status.WARN),
        ConsistencyRule(metric="cpu.load1", min_value=0.0, on_violation=Status.FAIL),
        ConsistencyRule(metric="cpu.load1", max_age_s=90, on_violation=Status.WARN),
    ]

    def test_in_bounds(self):
        v = consistency_check([make_sample(metric="cpu.load1", value=2.5)],
                              self.RULES, now=EPOCH_MS + 1000)
        assert v == []

    def test_bound_breach(self):
        v = consistency_check([make_sample(metric="cpu.util", value=250.0)],
                              self.RULES, now=EPOCH_MS + 1000)
        assert [x.reason for x in v] == ["above_max"]

    def test_age_breach(self):
        v = consistency_check([make_sample(metric="cpu.load1", ts=EPOCH_MS)],
                              self.RULES, now=EPOCH_MS + 91_000)
        assert [x.reason for x in v] == ["too_old"]

    def test_stale_flag_is_auto_violation(self):
        fresh = make_sample(metric="cpu.load1", ts=EPOCH_MS)
        v = consistency_check([(fresh, True)], self.RULES, now=EPOCH_MS + 1)
        assert [x.reason for x in v] == ["stale_flagged"]

    def test_bruteforce_oracle(self):
        rng = random.Random(17)
        metrics = ["m1", "m2", "m3"]
        for _ in range(50):
            rules = []
            for m in metrics:
                if rng.random() < 0.7:
                    lo = rng.choice([None, rng.uniform(-10, 0)])
                    hi = rng.choice([None, rng.uniform(0, 10)])
                    age = rng.choice([None, rng.randint(1, 100)])
                    if lo is None and hi is None and age is None:
                        continue
                    rules.append(ConsistencyRule(
                        metric=m, min_value=lo, max_value=hi, max_age_s=age,
                        on_violation=rng.choice([Status.WARN, Status.FAIL])))
            now = EPOCH_MS + 200_000
            observed = [
                (make_sample(metric=rng.choice(metrics),
                             ts=now - rng.randint(0, 150_000),
                             value=rng.uniform(-15, 15)),
                 rng.random() < 0.2)
                for _ in range(20)
            ]
            got = consistency_check(observed, rules, now)
            expected = []
            for sample, stale in observed:
                for rule in rules:
                    if rule.metric != sample.metric:
                        continue
                    if rule.min_value is not None and sample.value < rule.min_value:
                        expected.append((sample, rule, "below_min"))
                    if rule.max_value is not None and sample.value > rule.max_value:
                        expected.append((sample, rule, "above_max"))
                    if rule.max_age_s is not None:
                        if stale:
                            expected.append((sample, rule, "stale_flagged"))
                        elif now - sample.timestamp > rule.max_age_s * 1000:
                            expected.append((sample, rule, "too_old"))
            assert [(v.sample, v.rule, v.reason) for v in got] == expected

    def test_rule_validation(self):
        with pytest.raises(ValueError):
            ConsistencyRule(metric="m", min_value=5.0, max_value=1.0)
        with pytest.raises(ValueError):
            ConsistencyRule(metric="m")
        with pytest.raises(ValueError):
            ConsistencyRule(metric="m", min_value=0.0, on_violation=Status.UNREACHABLE)

    def test_violation_downgrades_host(self, clock):
        rules = [ConsistencyRule(metric="cpu.util", max_value=100.0, on_violation=Status.WARN)]
        net, _, runner = _fabric(
            clock, ["bnl/farm/n1"], metrics=("cpu.load1", "cpu.util"), rules=rules,
            sequence=[StepSpec(kind="tcp_connect", name="connect"),
                      StepSpec(kind="consistency", name="consistency")])
        agent = net.servers["bnl/farm/n1:9810"].handler
        agent.samples["cpu.util"] = make_sample(
            path="bnl/farm/n1", metric="cpu.util", ts=clock.now(), value=250.0)
        report = runner.run_test_sequence(runner.config.sites["bnl"][0])
        assert report.combined is Status.WARN
        assert any("violation" in line for line in report.steps[1].transcript)


class TestCycle:
    def test_eight_sites_eight_reports(self, clock):
        hosts = [f"site{i}/farm/n{j}" for i in range(1, 9) for j in range(2)]
        _, _, runner = _fabric(clock, hosts)
        snapshot = runner.run_cycle(1)
        assert len(snapshot.sites) == 8
        assert sorted(s.site for s in snapshot.sites) == [f"site{i}" for i in range(1, 9)]

    def test_down_site_isolated(self, clock):
        net, _, runner = _fabric(clock, ["bnl/farm/n1", "uta/farm/n1"])
        net.down.add("uta/farm/n1:9810")
        snapshot = runner.run_cycle(1)
        by_site = {s.site: s.combined for s in snapshot.sites}
        assert by_site["uta"] is Status.UNREACHABLE
        assert by_site["bnl"] is Status.PASS

    def test_cycle_completeness_under_faults(self, clock):
        hosts = [f"s{i}/farm/n{j}" for i in range(3) for j in range(4)]
        net, _, runner = _fabric(clock, hosts)
        net.down.update({"s1/farm/n1:9810", "s2/farm/n3:9810"})
        snapshot = runner.run_cycle(1)
        seen = sorted(str(h.host) for s in snapshot.sites for h in s.hosts)
        assert seen == sorted(hosts)

    def test_identical_cycles_on_unchanged_fabric(self, clock):
        _, _, runner = _fabric(clock, ["bnl/farm/n1", "bnl/farm/n2"])

        def statuses(cycle):
            sites = runner.run_cycle(cycle).to_dict()["sites"]
            return [(h["host"], h["status"]) for site in sites for h in site["hosts"]]

        one = statuses(1)
        assert len(one) == 2 and one == statuses(2)

    def test_rollup_coherence_random_snapshots(self, clock):
        rng = random.Random(3)
        hosts = [f"s{i}/farm/n{j}" for i in range(4) for j in range(3)]
        net, _, runner = _fabric(clock, hosts)
        for h in hosts:
            if rng.random() < 0.4:
                net.down.add(f"{h}:9810")
        snap = runner.run_cycle(1)
        assert verify_rollups(snap.to_dict()) == []
        for site in snap.sites:
            assert site.combined == combine_status(h.combined for h in site.hosts)
            for host in site.hosts:
                assert host.combined == combine_status(s.status for s in host.steps)


class TestPublish:
    def test_golden_schema_bytes(self, tmp_path):
        snap = fixed_snapshot()
        publish_snapshot(snap, tmp_path)
        got = (tmp_path / "snapshot.json").read_bytes()
        golden = os.path.join(os.path.dirname(__file__), "golden", "snapshot.json")
        assert got == open(golden, "rb").read()

    def test_rotation_keeps_previous(self, tmp_path):
        snap = fixed_snapshot()
        publish_snapshot(snap, tmp_path)
        first = (tmp_path / "snapshot.json").read_bytes()
        snap2 = fixed_snapshot()
        snap2.cycle = 8
        publish_snapshot(snap2, tmp_path)
        assert (tmp_path / "snapshot.prev.json").read_bytes() == first
        assert b'"cycle": 8' in (tmp_path / "snapshot.json").read_bytes()

    def test_transcripts_written(self, tmp_path):
        publish_snapshot(fixed_snapshot(), tmp_path)
        ref = tmp_path / "transcripts" / "uta" / "farm" / "n1" / "7.txt"
        text = ref.read_text()
        assert "connect: cannot reach" in text
        assert "skipped, host unreachable" in text

    def test_transcripts_pruned_to_the_two_published_cycles(self, tmp_path):
        aged = time.time() - TRANSCRIPT_GRACE_S - 1
        for cycle in range(7, 12):
            # each earlier cycle is past its grace, as 300 s probe cycles are
            for dirpath, _dirs, files in os.walk(tmp_path / "transcripts"):
                for name in files:
                    os.utime(os.path.join(dirpath, name), (aged, aged))
            snap = fixed_snapshot()
            snap.cycle = cycle
            publish_snapshot(snap, tmp_path)
        hosts = ["bnl/farm/n1", "bnl/farm/n2", "uta/farm/n1"]
        for host in hosts:
            assert sorted(os.listdir(tmp_path / "transcripts" / host)) == ["10.txt", "11.txt"]
        for name in ("snapshot.json", "snapshot.prev.json"):
            doc = json.loads((tmp_path / name).read_bytes())
            refs = [step["transcript_ref"] for site in doc["sites"]
                    for host in site["hosts"] for step in host["steps"]]
            assert refs and all((tmp_path / ref).is_file() for ref in refs)

    def test_unreferenced_transcripts_kept_within_their_grace(self, tmp_path):
        for cycle in range(7, 12):
            snap = fixed_snapshot()
            snap.cycle = cycle
            publish_snapshot(snap, tmp_path)
        names = os.listdir(tmp_path / "transcripts" / "bnl" / "farm" / "n1")
        assert sorted(names) == [f"{c}.txt" for c in (10, 11, 7, 8, 9)]

    def test_unwritable_target_raises_keeps_old(self, tmp_path):
        publish_snapshot(fixed_snapshot(), tmp_path)
        before = (tmp_path / "snapshot.json").read_bytes()
        # obstruct the temp path so the write fails before any rotation
        (tmp_path / "snapshot.json.tmp").mkdir()
        with pytest.raises(IoFailure):
            publish_snapshot(fixed_snapshot(), tmp_path)
        assert (tmp_path / "snapshot.json").read_bytes() == before
        assert not (tmp_path / "snapshot.prev.json").exists()

    def test_reader_never_sees_snapshot_missing(self, tmp_path):
        publish_snapshot(fixed_snapshot(), tmp_path)
        stop = threading.Event()
        reads, faults = [], []

        def reader():
            while not stop.is_set():
                try:
                    doc = json.loads((tmp_path / "snapshot.json").read_bytes())
                except FileNotFoundError:
                    faults.append("snapshot.json missing")
                    continue
                reads.append(doc["cycle"])
                for site in doc["sites"]:
                    for host in site["hosts"]:
                        for step in host["steps"]:
                            if not (tmp_path / step["transcript_ref"]).exists():
                                faults.append(f"missing {step['transcript_ref']}")

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            for cycle in range(8, 208):
                snap = fixed_snapshot()
                snap.cycle = cycle
                publish_snapshot(snap, tmp_path)
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert reads and faults == []
        assert json.loads((tmp_path / "snapshot.prev.json").read_bytes())["cycle"] == 206

    def test_serialization_is_stable(self):
        a = snapshot_bytes(fixed_snapshot().to_dict())
        b = snapshot_bytes(fixed_snapshot().to_dict())
        assert a == b

    def test_verify_rollups_catches_mismatch(self):
        snap = fixed_snapshot().to_dict()
        snap["sites"][0]["status"] = "pass"  # actually fail
        assert verify_rollups(snap)
