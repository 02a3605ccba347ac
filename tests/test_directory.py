from __future__ import annotations

import itertools
import random
import sys
import threading
import time

import pytest

from conftest import EPOCH_MS, make_sample
from fabmon.core import ResourcePath
from fabmon.archive import Importer, MemoryStore
import fabmon.directory.service as service_mod
from fabmon.directory import DirectoryService, InvalidTTL, Registry
from fabmon.wire import (
    LatestResult, MemoryChannel, RequestError, TcpWireServer, WireClient, WireServer,
    connect_memory, decode_wire_line, tcp_dial)
from fabmon.wire.pool import Lease
from fabmon.wire.session import WireHandler

P = ResourcePath.parse


class _Net:
    """Tiny endpoint registry standing in for a real network.

    A down endpoint refuses dials, and sends on channels already open to it
    fail, as they would on a TCP session to a dead peer. A silent endpoint
    is a hung or powered-off host: sends vanish unanswered, and a dial
    waits connect_wait_s before it times out.
    """

    def __init__(self):
        self.servers = {}
        self.down = set()
        self.silent = set()
        self.connect_wait_s = 0.0
        self.dial_counts = {}
        self._count_lock = threading.Lock()

    def add(self, endpoint, server):
        self.servers[endpoint] = server

    def restart(self, endpoint, server):
        """Replace the server at endpoint, ending every session to the old one."""
        old = self.servers[endpoint]
        for conn in old.connections():
            old.detach(conn)
        self.servers[endpoint] = server

    def dial(self, endpoint, timeout=None):
        with self._count_lock:  # dials may race from handler threads
            self.dial_counts[endpoint] = self.dial_counts.get(endpoint, 0) + 1
        if endpoint in self.down or endpoint not in self.servers:
            raise ConnectionRefusedError(f"{endpoint} down")
        if endpoint in self.silent:
            time.sleep(self.connect_wait_s)
            raise TimeoutError(f"connect to {endpoint} timed out")
        return _NetChannel(self, endpoint)


class _NetChannel(MemoryChannel):
    def __init__(self, net, endpoint):
        super().__init__(net.servers[endpoint])
        self._net = net
        self._endpoint = endpoint

    def send(self, line):
        if self._endpoint in self._net.down:
            raise ConnectionResetError(f"{self._endpoint} down")
        if self._endpoint not in self._net.silent:
            super().send(line)


class _AgentStub(WireHandler):
    def __init__(self, path, sample=None):
        self.path = path
        self.sample = sample
        self.queries = 0  # latest queries that reached this agent

    def on_query_latest(self, path, metric, hops):
        self.queries += 1
        if path == self.path and self.sample is not None and self.sample.metric == metric:
            return LatestResult(self.sample, source="agent")
        return LatestResult(None, source="agent")


def _count_calls(handler, method):
    """Record the calls that reach handler.method; returns the record."""
    calls = []
    serve = getattr(handler, method)

    def counted(*args):
        calls.append(args)
        return serve(*args)

    setattr(handler, method, counted)
    return calls


def _stack(clock):
    net = _Net()
    service = DirectoryService(clock, net.dial, name="dir")
    net.add("dir:1", service.server)
    return net, service


class TestRegistry:
    def test_lease_math(self):
        reg = Registry()
        assert reg.register(P("bnl"), "agent", "e1", 300, now=0) == 300_000

    def test_renewal_extends(self):
        reg = Registry()
        reg.register(P("bnl"), "agent", "e1", 300, now=0)
        assert reg.register(P("bnl"), "agent", "e1", 300, now=100_000) == 400_000
        assert len(reg) == 1

    def test_zero_ttl_invalid(self):
        reg = Registry()
        with pytest.raises(InvalidTTL):
            reg.register(P("bnl"), "agent", "e1", 0, now=0)
        with pytest.raises(InvalidTTL):
            reg.register(P("bnl"), "agent", "e1", 86401, now=0)

    def test_sweep_boundaries(self):
        reg = Registry()
        reg.register(P("bnl"), "agent", "e1", 300, now=0)
        assert reg.sweep(now=299_000) == []
        removed = reg.sweep(now=301_000)
        assert [e.endpoint for e in removed] == ["e1"]
        assert len(reg) == 0

    def test_expiry_is_exact(self):
        reg = Registry()
        reg.register(P("bnl"), "agent", "e1", 300, now=0)
        assert reg.live_entries(now=299_999)
        assert not reg.live_entries(now=300_000)  # live iff now < registered_at + ttl

    def test_sweep_bruteforce_oracle(self):
        rng = random.Random(42)
        for _ in range(20):
            reg = Registry()
            entries = []
            for i in range(100):
                subtree = P(rng.choice(["bnl", "uta", "bnl/farm", f"site{i % 7}"]))
                ttl = rng.randint(5, 1000)
                at = rng.randrange(0, 500_000)
                reg.register(subtree, "agent", f"e{i}", ttl, now=at)
                entries.append((subtree, f"e{i}", at + ttl * 1000))
            sweep_at = rng.randrange(0, 1_200_000)
            removed = {e.endpoint for e in reg.sweep(sweep_at)}
            expected = {e for _, e, expires in entries if sweep_at >= expires}
            assert removed == expected
            live = {e.endpoint for e in reg.live_entries(sweep_at)}
            assert live == {e for _, e, expires in entries if sweep_at < expires}

    def test_longest_prefix_and_precedence(self):
        reg = Registry()
        reg.register(P("bnl"), "archive", "arch:1", 600, now=0)
        reg.register(P("bnl/farm"), "archive", "arch:2", 600, now=0)
        reg.register(P("bnl/farm"), "agent", "agent:1", 600, now=0)
        hit = reg.resolve(P("bnl/farm/n1"), ("agent", "archive"), now=1)
        assert (hit.provider_kind, hit.endpoint) == ("agent", "agent:1")
        hit = reg.resolve(P("bnl/farm/n1"), ("archive",), now=1)
        assert hit.endpoint == "arch:2"
        assert reg.resolve(P("uta/x"), ("agent", "archive"), now=1) is None

    def test_resolution_deterministic_on_endpoint_tie(self):
        reg = Registry()
        reg.register(P("bnl"), "agent", "b-ep", 600, now=0)
        reg.register(P("bnl"), "agent", "a-ep", 600, now=0)
        assert reg.resolve(P("bnl/x"), ("agent",), now=1).endpoint == "a-ep"


class TestQueryLatest:
    def test_no_provider_absent(self, clock):
        _, service = _stack(clock)
        assert service.query_latest(P("bnl/farm/n1"), "cpu.load1").absent

    def test_upstream_then_cache(self, clock):
        net, service = _stack(clock)
        sample = make_sample(ts=clock.now(), value=0.5)
        agent = _AgentStub(P("bnl/farm/n1"), sample)
        net.add("agent:1", WireServer(agent, clock))
        service.registry.register(P("bnl/farm/n1"), "agent", "agent:1", 600, clock.now())

        first = service.query_latest(P("bnl/farm/n1"), "cpu.load1")
        assert (first.sample, first.source, first.stale) == (sample, "upstream", False)
        second = service.query_latest(P("bnl/farm/n1"), "cpu.load1")
        assert second.source == "cache" and second.sample == sample
        assert agent.queries == 1  # cache hit, upstream untouched

    def test_cache_expiry_refetches(self, clock):
        net, service = _stack(clock)
        sample = make_sample(ts=clock.now(), value=0.5, ttl=30)
        agent = _AgentStub(P("bnl/farm/n1"), sample)
        net.add("agent:1", WireServer(agent, clock))
        service.registry.register(P("bnl/farm/n1"), "agent", "agent:1", 600, clock.now())
        service.query_latest(P("bnl/farm/n1"), "cpu.load1")
        clock.sleep_until(clock.now() + 31_000)  # past freshness (= sample ttl)
        agent.sample = make_sample(ts=clock.now(), value=0.7, ttl=30)
        got = service.query_latest(P("bnl/farm/n1"), "cpu.load1")
        assert got.source == "upstream" and got.sample.value == 0.7

    def test_cache_never_serves_past_freshness(self, clock):
        net, service = _stack(clock)
        sample = make_sample(ts=clock.now(), value=0.5, ttl=30)
        net.add("agent:1", WireServer(_AgentStub(P("bnl/farm/n1"), sample), clock))
        service.registry.register(P("bnl/farm/n1"), "agent", "agent:1", 600, clock.now())
        service.query_latest(P("bnl/farm/n1"), "cpu.load1")
        for step in (10_000, 19_000, 5_000):  # 34s total, crossing the 30s line
            clock.sleep_until(clock.now() + step)
            result = service.query_latest(P("bnl/farm/n1"), "cpu.load1")
            cell = service._cache[(str(P("bnl/farm/n1")), "cpu.load1")]
            if result.source == "cache" and not result.stale:
                assert clock.now() < cell.fetched_at + cell.freshness_ttl * 1000

    def test_stale_serve_flagged(self, clock):
        net, service = _stack(clock)
        sample = make_sample(ts=clock.now(), value=0.5, ttl=30)
        net.add("agent:1", WireServer(_AgentStub(P("bnl/farm/n1"), sample), clock))
        service.registry.register(P("bnl/farm/n1"), "agent", "agent:1", 6000, clock.now())
        service.query_latest(P("bnl/farm/n1"), "cpu.load1")
        clock.sleep_until(clock.now() + 60_000)
        net.down.add("agent:1")
        got = service.query_latest(P("bnl/farm/n1"), "cpu.load1")
        assert got.stale and got.source == "cache" and got.sample == sample

    def test_sweep_evicts_cells_past_the_grace_period(self, clock):
        net, service = _stack(clock)
        sample = make_sample(ts=clock.now(), value=0.5, ttl=30)
        net.add("agent:1", WireServer(_AgentStub(P("bnl/farm/n1"), sample), clock))
        service.registry.register(P("bnl/farm/n1"), "agent", "agent:1", 6000, clock.now())
        service.query_latest(P("bnl/farm/n1"), "cpu.load1")
        grace_ms = service_mod.FRESHNESS_CAP_S * 1000
        clock.sleep_until(clock.now() + 30_000 + grace_ms - 1)
        service.sweep()
        assert ("bnl/farm/n1", "cpu.load1") in service._cache
        clock.sleep_until(clock.now() + 1)
        service.sweep()
        assert service._cache == {}
        # evicted: a down upstream now gives an error, not a stale answer
        net.down.add("agent:1")
        with pytest.raises(RequestError, match="^upstream_unreachable: "):
            service.query_latest(P("bnl/farm/n1"), "cpu.load1")

    def test_stale_serve_within_the_grace_period_survives_sweep(self, clock):
        net, service = _stack(clock)
        sample = make_sample(ts=clock.now(), value=0.5, ttl=30)
        net.add("agent:1", WireServer(_AgentStub(P("bnl/farm/n1"), sample), clock))
        service.registry.register(P("bnl/farm/n1"), "agent", "agent:1", 6000, clock.now())
        service.query_latest(P("bnl/farm/n1"), "cpu.load1")
        net.down.add("agent:1")
        clock.sleep_until(clock.now() + 30_000 + service_mod.FRESHNESS_CAP_S * 1000 - 1)
        service.sweep()
        got = service.query_latest(P("bnl/farm/n1"), "cpu.load1")
        assert got.stale and got.source == "cache" and got.sample == sample

    def test_unreachable_without_cache_raises(self, clock):
        net, service = _stack(clock)
        net.add("agent:1", WireServer(_AgentStub(P("bnl/farm/n1")), clock))
        service.registry.register(P("bnl/farm/n1"), "agent", "agent:1", 600, clock.now())
        net.down.add("agent:1")
        with pytest.raises(RequestError, match="^upstream_unreachable: "):
            service.query_latest(P("bnl/farm/n1"), "cpu.load1")

    def test_coalesced_concurrent_fetches(self, clock):
        net, service = _stack(clock)
        gate = threading.Event()
        calls = []

        class SlowAgent(WireHandler):
            def on_query_latest(self, path, metric, hops):
                calls.append(1)
                gate.wait(5)
                return LatestResult(make_sample(ts=clock.now()), source="agent")

        net.add("agent:1", WireServer(SlowAgent(), clock))
        service.registry.register(P("bnl/farm/n1"), "agent", "agent:1", 600, clock.now())
        results = []
        threads = [
            threading.Thread(target=lambda: results.append(
                service.query_latest(P("bnl/farm/n1"), "cpu.load1")))
            for _ in range(4)
        ]
        for t in threads:
            t.start()
        import time as _time

        _time.sleep(0.2)
        gate.set()
        for t in threads:
            t.join(5)
        assert len(results) == 4 and all(r.sample is not None for r in results)
        assert sum(calls) == 1  # one upstream request served all four

    def test_failed_fetch_leaves_no_claim_behind(self, clock):
        # the first caller's fetch fails; each waiter then fetches alone and
        # fails too, and no claim outlives its caller to block the next burst
        net, service = _stack(clock)
        gate = threading.Event()

        class SlowAgent(WireHandler):
            def on_query_latest(self, path, metric, hops):
                gate.wait(5)
                return LatestResult(make_sample(ts=clock.now()), source="agent")

        agent = SlowAgent()
        calls = _count_calls(agent, "on_query_latest")
        net.add("agent:1", WireServer(agent, clock))
        service.registry.register(P("bnl/farm/n1"), "agent", "agent:1", 600, clock.now())
        net.silent.add("agent:1")  # powered off: a dial waits, then times out
        net.connect_wait_s = 0.2

        def burst():
            outcomes = []

            def query():
                try:
                    outcomes.append(service.query_latest(P("bnl/farm/n1"), "cpu.load1"))
                except RequestError as exc:
                    outcomes.append(exc.code)

            threads = [threading.Thread(target=query) for _ in range(4)]
            for t in threads:
                t.start()
            return threads, outcomes

        threads, outcomes = burst()
        for t in threads:
            t.join(10)
        assert outcomes == ["upstream_unreachable"] * 4
        assert service._inflight == {}

        net.silent.discard("agent:1")
        threads, outcomes = burst()
        time.sleep(0.2)
        gate.set()
        for t in threads:
            t.join(5)
        assert len(outcomes) == 4 and all(r.sample is not None for r in outcomes)
        assert len(calls) == 1  # one upstream request served all four
        assert service._inflight == {}

    def test_claims_hold_under_thread_churn(self, clock):
        # answers that never fill the cache: every call claims, waits or
        # fetches alone, at two hop counts, and no claim is lost or left behind
        net, service = _stack(clock)
        net.add("agent:1", WireServer(_AgentStub(P("bnl/farm/n1")), clock))
        service.registry.register(P("bnl/farm/n1"), "agent", "agent:1", 600, clock.now())
        outcomes = []

        def worker():
            for n in range(40):
                try:
                    outcomes.append(service.query_latest(P("bnl/farm/n1"), "cpu.load1", n % 2))
                except Exception as exc:
                    outcomes.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(outcomes) == 320 and all(r == LatestResult(None) for r in outcomes)
        assert service._inflight == {}


class TestUpstreamSessions:
    def _agent(self, clock, net, service, ttl=600):
        agent = _AgentStub(P("bnl/farm/n1"), make_sample(ts=clock.now(), ttl=30))
        net.add("agent:1", WireServer(agent, clock))
        service.registry.register(P("bnl/farm/n1"), "agent", "agent:1", ttl, clock.now())
        return agent

    def test_one_dial_serves_many_fetches(self, clock):
        net, service = _stack(clock)
        agent = self._agent(clock, net, service)
        for _ in range(5):
            assert service.query_latest(P("bnl/farm/n1"), "cpu.load1").source == "upstream"
            clock.sleep_until(clock.now() + 31_000)  # past freshness: the next query goes upstream
        assert agent.queries == 5
        assert net.dial_counts["agent:1"] == 1

    def test_restarted_upstream_is_redialed_once(self, clock):
        net, service = _stack(clock)
        self._agent(clock, net, service)
        service.query_latest(P("bnl/farm/n1"), "cpu.load1")
        clock.sleep_until(clock.now() + 31_000)
        fresh = make_sample(ts=clock.now(), value=0.9, ttl=30)
        net.restart("agent:1", WireServer(_AgentStub(P("bnl/farm/n1"), fresh), clock))
        got = service.query_latest(P("bnl/farm/n1"), "cpu.load1")
        assert (got.sample, got.source, got.stale) == (fresh, "upstream", False)
        assert net.dial_counts["agent:1"] == 2

    def test_error_reply_keeps_the_session(self, clock):
        net, service = _stack(clock)
        net.add("agent:1", WireServer(WireHandler(), clock))  # answers ERROR unsupported
        service.registry.register(P("bnl/farm/n1"), "agent", "agent:1", 600, clock.now())
        for _ in range(3):
            with pytest.raises(RequestError, match="^upstream_unreachable: "):
                service.query_latest(P("bnl/farm/n1"), "cpu.load1")
        assert net.dial_counts["agent:1"] == 1

    def test_sweep_closes_sessions_of_expired_endpoints(self, clock):
        net, service = _stack(clock)
        self._agent(clock, net, service, ttl=60)
        importer = Importer(MemoryStore(), clock)
        net.add("arch:1", importer.server)
        service.registry.register(P("bnl"), "archive", "arch:1", 600, clock.now())
        service.query_latest(P("bnl/farm/n1"), "cpu.load1")
        service.query_history(P("bnl/farm/n1"), "cpu.load1", 1, 2**60)
        assert len(net.servers["agent:1"].connections()) == 1
        clock.sleep_until(clock.now() + 61_000)
        assert service.sweep() == 1
        assert net.servers["agent:1"].connections() == []
        assert len(importer.server.connections()) == 1  # still registered, still held
        service.close()
        assert importer.server.connections() == []

    def test_hung_upstream_serves_stale_within_one_timeout(self, clock, monkeypatch):
        timeout_s = 0.5
        monkeypatch.setattr(service_mod, "UPSTREAM_TIMEOUT_S", timeout_s)
        net, service = _stack(clock)
        agent = self._agent(clock, net, service)
        first = service.query_latest(P("bnl/farm/n1"), "cpu.load1")
        clock.sleep_until(clock.now() + 31_000)
        net.silent.add("agent:1")
        net.connect_wait_s = timeout_s
        started = time.monotonic()
        got = service.query_latest(P("bnl/farm/n1"), "cpu.load1")
        elapsed = time.monotonic() - started
        assert (got.sample, got.stale) == (first.sample, True)
        # a timeout is no sign of a restart: no redial that would wait again
        assert net.dial_counts["agent:1"] == 1
        assert elapsed < 1.8 * timeout_s
        assert net.servers["agent:1"].connections() == []  # the timed-out session is closed
        net.silent.clear()
        clock.sleep_until(clock.now() + 31_000)
        assert service.query_latest(P("bnl/farm/n1"), "cpu.load1").source == "upstream"
        assert (agent.queries, net.dial_counts["agent:1"]) == (2, 2)

    def test_concurrent_fetches_hold_one_session_each(self, clock):
        n_threads, rounds = 16, 150  # 16: the probe's default fanout
        batch = [make_sample(ts=EPOCH_MS + i, value=i) for i in range(3)]
        all_in_flight = threading.Barrier(n_threads)
        arrivals = itertools.count()

        class Archive(WireHandler):
            def on_query_range(self, path, metric, t0, t1, hops):
                if next(arrivals) < n_threads:  # first round: every thread holds a session
                    all_in_flight.wait(10)
                return batch

        net, service = _stack(clock)
        archive = WireServer(Archive(), clock)
        net.add("arch:1", archive)
        service.registry.register(P("bnl"), "archive", "arch:1", 600, clock.now())
        errors = []

        def worker():
            try:
                for _ in range(rounds):
                    got = service.query_history(P("bnl/farm/n1"), "cpu.load1", 1, 2**60)
                    assert got == batch
            except Exception as exc:  # reported below; a thread cannot fail the test
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        # sessions never outnumber the fetches once in flight together
        assert net.dial_counts["arch:1"] == n_threads
        assert len(archive.connections()) == n_threads
        service.close()
        assert archive.connections() == []  # every session was idle or closed


class TestHistoryAndProbe:
    def _with_archive(self, clock):
        net, service = _stack(clock)
        importer = Importer(MemoryStore(), clock)
        net.add("arch:1", importer.server)
        service.registry.register(P("bnl"), "archive", "arch:1", 600, clock.now())
        return net, service, importer

    def test_history_delegates(self, clock):
        net, service, importer = self._with_archive(clock)
        batch = [make_sample(ts=EPOCH_MS + i * 1000, value=i) for i in range(5)]
        for s in batch:
            importer.store.append(s)
        got = service.query_history(P("bnl/farm/n1"), "cpu.load1", EPOCH_MS, EPOCH_MS + 5000)
        assert got == batch

    def test_history_never_cached(self, clock):
        net, service, importer = self._with_archive(clock)
        importer.store.append(make_sample(ts=EPOCH_MS))
        ranges = _count_calls(importer, "on_query_range")
        for _ in range(3):
            service.query_history(P("bnl/farm/n1"), "cpu.load1", 1, 2**60)
        assert len(ranges) == 3

    def test_no_archive_is_error(self, clock):
        _, service = _stack(clock)
        with pytest.raises(RequestError, match="^no_provider: "):
            service.query_history(P("bnl/farm/n1"), "cpu.load1", 1, 2)

    def test_unparsable_archive_endpoint_is_unreachable(self, clock):
        service = DirectoryService(clock, tcp_dial, name="dir")
        service.registry.register(P("bnl"), "archive", "arch", 600, clock.now())
        with pytest.raises(RequestError, match="^upstream_unreachable: arch: endpoint must be"):
            service.query_history(P("bnl/farm/n1"), "cpu.load1", 1, 2)

    def test_invalid_range(self, clock):
        net, service, importer = self._with_archive(clock)
        with pytest.raises(RequestError, match="^invalid_range: "):
            service.query_history(P("bnl/farm/n1"), "cpu.load1", 10, 5)


class TestFederation:
    def _tree(self, clock):
        """parent routing to two child directories, each owning one site."""
        net = _Net()
        parent = DirectoryService(clock, net.dial, name="parent")
        bnl = DirectoryService(clock, net.dial, name="bnl-dir")
        uta = DirectoryService(clock, net.dial, name="uta-dir")
        net.add("parent:1", parent.server)
        net.add("bnl:1", bnl.server)
        net.add("uta:1", uta.server)
        parent.registry.register(P("bnl"), "directory", "bnl:1", 600, clock.now())
        parent.registry.register(P("uta"), "directory", "uta:1", 600, clock.now())
        return net, parent, bnl, uta

    def test_routed_to_owning_child(self, clock):
        net, parent, bnl, uta = self._tree(clock)
        sample = make_sample(path="uta/farm/n3", ts=clock.now(), value=3.0)
        net.add("agent:uta3", WireServer(_AgentStub(P("uta/farm/n3"), sample), clock))
        uta.registry.register(P("uta/farm/n3"), "agent", "agent:uta3", 600, clock.now())
        got = parent.query_latest(P("uta/farm/n3"), "cpu.load1")
        assert got.sample == sample
        # confluence: the owning leaf answers the same thing
        assert uta.query_latest(P("uta/farm/n3"), "cpu.load1").sample == sample

    def test_unmatched_path_absent(self, clock):
        _, parent, _, _ = self._tree(clock)
        assert parent.query_latest(P("slac/farm/n1"), "cpu.load1").absent

    @staticmethod
    def _cycle(clock):
        """Directories a and b, each routing bnl to the other."""
        net = _Net()
        a = DirectoryService(clock, net.dial, name="a")
        b = DirectoryService(clock, net.dial, name="b")
        net.add("a:1", a.server)
        net.add("b:1", b.server)
        a.registry.register(P("bnl"), "directory", "b:1", 600, clock.now())
        b.registry.register(P("bnl"), "directory", "a:1", 600, clock.now())
        return net, a

    def test_cycle_hits_hop_limit(self, clock):
        _, a = self._cycle(clock)
        with pytest.raises(RequestError, match="^hop_limit: "):
            a.query_latest(P("bnl/farm/n1"), "cpu.load1")

    def test_cycle_over_held_sessions_hits_hop_limit(self, clock):
        net, a = self._cycle(clock)
        outcomes, dials = [], []

        def query():
            try:
                a.query_latest(P("bnl/farm/n1"), "cpu.load1")
            except RequestError as exc:
                outcomes.append(exc.code)

        for _ in range(2):
            thread = threading.Thread(target=query, daemon=True)
            thread.start()
            thread.join(10)
            assert not thread.is_alive(), "federation cycle deadlocked"
            dials.append(dict(net.dial_counts))
        assert outcomes == ["hop_limit", "hop_limit"]
        assert dials[0] == dials[1]  # the second pass ran on sessions the first left idle

    def test_cycle_over_tcp_hits_hop_limit(self, clock):
        # each hop arrives on its own handler thread: the cycle must still end
        # in hop_limit, not wait on the fetch the first hop started
        a = DirectoryService(clock, tcp_dial, name="a")
        b = DirectoryService(clock, tcp_dial, name="b")
        servers = [TcpWireServer(d.server).start() for d in (a, b)]
        a.registry.register(P("bnl"), "directory", servers[1].endpoint, 600, clock.now())
        b.registry.register(P("bnl"), "directory", servers[0].endpoint, 600, clock.now())
        consumer = WireClient(tcp_dial(servers[0].endpoint), role="consumer", name="c",
                              timeout=30)
        try:
            with pytest.raises(RequestError) as latest:
                consumer.query_latest(P("bnl/farm/n1"), "cpu.load1")
            with pytest.raises(RequestError) as history:
                consumer.query_range(P("bnl/farm/n1"), "cpu.load1", 1, 2)
            assert (latest.value.code, history.value.code) == ("hop_limit", "hop_limit")
        finally:
            consumer.close()
            for server in servers:
                server.stop()
            for directory in (a, b):
                directory.close()

    @staticmethod
    def _ask(net, endpoint, request: bytes) -> bytes:
        """One consumer request over the wire; returns the reply line as sent."""
        channel = net.dial(endpoint)
        channel.send(b'{"k":"HELLO","cid":1,"role":"consumer","name":"c"}\n')
        channel.recv(timeout=0)
        channel.send(request)
        return channel.recv(timeout=0)

    def test_child_error_reaches_the_consumer_named(self, clock):
        # the child's own refusal travels inside the parent's upstream_unreachable
        net = _Net()
        parent = DirectoryService(clock, net.dial, name="parent")
        child = DirectoryService(clock, net.dial, name="child")
        net.add("parent:1", parent.server)
        net.add("child:1", child.server)
        parent.registry.register(P("bnl"), "directory", "child:1", 600, clock.now())
        reply = self._ask(net, "parent:1", b'{"k":"QUERY_RANGE","cid":2,"path":"bnl/farm/n1",'
                                           b'"metric":"cpu.load1","t0":1,"t1":2}\n')
        assert reply == (b'{"k":"ERROR","cid":2,"code":"upstream_unreachable",'
                         b'"message":"child:1: no_provider: no archive covers bnl/farm/n1"}\n')

    @pytest.mark.parametrize("request_line, message", [
        (b'{"k":"QUERY_LATEST","cid":2,"path":"bnl/farm/n1","metric":"cpu.load1"}\n',
         b"query for bnl/farm/n1/cpu.load1 exceeded 8 hops"),
        (b'{"k":"QUERY_RANGE","cid":2,"path":"bnl/farm/n1","metric":"cpu.load1","t0":1,"t1":2}\n',
         b"history for bnl/farm/n1/cpu.load1 exceeded 8 hops"),
    ])
    def test_cycle_hop_limit_reaches_the_consumer_unchanged(self, clock, request_line, message):
        # every hop passes the innermost directory's hop_limit on as it came
        net, a = self._cycle(clock)
        reply = self._ask(net, "a:1", request_line)
        assert reply == b'{"k":"ERROR","cid":2,"code":"hop_limit","message":"' + message + b'"}\n'

    def test_history_federates(self, clock):
        net, parent, bnl, uta = self._tree(clock)
        importer = Importer(MemoryStore(), clock)
        net.add("arch:uta", importer.server)
        uta.registry.register(P("uta"), "archive", "arch:uta", 600, clock.now())
        batch = [make_sample(path="uta/farm/n3", ts=EPOCH_MS + i, value=i) for i in range(3)]
        for s in batch:
            importer.store.append(s)
        assert parent.query_history(P("uta/farm/n3"), "cpu.load1", 1, 2**60) == batch


class TestWireSurface:
    def test_register_query_over_the_wire(self, clock):
        net, service = _stack(clock)
        sample = make_sample(ts=clock.now())
        net.add("agent:1", WireServer(_AgentStub(P("bnl/farm/n1"), sample), clock))

        producer = WireClient(net.dial("dir:1"), role="producer", name="agent")
        expires = producer.register(P("bnl/farm/n1"), "agent", "agent:1", 300)
        assert expires == clock.now() + 300_000

        consumer = WireClient(net.dial("dir:1"), role="consumer", name="probe")
        got = consumer.query_latest(P("bnl/farm/n1"), "cpu.load1")
        assert got.sample == sample

        assert producer.deregister(P("bnl/farm/n1"), "agent:1") == 1
        clock.sleep_until(clock.now() + 61_000)  # let the cached answer age out too
        assert consumer.query_latest(P("bnl/farm/n1"), "cpu.load1").absent

    def test_invalid_ttl_over_the_wire(self, clock):
        net, service = _stack(clock)
        producer = WireClient(net.dial("dir:1"), role="producer", name="x")
        with pytest.raises(RequestError, match="^invalid_ttl: "):
            producer.register(P("bnl"), "agent", "e", 3)

    def test_renew_over_the_wire_extends_in_place(self, clock):
        # REGISTER renews in place; there is no RENEW verb on the wire
        net, service = _stack(clock)
        producer = WireClient(net.dial("dir:1"), role="producer", name="x")
        producer.register(P("bnl"), "agent", "e", 60)
        clock.sleep_until(clock.now() + 30_000)
        assert producer.register(P("bnl"), "agent", "e", 60) == clock.now() + 60_000
        assert [r["expires_at"] for r in service.registry_dump()] == [clock.now() + 60_000]
        producer._channel.send(b'{"k":"RENEW","cid":9,"subtree":"bnl","kind":"agent",'
                               b'"endpoint":"e","ttl":60}\n')
        error = decode_wire_line(producer._channel.recv(1))
        assert (error.kind, error.body["code"]) == ("ERROR", "schema_violation")
        assert [r["expires_at"] for r in service.registry_dump()] == [clock.now() + 60_000]

    def test_registry_listed_over_the_wire(self, clock):
        net, service = _stack(clock)
        producer = WireClient(net.dial("dir:1"), role="producer", name="x")
        producer.register(P("uta"), "archive", "arch:1", 600)
        producer.register(P("bnl/farm/n1"), "agent", "agent:1", 60)
        consumer = WireClient(net.dial("dir:1"), role="consumer", name="cli")
        got = consumer.query_registry()
        assert got == service.registry_dump()
        assert [(e["subtree"], e["kind"]) for e in got] == [("bnl/farm/n1", "agent"),
                                                            ("uta", "archive")]

    @pytest.mark.parametrize("line", [
        b'{"k":"REGISTER","cid":2,"subtree":"bnl","kind":"agent","endpoint":"\\ud800","ttl":60}\n',
        b'{"k":"DEREGISTER","cid":2,"subtree":"bnl","endpoint":"a:1\\udfff"}\n',
        b'{"k":"HELLO","cid":2,"role":"producer","name":"\\ud800"}\n',
    ])
    def test_text_utf8_cannot_encode_draws_error(self, clock, line):
        # stored, such an endpoint would break every registry reply after it
        net, service = _stack(clock)
        producer = WireClient(net.dial("dir:1"), role="producer", name="x")
        producer.register(P("bnl"), "agent", "a:1", 60)
        producer._channel.send(line)
        error = decode_wire_line(producer._channel.recv(1))
        assert (error.kind, error.body["code"]) == ("ERROR", "schema_violation")
        consumer = WireClient(net.dial("dir:1"), role="consumer", name="cli")
        assert [e["endpoint"] for e in consumer.query_registry()] == ["a:1"]


class TestLease:
    def _directory(self, clock):
        directory = DirectoryService(clock, lambda ep: None, name="dir")
        dials = []

        def dial(endpoint):
            dials.append(endpoint)
            return connect_memory(directory.server)

        return directory, dials, dial

    def test_renewed_at_half_ttl_on_one_dial_per_round(self, clock):
        directory, dials, dial = self._directory(clock)
        lease = Lease(dial, "dir:1", [P("bnl"), P("uta")], "archive", "arch:1", 120)
        for _ in range(5):  # every 30 s: rounds at 0, 60 and 120 s
            lease.keep(clock.now())
            assert [e["subtree"] for e in directory.registry_dump()] == ["bnl", "uta"]
            assert directory.server.connections() == []  # closed after each round
            clock.sleep_until(clock.now() + 30_000)
        assert dials == ["dir:1"] * 3
        assert lease.expires_at == clock.now() - 30_000 + 120_000
        lease.release()
        assert directory.registry_dump() == []
        assert directory.server.connections() == []
        assert dials == ["dir:1"] * 4

    def test_failed_round_is_tried_again_on_the_next_keep(self, clock):
        directory, dials, dial = self._directory(clock)
        up = []

        def flaky(endpoint):
            if not up:
                raise ConnectionRefusedError("directory down")
            return dial(endpoint)

        lease = Lease(flaky, "dir:1", [P("bnl")], "archive", "arch:1", 120)
        lease.keep(clock.now())  # logged, not raised
        up.append(True)
        clock.sleep_until(clock.now() + 1_000)
        lease.keep(clock.now())
        assert lease.expires_at == clock.now() + 120_000
        assert len(directory.registry_dump()) == 1

    def test_release_after_an_interrupted_round(self, clock):
        # a stop signal that lands while the REGISTER's reply is awaited
        directory = DirectoryService(clock, lambda ep: None, name="dir")
        pending = [KeyboardInterrupt]

        class Interrupted(MemoryChannel):
            def recv(self, timeout=None):
                line = super().recv(timeout)
                if pending and b"expires_at" in line:
                    raise pending.pop()
                return line

        lease = Lease(lambda ep: Interrupted(directory.server), "dir:1", [P("bnl")],
                      "archive", "arch:1", 120)
        with pytest.raises(KeyboardInterrupt):
            lease.keep(clock.now())
        assert len(directory.registry_dump()) == 1
        lease.release()
        assert directory.registry_dump() == []
        assert directory.server.connections() == []

    def test_no_dial_before_a_keep_or_without_subtrees(self, clock):
        _, dials, dial = self._directory(clock)
        Lease(dial, "dir:1", [P("bnl")], "archive", "arch:1", 120).release()
        idle = Lease(dial, "dir:1", [], "agent", "agent:1", 120)
        idle.keep(clock.now())
        idle.release()
        assert dials == []
