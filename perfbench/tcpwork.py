"""tcp-ingest and tcp-query: fabmon's importer and directory as separate processes.

The generator is this process, with two threads and two connections: a
producer (raw socket to the importer, pre-encoded record lines) and a
consumer (fabmon's WireClient to the directory). Both daemons are started
from a generated config exactly as an operator would start them; a traced
run starts them through launch.py instead of `python3 -m fabmon`.

A run starts STACKS stacks of daemons one after another over the same
archive. Each is timed while it starts, then serves the workload for an
equal share of --seconds, then stops; the producer and the consumer carry
on where the previous stack left them.
"""

from __future__ import annotations

import itertools
import json
import os
import select
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.request
from functools import partial
from pathlib import Path

import checks
import common
from common import EPOCH_MS, N_SITES, PERIOD_MS

PROBE_MIX = ("cpu.load1", "cpu.load1", "cpu.util", "cpu.load1", "cpu.load1",
             "sys.uptime_s", "sys.idle_s")  # the probe's 7 queries per host, in its order
PROBE_PERIOD_S = 300
# samples/s; sizes tcp-ingest's fixed work (2 vCPUs at 2.0 GHz ingest 4.9k-14k/s)
NOMINAL_INGEST_RATE = 14_000
# The tcp-query mix; perfbench/README.md gives the reason for each figure.
POPULAR_KEYS = 16
QUERY_MIX = (1 / 3, 1 / 3, 1 / 3)  # popular latest, latest across all keys, history view
# the surface's history view (/metrics/<path>/<metric>) asks from 1 by
# default; `to` is the restart, so the answer is the key's whole history
HISTORY_VIEW = (1, EPOCH_MS)
CHUNK_LINES = 256
# a request the importer answers after every line sent before it
BARRIER = b'{"k":"DEREGISTER","cid":%d,"subtree":"site1","endpoint":"perfbench"}\n'
READY_TIMEOUT_S = 60.0
# The directory caches a latest answer this long. Short enough that the
# walk over all keys never revisits a key while its cell is fresh (a lap
# takes 10 s or more on 2 vCPUs at 2.0 GHz), long enough that the popular
# keys and the probe's repeated cpu.load1 queries are cache hits.
CACHE_FRESHNESS_S = 2
# Daemon stacks per run. Two stacks started the same way served tcp-query
# at rates up to 30 % apart, and one stack's rate moved as much from one
# 2 s window to the next; a run's figures pool STACKS of them
# (perfbench/README.md).
STACKS = 5


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class Daemons:
    """The importer (file archive) and the directory, started from one config."""

    def __init__(self, work: Path, archive: Path, trace_dir: Path | None, tag: str):
        eps = {name: f"127.0.0.1:{_free_port()}"
               for name in ("directory", "importer", "directory_http", "http")}
        self.endpoints = eps
        cfg = {
            "endpoints": eps,
            "importer": {"store": "file", "root": str(archive),
                         "subtrees": [f"site{i + 1}" for i in range(N_SITES)],
                         "registration_ttl_s": 600},
            "directory": {"sweep_period_s": 30, "freshness_cap_s": 300,
                          "freshness_ttls": {m: CACHE_FRESHNESS_S for m in common.METRICS}},
        }
        config = work / f"fabmon-{tag}.json"
        config.write_text(json.dumps(cfg, indent=1))
        env = dict(os.environ, PYTHONPATH=str(common.SRC))
        self.procs: dict[str, subprocess.Popen] = {}
        for role in ("directory", "importer"):
            if trace_dir is None:
                cmd = [sys.executable, "-m", "fabmon"]
            else:
                cmd = [sys.executable, str(common.BENCH_DIR / "launch.py"),
                       str(trace_dir / f"{role}-{tag}.json")]
            log = open(work / f"{role}-{tag}.log", "wb")
            try:
                self.procs[role] = subprocess.Popen(
                    cmd + [role, "run", "--config", str(config)],
                    cwd=common.ROOT, env=env, stdout=log, stderr=subprocess.STDOUT)
            finally:
                log.close()

    def wait_ready(self) -> None:
        """Until both listen and the archive is registered for every site."""
        url = f"http://{self.endpoints['directory_http']}/registry"
        deadline = time.monotonic() + READY_TIMEOUT_S
        while time.monotonic() < deadline:
            for role, proc in self.procs.items():
                if proc.poll() is not None:
                    raise RuntimeError(f"{role} exited with {proc.returncode} during set-up")
            try:
                with urllib.request.urlopen(url, timeout=2) as resp:
                    regs = json.loads(resp.read())["registrations"]
                if sum(r["kind"] == "archive" for r in regs) == N_SITES:
                    with socket.create_connection(_addr(self.endpoints["importer"]), timeout=2):
                        return
            except OSError:
                pass
            time.sleep(0.005)
        raise RuntimeError("daemons not ready in time")

    def cpu_s(self) -> float:
        return sum(common.cpu_seconds(p.pid) for p in self.procs.values())

    def peak_rss_mb(self) -> float:
        return max(common.peak_rss_mb(p.pid) for p in self.procs.values())

    def stop(self) -> None:
        for proc in self.procs.values():
            if proc.poll() is None:
                proc.send_signal(signal.SIGINT)
        for role, proc in self.procs.items():
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise RuntimeError(f"{role} ignored SIGINT")
            if proc.returncode != 0:
                raise RuntimeError(f"{role} exited with {proc.returncode}")


def _addr(endpoint: str) -> tuple[str, int]:
    host, _, port = endpoint.rpartition(":")
    return host, int(port)


# -- producer --------------------------------------------------------------------

class Producer:
    """Pre-encoded record lines over one producer session, in a seeded key order.

    Every send ends with a barrier request. The importer handles a session
    in order, so a barrier's reply means every line before it was handled.
    The producer keeps when each send began (sends) and when each reply was
    seen (acks); checks.check_latest_acked bounds the consumer's answers
    with them. Any other reply is an ERROR for a sample, a failed operation.
    """

    def __init__(self, keys: list, seed: int, n_lines: int):
        self.order = list(keys)
        common.rng(seed, "producer").shuffle(self.order)
        self.seed = seed
        self.lines = [self._encode(i) for i in range(n_lines)]
        self.sent = 0
        self.rejected = 0
        self.sends: list[tuple[float, int]] = []  # (started_s, lines sent once it ended)
        self.acks: list[tuple[float, int]] = []  # (seen_s, lines the importer had handled)
        self._barriers: dict[int, int] = {}  # cid -> lines sent before it
        self._cids = itertools.count(2)
        self._buf = b""
        self.error: BaseException | None = None
        self.done_at = 0.0
        self.sock: socket.socket | None = None

    def connect(self, endpoint: str) -> None:
        """A new producer session, to the importer of the next stack."""
        self._buf = b""
        self.error = None
        self.sock = socket.create_connection(_addr(endpoint))
        self.sock.sendall(b'{"k":"HELLO","cid":1,"role":"producer","name":"perfbench"}\n')
        while b"\n" not in self._buf:
            self._recv()
        hello, _, self._buf = self._buf.partition(b"\n")
        if json.loads(hello).get("k") != "HELLO":
            raise RuntimeError("importer did not answer HELLO")

    def sample(self, i: int) -> tuple[str, str, int]:
        host, metric = self.order[i % len(self.order)]
        return host, metric, EPOCH_MS + PERIOD_MS * (i // len(self.order) + 1)

    def _encode(self, i: int) -> bytes:
        host, metric, t = self.sample(i)
        return common.encode_record(host, metric, t,
                                    common.expected_value(host, metric, t, self.seed))

    def _recv(self) -> None:
        chunk = self.sock.recv(65536)
        if not chunk:
            raise RuntimeError("importer closed the producer session")
        self._buf += chunk

    def _collect(self, wait: bool) -> None:
        """Take in the replies that have come; with wait, until every barrier is answered."""
        while self._barriers and (wait or select.select([self.sock], [], [], 0)[0]):
            self._recv()
            seen = time.perf_counter()
            *replies, self._buf = self._buf.split(b"\n")
            for reply in replies:
                n = self._barriers.pop(json.loads(reply).get("cid"), None)
                if n is None:
                    self.rejected += 1
                else:
                    self.acks.append((seen, n))

    def _send_upto(self, n: int) -> None:
        cid = next(self._cids)
        self._barriers[cid] = n
        started = time.perf_counter()
        self.sock.sendall(b"".join(self.lines[self.sent:n]) + BARRIER % cid)
        self.sent = n
        self.sends.append((started, n))
        self._collect(wait=False)

    def flood(self, upto: int) -> None:
        """The lines up to upto, as fast as back-pressure allows, CHUNK_LINES at a time."""
        while self.sent < upto:
            self._send_upto(min(self.sent + CHUNK_LINES, upto))

    def paced(self, start: float, deadline: float, rate: float) -> None:
        """rate lines per second on a fixed schedule from start, until the deadline."""
        base = self.sent
        while time.perf_counter() < deadline:
            due = min(len(self.lines), base + int((time.perf_counter() - start) * rate) + 1)
            if due > self.sent:
                self._send_upto(due)
            time.sleep(0.02)

    def run(self, writer, done: threading.Event) -> None:
        """writer(), then wait until the importer has handled every line sent."""
        try:
            writer()
            self._collect(wait=True)
        except BaseException as exc:  # reported by the caller after join
            self.error = exc
        finally:
            self.done_at = time.perf_counter()
            done.set()

    def sent_lines(self) -> list[tuple[tuple[str, str], int]]:
        """((host, metric), t) of every line sent, in order."""
        return [((host, metric), t) for host, metric, t in map(self.sample, range(self.sent))]

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None


# -- consumer ---------------------------------------------------------------------

class Consumer:
    """A consumer session to each stack's directory; records every answer and its latency."""

    def __init__(self):
        self.client = None
        self.marks: list[int] = []  # where each stack's answers begin in latest
        self.latest: list[tuple] = []  # (host, metric, t, v, stale, source, asked_s, answered_s)
        self.latency_us: dict[str, list[float]] = {"cache": [], "upstream": [], "none": [],
                                                   "range": []}
        self.ranges: list[tuple] = []
        self.failed = 0

    def connect(self, endpoint: str) -> None:
        from fabmon.wire.channel import tcp_dial
        from fabmon.wire.client import WireClient

        self.client = WireClient(tcp_dial(endpoint), role="consumer", name="perfbench")
        self.marks.append(len(self.latest))

    def latest_by_stack(self) -> list[list[tuple]]:
        ends = self.marks[1:] + [len(self.latest)]
        return [self.latest[a:b] for a, b in zip(self.marks, ends)]

    def query_latest(self, host: str, metric: str, due: float | None = None) -> None:
        """One latest query, timed from when it was asked, or from due if given."""
        from fabmon.core import ResourcePath
        path = ResourcePath.parse(host)
        asked = time.perf_counter()
        try:
            r = self.client.query_latest(path, metric)
        except Exception:
            self.failed += 1
            return
        answered = time.perf_counter()
        self.latency_us[r.source].append((answered - (asked if due is None else due)) * 1e6)
        s = r.sample
        self.latest.append((host, metric, s.timestamp if s else None, s.value if s else None,
                            r.stale, r.source, asked, answered))

    def query_range(self, host: str, metric: str, t0: int, t1: int) -> None:
        from fabmon.core import ResourcePath
        path = ResourcePath.parse(host)
        since = time.perf_counter()
        try:
            got = self.client.query_range(path, metric, t0, t1)
        except Exception:
            self.failed += 1
            return
        self.latency_us["range"].append((time.perf_counter() - since) * 1e6)
        self.ranges.append((host, metric, t0, t1, [(s.timestamp, s.value) for s in got]))

    @property
    def answered(self) -> int:
        return len(self.latest) + len(self.ranges)

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None


def probe_queries(seed: int, n_hosts: int):
    """The probe's 7 queries per host, host after host in a seeded order, without end."""
    hosts = common.hosts(n_hosts)
    common.rng(seed, "probe-order").shuffle(hosts)
    for host in itertools.cycle(hosts):
        for metric in PROBE_MIX:
            yield host, metric


def probe_schedule(queries, n_hosts: int, start: float, done: threading.Event,
                   consumer: Consumer) -> None:
    """The probe's queries at its real rate, each timed from when it was due, until done."""
    interval = PROBE_PERIOD_S / (n_hosts * len(PROBE_MIX))
    i = 0
    while not done.wait(max(0.0, start + i * interval - time.perf_counter())):
        consumer.query_latest(*next(queries), due=start + i * interval)
        i += 1


def query_mix(seed: int, keys: list):
    """The seeded tcp-query mix: popular latest, latest across all keys, history view."""
    rnd = common.rng(seed, "query-mix")
    popular = rnd.sample(keys, POPULAR_KEYS)
    walk = [k for k in keys if k not in set(popular)]
    rnd.shuffle(walk)
    n_walk = 0
    while True:
        r = rnd.random()
        if r < QUERY_MIX[0]:
            yield "query_latest", rnd.choice(popular)
        elif r < QUERY_MIX[0] + QUERY_MIX[1]:
            yield "query_latest", walk[n_walk % len(walk)]
            n_walk += 1
        else:
            yield "query_range", (*rnd.choice(keys), *HISTORY_VIEW)


def query_loop(queries, deadline: float, consumer: Consumer) -> None:
    """Closed loop over the mix until the deadline."""
    while time.perf_counter() < deadline:
        kind, args = next(queries)
        getattr(consumer, kind)(*args)


# -- the workloads -------------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace_dir: Path | None,
        n_hosts: int = common.N_HOSTS) -> dict:
    work = common.WORK / workload
    archive = work / "archive"
    n_history = common.write_history(archive, seed, n_hosts)
    keys = common.keys(n_hosts)
    ingest = workload == "tcp-ingest"
    phase_s = seconds / STACKS
    writer_rate = len(keys) / (PERIOD_MS / 1000)
    if ingest:  # whole rounds over every key, about phase_s of ingest at NOMINAL_INGEST_RATE
        per_stack = max(1, round(phase_s * NOMINAL_INGEST_RATE / len(keys))) * len(keys)
    else:
        per_stack = int(phase_s * writer_rate) + 10  # slack: paced() sends what is due
    producer = Producer(keys, seed, STACKS * per_stack)
    consumer = Consumer()
    queries = probe_queries(seed, n_hosts) if ingest else query_mix(seed, keys)
    setup_s, rss = [], []
    reopened = 0  # samples on disk at each stack's start, summed
    query_s = write_s = cpu_s = 0.0

    # The whole stack runs on one CPU, inherited by the daemons: a query
    # crosses three processes, and wakeups across vCPUs made queries_per_s
    # scatter by a factor of two between runs (perfbench/README.md).
    all_cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(all_cpus)})
    try:
        for i in range(STACKS):
            reopened += n_history + producer.sent
            t0 = time.perf_counter()
            daemons = Daemons(work, archive, trace_dir, tag=str(i))
            try:
                daemons.wait_ready()
                setup_s.append(time.perf_counter() - t0)
                producer.connect(daemons.endpoints["importer"])
                consumer.connect(daemons.endpoints["directory"])
                done = threading.Event()
                cpu0 = daemons.cpu_s()
                start = time.perf_counter()
                deadline = start + phase_s
                if ingest:
                    writer = partial(producer.flood, producer.sent + per_stack)
                else:
                    writer = partial(producer.paced, start, deadline, writer_rate)
                thread = threading.Thread(target=producer.run, args=(writer, done))
                thread.start()
                if ingest:
                    probe_schedule(queries, n_hosts, start, done, consumer)
                else:
                    query_loop(queries, deadline, consumer)
                query_s += time.perf_counter() - start
                thread.join()
                if producer.error is not None:
                    raise RuntimeError(f"producer failed: {producer.error!r}")
                write_s += producer.done_at - start
                cpu_s += daemons.cpu_s() - cpu0
                rss.append(daemons.peak_rss_mb())
            finally:
                producer.close()
                consumer.close()
                daemons.stop()
    finally:
        os.sched_setaffinity(0, all_cpus)

    lines = producer.sent_lines()
    sent: dict = {}
    for key, t in lines:
        sent.setdefault(key, []).append(t)
    history = common.history_times()
    written = {}
    for host, metric in keys:
        ts = history + sent.get((host, metric), [])
        written[(host, metric)] = [(t, common.expected_value(host, metric, t, seed)) for t in ts]
    disk = common.read_archive(archive)
    problems = (checks.check_values(disk, seed)
                + checks.check_series(disk, keys, history, sent)
                + checks.check_ranges(consumer.ranges, written))
    for answers in consumer.latest_by_stack():  # each stack's directory starts with no cache
        problems += checks.check_latest_acked(answers, written, history[-1], CACHE_FRESHNESS_S,
                                              lines, producer.sends, producer.acks)
    lat = consumer.latency_us
    ops = producer.sent + consumer.answered
    return {
        "problems": problems,
        "attempted": producer.sent + consumer.answered + consumer.failed,
        "failed": consumer.failed + producer.rejected,
        "reopened_samples": reopened,
        "e2e": {
            "setup_s": common.median(setup_s),
            "samples_per_s": producer.sent / write_s,
            "queries_per_s": consumer.answered / query_s,
            "latest_cached_p50_us": common.median(lat["cache"]),
            "latest_upstream_p50_us": common.median(lat["upstream"]),
            "cpu_us_per_op": cpu_s * 1e6 / ops,
            "peak_rss_mb": max(rss),
        },
    }
