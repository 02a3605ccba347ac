from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import time

import pytest

from conftest import EPOCH_MS, make_sample
from fabmon.core import ResourcePath, SimClock, SystemClock
from fabmon.archive import Importer, MemoryStore
from fabmon.directory import DirectoryService
from fabmon.probe import publish_snapshot
from fabmon.surface import SurfaceConfig, SurfaceServer, render_text_status
from fabmon.wire import TcpWireServer, WireClient, connect_memory, tcp_dial
from golden_fixtures import fixed_snapshot

P = ResourcePath.parse
GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def _get(endpoint: str, path: str):
    conn = http.client.HTTPConnection(endpoint, timeout=10)
    conn.request("GET", path)
    resp = conn.getresponse()
    body = resp.read()
    conn.close()
    return resp.status, body


@pytest.fixture
def store():
    store = MemoryStore()
    for i in range(5):
        store.append(make_sample(ts=EPOCH_MS + i * 1000, value=i))
    return store


@pytest.fixture
def directory(store):
    """A directory with one archive, over store, registered for bnl."""
    clock = SimClock(EPOCH_MS)
    importer = Importer(store, clock)
    directory = DirectoryService(clock, lambda ep: connect_memory(importer.server), name="dir")
    directory.registry.register(P("bnl"), "archive", "arch:1", 6000, clock.now())
    return directory


@pytest.fixture
def stack(tmp_path, directory, store):
    """Published snapshot + directory + archive behind a surface server.

    The surface reaches the directory in memory, as the directory daemon's
    own copy of the surface does.
    """
    publish_snapshot(fixed_snapshot(), tmp_path)
    server = SurfaceServer(SurfaceConfig(
        snapshot_dir=str(tmp_path), host="127.0.0.1", port=0, directory_endpoint="dir:1",
        dial=lambda endpoint: connect_memory(directory.server))).start()
    yield server, tmp_path, store
    server.stop()


class TestHttp:
    def test_healthz(self, stack):
        server, _, _ = stack
        status, body = _get(server.endpoint, "/healthz")
        assert (status, body) == (200, b"ok\n")

    def test_snapshot_verbatim(self, stack):
        server, tmp_path, _ = stack
        status, body = _get(server.endpoint, "/snapshot")
        assert status == 200
        assert body == (tmp_path / "snapshot.json").read_bytes()

    def test_sites_listing(self, stack):
        server, _, _ = stack
        status, body = _get(server.endpoint, "/sites")
        assert status == 200
        assert json.loads(body) == {
            "schema": 1,
            "sites": [
                {"site": "bnl", "status": "fail"},
                {"site": "uta", "status": "unreachable"},
            ],
        }

    def test_single_site(self, stack):
        server, _, _ = stack
        status, body = _get(server.endpoint, "/sites/bnl")
        assert status == 200
        site = json.loads(body)
        assert site["schema"] == 1
        assert site["site"] == "bnl"
        assert [h["host"] for h in site["hosts"]] == ["bnl/farm/n1", "bnl/farm/n2"]

    def test_unknown_site_404(self, stack):
        server, _, _ = stack
        assert _get(server.endpoint, "/sites/unknown")[0] == 404

    def test_unknown_path_404(self, stack):
        server, _, _ = stack
        assert _get(server.endpoint, "/bogus")[0] == 404

    def test_registry_dump(self, stack):
        server, _, _ = stack
        status, body = _get(server.endpoint, "/registry")
        assert status == 200
        payload = json.loads(body)
        assert payload["schema"] == 1
        entries = payload["registrations"]
        assert [e["subtree"] for e in entries] == ["bnl"]
        assert entries[0]["kind"] == "archive"

    def test_metrics_range_equals_direct_query(self, stack):
        server, _, store = stack
        status, body = _get(
            server.endpoint,
            f"/metrics/bnl/farm/n1/cpu.load1?from={EPOCH_MS}&to={EPOCH_MS + 3000}")
        assert status == 200
        payload = json.loads(body)
        assert payload["schema"] == 1
        got = payload["samples"]
        direct = store.range(P("bnl/farm/n1"), "cpu.load1", EPOCH_MS, EPOCH_MS + 3000)
        assert [s["t"] for s in got] == [s.timestamp for s in direct]
        assert [s["v"] for s in got] == [s.value for s in direct]

    def test_metrics_requests_share_one_directory_session(self, directory, tmp_path):
        dials = []

        def dial(endpoint):
            dials.append(endpoint)
            return connect_memory(directory.server)

        standalone = SurfaceServer(SurfaceConfig(
            snapshot_dir=str(tmp_path), host="127.0.0.1", port=0,
            directory_endpoint="dir:1", dial=dial)).start()
        try:
            for _ in range(2):
                status, body = _get(standalone.endpoint, "/metrics/bnl/farm/n1/cpu.load1")
                assert status == 200
                assert len(json.loads(body)["samples"]) == 5
        finally:
            standalone.stop()
        assert dials == ["dir:1"]
        assert directory.server.connections() == []  # closed with the server

    def test_metrics_errors_answer_502(self, stack):
        server, _, _ = stack
        for path, code in (("/metrics/uta/farm/n1/cpu.load1", "no_provider"),
                           ("/metrics/bnl/farm/n1/cpu.load1?from=10&to=5", "invalid_range")):
            status, body = _get(server.endpoint, path)
            assert status == 502, body
            assert json.loads(body)["error"].startswith(f"{code}: ")

    def test_directory_that_speaks_http_answers_502(self, stack, tmp_path):
        # an old config may still name a directory's HTTP port as the directory
        other, _, _ = stack
        server = SurfaceServer(SurfaceConfig(
            snapshot_dir=str(tmp_path), host="127.0.0.1", port=0,
            directory_endpoint=other.endpoint, dial=tcp_dial)).start()
        try:
            for path in ("/registry", "/metrics/bnl/farm/n1/cpu.load1"):
                status, body = _get(server.endpoint, path)
                assert status == 502, body
                assert json.loads(body)["error"].startswith("undecodable reply to HELLO: ")
        finally:
            server.stop()

    def test_no_snapshot_yet_503(self, tmp_path):
        server = SurfaceServer(SurfaceConfig(
            snapshot_dir=str(tmp_path / "empty"), host="127.0.0.1", port=0)).start()
        try:
            assert _get(server.endpoint, "/snapshot")[0] == 503
            assert _get(server.endpoint, "/sites")[0] == 503
        finally:
            server.stop()

    def test_registry_unavailable_503(self, tmp_path):
        server = SurfaceServer(SurfaceConfig(
            snapshot_dir=str(tmp_path), host="127.0.0.1", port=0)).start()
        try:
            assert _get(server.endpoint, "/registry")[0] == 503
        finally:
            server.stop()

    def test_read_only_surface(self, stack):
        server, tmp_path, store = stack
        before = (tmp_path / "snapshot.json").read_bytes()
        keys_before = store.keys()
        for path in ("/snapshot", "/sites", "/sites/bnl", "/registry",
                     f"/metrics/bnl/farm/n1/cpu.load1?from=1&to={EPOCH_MS + 9000}"):
            _get(server.endpoint, path)
        assert (tmp_path / "snapshot.json").read_bytes() == before
        assert store.keys() == keys_before


class TestTextView:
    def test_golden_rendering(self):
        snapshot = json.loads(open(os.path.join(GOLDEN, "snapshot.json")).read())
        text = render_text_status(snapshot)
        assert text == open(os.path.join(GOLDEN, "status.txt")).read()

    def test_worst_site_first(self):
        snapshot = json.loads(open(os.path.join(GOLDEN, "snapshot.json")).read())
        lines = render_text_status(snapshot).splitlines()
        site_lines = [l for l in lines if l.startswith("SITE")]
        assert site_lines[0].startswith("SITE uta")  # unreachable beats fail

    def test_missing_values_render_dash(self):
        snapshot = json.loads(open(os.path.join(GOLDEN, "snapshot.json")).read())
        row = next(l for l in render_text_status(snapshot).splitlines()
                   if l.startswith("uta/farm/n1"))
        assert row.split()[2:] == ["-", "-", "-", "-"]

    def test_pure_function(self):
        snapshot = json.loads(open(os.path.join(GOLDEN, "snapshot.json")).read())
        assert render_text_status(snapshot) == render_text_status(snapshot)

    def test_latest_overrides(self):
        snapshot = json.loads(open(os.path.join(GOLDEN, "snapshot.json")).read())
        text = render_text_status(snapshot, {"uta/farm/n1": {"cpu_load1": 9.99}})
        row = next(l for l in text.splitlines() if l.startswith("uta/farm/n1"))
        assert "9.99" in row


def _cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "fabmon.surface.cli", *args],
        capture_output=True, text=True, timeout=120, **kwargs)


def _free_ports(n: int) -> list[int]:
    ports = []
    for _ in range(n):
        with socket.socket() as s:
            s.bind(("127.0.0.1", 0))
            ports.append(s.getsockname()[1])
    return ports


def _listening(endpoint: str) -> bool:
    host, _, port = endpoint.rpartition(":")
    try:
        socket.create_connection((host, int(port)), timeout=1).close()
        return True
    except OSError:
        return False


def _signal_after(args: list[str], ready, signum=signal.SIGTERM,
                  **popen) -> tuple[int, bytes]:
    """Start a CLI daemon, send it signum once ready() holds; (exit code, stderr)."""
    proc = subprocess.Popen([sys.executable, "-m", "fabmon.surface.cli", *args],
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, **popen)
    try:
        deadline = time.monotonic() + 30
        while not ready():
            assert proc.poll() is None and time.monotonic() < deadline, "never ready"
            time.sleep(0.05)
        proc.send_signal(signum)
        _, stderr = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return proc.returncode, stderr


class TestCli:
    def test_unknown_subcommand_exits_2(self):
        proc = _cli("frobnicate")
        assert proc.returncode == 2
        assert "invalid choice" in proc.stderr

    def test_missing_args_exit_2(self):
        assert _cli("query", "latest").returncode == 2

    def test_status_renders_snapshot(self, tmp_path):
        publish_snapshot(fixed_snapshot(), tmp_path)
        proc = _cli("status", "--snapshot-dir", str(tmp_path))
        assert proc.returncode == 0
        assert proc.stdout == open(os.path.join(GOLDEN, "status.txt")).read()

    def test_status_without_snapshot_exits_1(self, tmp_path):
        proc = _cli("status", "--snapshot-dir", str(tmp_path / "nope"))
        assert proc.returncode == 1

    def test_sim_run_reports(self, tmp_path):
        report = tmp_path / "report.json"
        proc = _cli("sim", "run", "--hosts", "6", "--sites", "2",
                    "--minutes", "2", "--seed", "5", "--report", str(report))
        assert proc.returncode == 0, proc.stderr
        assert "all invariants held" in proc.stdout
        data = json.loads(report.read_text())
        assert data["schema"] == 1
        assert data["counts"]["produced"] == data["counts"]["ingested"]

    def test_sim_run_deterministic_reports(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            proc = _cli("sim", "run", "--hosts", "4", "--sites", "2",
                        "--minutes", "2", "--seed", "9", "--report", str(out))
            assert proc.returncode == 0
        assert a.read_bytes() == b.read_bytes()

    def test_directory_stops_cleanly_on_sigterm(self, tmp_path):
        ports = _free_ports(2)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"endpoints": {
            "directory": f"127.0.0.1:{ports[0]}", "directory_http": f"127.0.0.1:{ports[1]}"}}))
        code, stderr = _signal_after(["directory", "run", "--config", str(config)],
                                     lambda: _listening(f"127.0.0.1:{ports[0]}"))
        assert code == 0, stderr

    def test_directory_sigterm_as_soon_as_it_listens(self, tmp_path):
        # each daemon's wire port listens before it has started its threads;
        # the importer's and agent's peers refuse, so nothing else answers
        for attempt, daemon in enumerate(["directory", "importer", "agent"] * 3):
            ports = _free_ports(5)
            listen = f"127.0.0.1:{ports[0]}"
            config = tmp_path / f"config{attempt}.json"
            config.write_text(json.dumps({
                "host_path": "bnl/farm/n1",
                "endpoints": {
                    "directory": listen if daemon == "directory" else f"127.0.0.1:{ports[1]}",
                    "directory_http": f"127.0.0.1:{ports[2]}",
                    "importer": f"127.0.0.1:{ports[3]}",
                    "agent": listen},
                "importer": {"store": "memory", "listen": listen, "subtrees": ["bnl"]}}))

            def listening() -> bool:
                deadline = time.monotonic() + 30
                while time.monotonic() < deadline:
                    try:
                        socket.create_connection(("127.0.0.1", ports[0]), timeout=1).close()
                        return True
                    except OSError:
                        pass
                return False

            code, stderr = _signal_after([daemon, "run", "--config", str(config)], listening)
            assert code == 0, (daemon, stderr)
            assert b"Traceback" not in stderr, (daemon, stderr)

    def test_importer_deregisters_on_sigterm(self, tmp_path):
        directory = DirectoryService(SystemClock(), tcp_dial, name="dir")
        wire = TcpWireServer(directory.server).start()
        endpoint = f"127.0.0.1:{_free_ports(1)[0]}"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "endpoints": {"directory": wire.endpoint},
            "importer": {"store": "memory", "listen": endpoint, "subtrees": ["bnl", "uta"],
                         "registration_ttl_s": 120}}))
        try:
            code, stderr = _signal_after(
                ["importer", "run", "--config", str(config)],
                lambda: len(directory.registry_dump()) == 2)
            assert code == 0, stderr
            # gone at once, not when the 120 s lease runs out
            assert directory.registry_dump() == []
        finally:
            wire.stop()
            directory.close()

    @pytest.mark.parametrize("daemon", ["directory", "importer"])
    def test_daemon_stops_on_sigint_started_with_it_ignored(self, tmp_path, daemon):
        # a background job of a non-interactive shell starts with SIGINT ignored
        ports = _free_ports(3)
        listen = f"127.0.0.1:{ports[0]}"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "endpoints": {"directory": listen if daemon == "directory" else f"127.0.0.1:{ports[1]}",
                          "directory_http": f"127.0.0.1:{ports[2]}"},
            "importer": {"store": "memory", "listen": listen}}))
        code, stderr = _signal_after(
            [daemon, "run", "--config", str(config)], lambda: _listening(listen),
            signal.SIGINT, preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_IGN))
        assert code == 0, stderr

    def test_query_against_unreachable_directory_exits_1(self):
        proc = _cli("query", "latest", "bnl/farm/n1", "cpu.load1",
                    "--directory", "127.0.0.1:9")
        assert proc.returncode == 1

    def test_query_against_an_http_endpoint_exits_1(self, live_directory):
        _, eps = live_directory
        for args in (["query", "latest", "bnl/farm/n1", "cpu.load1"], ["registry", "ls"]):
            proc = _cli(*args, "--directory", eps["directory_http"])
            assert proc.returncode == 1, proc.stderr
            assert "undecodable reply to HELLO" in proc.stderr
            assert "Traceback" not in proc.stderr

    def test_registry_ls_prints_the_registrations(self, live_directory):
        config, eps = live_directory
        for args in (["--directory", eps["directory"]], ["--config", str(config)]):
            proc = _cli("registry", "ls", *args)
            assert proc.returncode == 0, proc.stderr
            rows = [line.split() for line in proc.stdout.splitlines()]
            assert [row[:3] for row in rows] == [["bnl", "archive", "127.0.0.1:9812"],
                                                 ["bnl/farm/n1", "agent", "127.0.0.1:9810"]]
            assert [row[3] for row in rows] == ["ttl=600s", "ttl=60s"]

    def test_registry_same_on_directory_listener_and_serve(self, live_directory):
        config, eps = live_directory
        serve = subprocess.Popen([sys.executable, "-m", "fabmon.surface.cli", "serve",
                                  "--config", str(config)],
                                 stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            deadline = time.monotonic() + 30
            while not _listening(eps["http"]):
                assert serve.poll() is None and time.monotonic() < deadline, "serve never listened"
                time.sleep(0.05)
            status, body = _get(eps["directory_http"], "/registry")
            assert status == 200, body
            assert [e["subtree"] for e in json.loads(body)["registrations"]] == [
                "bnl", "bnl/farm/n1"]
            assert _get(eps["http"], "/registry") == (status, body)
        finally:
            serve.terminate()
            serve.wait(timeout=30)


@pytest.fixture
def live_directory(tmp_path):
    """`fabmon directory run` on free ports with two registrations; (config, endpoints)."""
    ports = _free_ports(3)
    eps = {"directory": f"127.0.0.1:{ports[0]}", "directory_http": f"127.0.0.1:{ports[1]}",
           "http": f"127.0.0.1:{ports[2]}"}
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"endpoints": eps}))
    proc = subprocess.Popen([sys.executable, "-m", "fabmon.surface.cli", "directory", "run",
                             "--config", str(config)],
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 30
        while not (_listening(eps["directory"]) and _listening(eps["directory_http"])):
            assert proc.poll() is None and time.monotonic() < deadline, "directory never listened"
            time.sleep(0.05)
        producer = WireClient(tcp_dial(eps["directory"]), role="producer", name="test")
        producer.register(P("bnl"), "archive", "127.0.0.1:9812", 600)
        producer.register(P("bnl/farm/n1"), "agent", "127.0.0.1:9810", 60)
        producer.close()
        yield config, eps
    finally:
        proc.terminate()
        proc.wait(timeout=30)
