"""Transports: in-memory channels for tests/simulation, TCP for deployment.

Both present the same tiny interface: send(line), recv(timeout) -> line or
None on EOF, close(). A send on a closed or broken channel raises
ConnectionLost. The in-memory channel dispatches synchronously into a
WireServer, which keeps single-threaded tests and the simulated fabric
fully deterministic.
"""

from __future__ import annotations

import logging
import socket
import socketserver
import threading
from collections import deque

from fabmon.wire.session import Connection, ConnectionLost, WireServer

log = logging.getLogger(__name__)

MAX_LINE = 1 << 20  # 1 MiB per record line is already absurd


class MemoryChannel:
    """Client end of an in-process connection to a WireServer.

    send() runs the server's handler inline; the server's reply lines land
    in the inbox for recv(). Safe for cross-thread use.
    """

    def __init__(self, server: WireServer):
        self._server = server
        self._inbox: deque[bytes] = deque()
        self._cond = threading.Condition()
        self._closed = False
        self._conn: Connection = server.attach(self._push)

    def _push(self, line: bytes) -> None:
        with self._cond:
            self._inbox.append(line)
            self._cond.notify_all()

    def send(self, line: bytes) -> None:
        if self._closed or self._conn.closed:
            raise ConnectionLost("channel is closed")
        self._server.handle_line(self._conn, line)
        if self._conn.closed:
            # server terminated the session; drain what was sent, then EOF
            with self._cond:
                self._cond.notify_all()

    def recv(self, timeout: float | None = None) -> bytes | None:
        with self._cond:
            while not self._inbox:
                if self._closed or self._conn.closed:
                    return None
                if timeout == 0:
                    return None
                if not self._cond.wait(timeout=timeout):
                    raise TimeoutError("recv timed out")
            return self._inbox.popleft()

    def close(self) -> None:
        self._closed = True
        self._server.detach(self._conn)
        with self._cond:
            self._cond.notify_all()

    @property
    def closed(self) -> bool:
        return self._closed or self._conn.closed


def connect_memory(server: WireServer) -> MemoryChannel:
    return MemoryChannel(server)


class TcpChannel:
    """Line transport over a connected TCP socket."""

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._rfile = sock.makefile("rb")
        self._wlock = threading.Lock()
        self._closed = False

    def send(self, line: bytes) -> None:
        if self._closed:
            raise ConnectionLost("channel is closed")
        try:
            with self._wlock:
                self._sock.sendall(line)
        except OSError as exc:
            self._closed = True
            raise ConnectionLost(str(exc)) from exc

    def recv(self, timeout: float | None = None) -> bytes | None:
        if self._closed:
            return None
        if timeout == 0:
            timeout = 0.001  # poll; settimeout(0) would flip non-blocking
        try:
            self._sock.settimeout(timeout)
            line = self._rfile.readline(MAX_LINE)
        except socket.timeout:
            raise TimeoutError("recv timed out") from None
        except OSError:
            return None
        return line if line else None

    def close(self) -> None:
        self._closed = True
        try:
            self._sock.close()
        except OSError:
            pass

    @property
    def closed(self) -> bool:
        return self._closed


def parse_endpoint(endpoint: str) -> tuple[str, int]:
    host, _, port = endpoint.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"endpoint must be host:port, got {endpoint!r}")
    return host, int(port)


def tcp_dial(endpoint: str, timeout: float = 5.0) -> TcpChannel:
    host, port = parse_endpoint(endpoint)
    sock = socket.create_connection((host, port), timeout=timeout)
    sock.settimeout(None)
    return TcpChannel(sock)


class _ConnHandler(socketserver.StreamRequestHandler):
    def handle(self):
        server: TcpWireServer = self.server  # type: ignore[assignment]
        wlock = threading.Lock()

        def send(line: bytes) -> None:
            with wlock:
                self.wfile.write(line)
                self.wfile.flush()

        conn = server.wire.attach(send)
        try:
            while not conn.closed:
                line = self.rfile.readline(MAX_LINE)
                if not line:
                    break
                server.wire.handle_line(conn, line)
        except OSError:
            pass
        finally:
            server.wire.detach(conn)


class TcpWireServer(socketserver.ThreadingTCPServer):
    """Thread-per-connection TCP front for a WireServer."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, wire: WireServer, host: str = "127.0.0.1", port: int = 0):
        self.wire = wire
        super().__init__((host, port), _ConnHandler)
        self._thread: threading.Thread | None = None

    @property
    def endpoint(self) -> str:
        addr = self.server_address
        return f"{addr[0]}:{addr[1]}"

    def start(self) -> "TcpWireServer":
        self._thread = threading.Thread(
            target=self.serve_forever, name=f"wire-{self.wire.name}", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self.shutdown()
        self.server_close()
        if self._thread:
            self._thread.join(timeout=5)
