"""Connection state machine shared by every daemon.

A session opens with a HELLO exchange; the dialing peer declares its role.
Producers push samples and manage registrations, consumers query. The server
sends a peer only HELLO, REPLY and ERROR lines. Messages out of state order
are protocol violations and end the session; per-message problems (bad
schema, rejected sample) get an ERROR reply and the session stays up.

The server half is transport-agnostic: a WireServer is handed decoded lines
by whatever is pumping the connection (an in-memory channel or a TCP reader
thread) and emits reply lines through the connection's send callback.
"""

from __future__ import annotations

import logging
import threading
from dataclasses import dataclass, field
from typing import Callable, Optional

from fabmon.core import Clock, MetricSample, ResourcePath
from fabmon.wire import codec
from fabmon.wire.codec import MalformedRecord, Message, SchemaViolation

log = logging.getLogger(__name__)

PRODUCER_KINDS = frozenset({"REGISTER", "DEREGISTER"})
CONSUMER_KINDS = frozenset({"QUERY_LATEST", "QUERY_RANGE", "QUERY_REGISTRY"})


class ProtocolViolation(RuntimeError):
    """Message arrived out of state order; the session is closed."""


class ConnectionLost(ConnectionError):
    """Transport died or the server closed the session."""


class RequestError(Exception):
    """A refused request, on both ends of the wire.

    A handler raises it to send ERROR with this code and message; the
    client raises the same class, code and message when that ERROR arrives.
    """

    def __init__(self, code: str, message: str = ""):
        self.code = code
        self.message = message or code
        super().__init__(f"{code}: {self.message}")


@dataclass(frozen=True)
class LatestResult:
    """A latest answer: what a handler returns and what a client gets back."""

    sample: Optional[MetricSample]
    stale: bool = False
    source: str = "none"  # cache | upstream | agent | archive | none

    @property
    def absent(self) -> bool:
        return self.sample is None


class WireHandler:
    """Server-side behaviour behind a wire endpoint; daemons subclass this.

    Unimplemented requests answer ERROR unsupported.
    """

    def on_sample(self, sample: MetricSample) -> None:
        raise RequestError("unsupported", "this endpoint does not accept samples")

    def on_query_latest(self, path: ResourcePath, metric: str, hops: int) -> LatestResult:
        raise RequestError("unsupported", "this endpoint does not answer latest queries")

    def on_query_range(
        self, path: ResourcePath, metric: str, t0: int, t1: int, hops: int
    ) -> list[MetricSample]:
        raise RequestError("unsupported", "this endpoint does not answer range queries")

    def on_query_registry(self) -> list[dict]:
        raise RequestError("unsupported", "this endpoint keeps no registry")

    def on_register(self, subtree: ResourcePath, kind: str, endpoint: str, ttl: int) -> int:
        raise RequestError("unsupported", "this endpoint does not take registrations")

    def on_deregister(self, subtree: ResourcePath, endpoint: str) -> int:
        raise RequestError("unsupported", "this endpoint does not take registrations")

    def on_bad_line(self, line: bytes, error: Exception) -> None:
        """Called for undecodable data lines; override to count rejects."""


@dataclass
class Connection:
    """One peer connection tracked by a WireServer."""

    send: Callable[[bytes], None]
    role: str | None = None  # None until HELLO
    closed: bool = False
    lock: threading.Lock = field(default_factory=threading.Lock)

    def push(self, line: bytes) -> bool:
        with self.lock:
            if self.closed:
                return False
            try:
                self.send(line)
                return True
            except Exception:
                self.closed = True
                return False


class WireServer:
    """Protocol front-end for one daemon: sessions and request dispatch."""

    def __init__(self, handler: WireHandler, clock: Clock, name: str = "server"):
        self.handler = handler
        self.clock = clock
        self.name = name
        self._conns: list[Connection] = []
        self._lock = threading.Lock()

    def attach(self, send: Callable[[bytes], None]) -> Connection:
        conn = Connection(send=send)
        with self._lock:
            self._conns.append(conn)
        return conn

    def detach(self, conn: Connection) -> None:
        conn.closed = True
        with self._lock:
            if conn in self._conns:
                self._conns.remove(conn)

    def connections(self) -> list[Connection]:
        with self._lock:
            return list(self._conns)

    # -- inbound ---------------------------------------------------------

    def handle_line(self, conn: Connection, line: bytes) -> None:
        if conn.closed:
            return
        try:
            decoded = codec.decode_wire_line(line)
        except SchemaViolation as exc:
            # an object with a "k" is a broken control message; everything
            # else counts as a rejected data line
            if exc.control:
                self._send_error(conn, "schema_violation", str(exc))
            else:
                self.handler.on_bad_line(line, exc)
                self._send_error(conn, "malformed_record", str(exc))
            return
        except MalformedRecord as exc:
            self.handler.on_bad_line(line, exc)
            self._send_error(conn, "malformed_record", str(exc))
            return

        if isinstance(decoded, MetricSample):
            self._handle_sample(conn, decoded)
        else:
            self._handle_message(conn, decoded)

    @staticmethod
    def _send_error(conn: Connection, code: str, message: str) -> None:
        """ERROR for a line, not a request, so it carries no cid."""
        conn.push(codec.encode_message(Message("ERROR", None, {"code": code, "message": message})))

    def _violation(self, conn: Connection, detail: str) -> None:
        self._send_error(conn, "protocol_violation", detail)
        conn.closed = True

    def _handle_sample(self, conn: Connection, sample: MetricSample) -> None:
        if conn.role != "producer":
            self._violation(conn, "SAMPLE requires an open producer session")
            return
        try:
            self.handler.on_sample(sample)
        except RequestError as exc:
            self._send_error(conn, exc.code, exc.message)
        except Exception:
            log.exception("sample handler failed")
            self._send_error(conn, "internal", "sample handler failed")

    def _handle_message(self, conn: Connection, msg: Message) -> None:
        if msg.kind == "HELLO":
            if conn.role is not None:
                self._violation(conn, "duplicate HELLO")
                return
            role = msg.body.get("role")
            if role is None:
                self._violation(conn, "HELLO must declare a role")
                return
            conn.role = role
            conn.push(codec.encode_message(Message("HELLO", msg.cid, {"name": self.name})))
            return

        if conn.role is None:
            self._violation(conn, f"{msg.kind} before HELLO")
            return
        if msg.kind in PRODUCER_KINDS and conn.role != "producer":
            self._violation(conn, f"{msg.kind} requires a producer session")
            return
        if msg.kind in CONSUMER_KINDS and conn.role != "consumer":
            self._violation(conn, f"{msg.kind} requires a consumer session")
            return
        if msg.kind in ("REPLY", "ERROR"):
            self._violation(conn, f"unexpected {msg.kind} from peer")
            return

        try:
            reply = self._dispatch(msg)
        except RequestError as exc:
            reply = Message("ERROR", msg.cid, {"code": exc.code, "message": exc.message})
        except Exception:
            log.exception("request handler failed for %s", msg.kind)
            reply = Message("ERROR", msg.cid, {"code": "internal", "message": "handler failed"})
        conn.push(codec.encode_message(reply))

    def _dispatch(self, msg: Message) -> Message:
        body = msg.body
        if msg.kind == "QUERY_LATEST":
            result = self.handler.on_query_latest(body["path"], body["metric"], body.get("hops", 0))
            if result.sample is None:
                return Message("REPLY", msg.cid, {"sample": None})
            return Message("REPLY", msg.cid, {
                "sample": result.sample, "stale": result.stale, "source": result.source})
        if msg.kind == "QUERY_RANGE":
            samples = self.handler.on_query_range(
                body["path"], body["metric"], body["t0"], body["t1"], body.get("hops", 0))
            return Message("REPLY", msg.cid, {"samples": samples})
        if msg.kind == "QUERY_REGISTRY":
            return Message("REPLY", msg.cid, {"registrations": self.handler.on_query_registry()})
        if msg.kind == "REGISTER":
            expires_at = self.handler.on_register(
                body["subtree"], body["kind"], body["endpoint"], body["ttl"])
            return Message("REPLY", msg.cid, {"expires_at": expires_at})
        if msg.kind == "DEREGISTER":
            removed = self.handler.on_deregister(body["subtree"], body["endpoint"])
            return Message("REPLY", msg.cid, {"ok": True, "removed": removed})
        raise RequestError("unsupported", f"no dispatch for {msg.kind}")  # pragma: no cover

