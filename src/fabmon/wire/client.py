"""Client side of the wire protocol: hello, publish, query, register.

An ERROR reply raises the RequestError the handler raised, with its code
and message. A dead transport raises an OSError: ConnectionLost when the
session ended, TimeoutError when no reply came in time. A reply that does
not decode (the peer does not speak the protocol) raises ProtocolViolation.
"""

from __future__ import annotations

import itertools
import threading

from fabmon.core import MetricSample, ResourcePath
from fabmon.wire import codec
from fabmon.wire.codec import MalformedRecord, Message, SchemaViolation
from fabmon.wire.session import ConnectionLost, LatestResult, ProtocolViolation, RequestError


class WireClient:
    """One session over a channel; does the HELLO exchange on construction."""

    def __init__(self, channel, role: str, name: str = "", timeout: float | None = 5.0):
        self._channel = channel
        self._cids = itertools.count(1)
        self._lock = threading.Lock()
        self.role = role
        self.name = name
        self.timeout = timeout
        self._hello()

    def _hello(self) -> None:
        reply = self._request("HELLO", {"role": self.role, "name": self.name})
        if reply.kind != "HELLO":
            raise ProtocolViolation(f"expected HELLO reply, got {reply.kind}")
        self.server_name = reply.body.get("name", "")

    def _request(self, kind: str, body: dict) -> Message:
        with self._lock:
            cid = next(self._cids)
            self._channel.send(codec.encode_message(Message(kind, cid, body)))
            while True:
                try:
                    line = self._channel.recv(self.timeout)
                except TimeoutError as exc:
                    raise TimeoutError(f"no reply to {kind}: {exc}") from None
                if line is None:
                    raise ConnectionLost(f"session closed awaiting reply to {kind}")
                try:
                    decoded = codec.decode_wire_line(line)
                except (MalformedRecord, SchemaViolation) as exc:
                    raise ProtocolViolation(f"undecodable reply to {kind}: {exc}") from None
                if isinstance(decoded, MetricSample):
                    raise ProtocolViolation(f"record line while awaiting reply to {kind}")
                if decoded.cid != cid:
                    # ERROR replies to samples this client published carry a null cid
                    if decoded.kind == "ERROR" and decoded.cid is None:
                        continue
                    raise ProtocolViolation(f"correlation id mismatch: {decoded}")
                if decoded.kind == "ERROR":
                    raise RequestError(decoded.body["code"], decoded.body.get("message", ""))
                return decoded

    # -- producer verbs ---------------------------------------------------

    def publish(self, sample: MetricSample) -> None:
        with self._lock:
            self._channel.send(codec.encode_sample(sample))

    def register(self, subtree: ResourcePath, kind: str, endpoint: str, ttl: int) -> int:
        reply = self._request("REGISTER", {
            "subtree": subtree, "kind": kind, "endpoint": endpoint, "ttl": ttl})
        return reply.body["expires_at"]

    def deregister(self, subtree: ResourcePath, endpoint: str) -> int:
        reply = self._request("DEREGISTER", {"subtree": subtree, "endpoint": endpoint})
        return reply.body.get("removed", 0)

    # -- consumer verbs ---------------------------------------------------

    def query_latest(self, path: ResourcePath, metric: str, hops: int = 0) -> LatestResult:
        body = {"path": path, "metric": metric}
        if hops:
            body["hops"] = hops
        reply = self._request("QUERY_LATEST", body)
        sample = reply.body.get("sample")
        if sample is None:
            return LatestResult(None)
        return LatestResult(
            sample=sample,
            stale=reply.body.get("stale", False),
            source=reply.body.get("source", "upstream"),
        )

    def query_range(
        self, path: ResourcePath, metric: str, t0: int, t1: int, hops: int = 0
    ) -> list[MetricSample]:
        body = {"path": path, "metric": metric, "t0": t0, "t1": t1}
        if hops:
            body["hops"] = hops
        reply = self._request("QUERY_RANGE", body)
        return reply.body.get("samples", [])

    def query_registry(self) -> list[dict]:
        return self._request("QUERY_REGISTRY", {}).body.get("registrations", [])

    def close(self) -> None:
        self._channel.close()
