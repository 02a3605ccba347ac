"""Held client sessions: one way for every daemon to talk to its peers.

A SessionPool keeps idle sessions per endpoint. A call checks one out,
runs on it and checks it back in, so a peer pair costs one dial and one
HELLO for as long as the session lives, not one per request. A call raises
what the session raised: RequestError for an ERROR reply, an OSError or
ProtocolViolation for a failed session.
"""

from __future__ import annotations

import threading
from typing import Callable, TypeVar

from fabmon.wire.client import WireClient
from fabmon.wire.session import ProtocolViolation, RequestError

T = TypeVar("T")


def open_session(dial: Callable, endpoint: str, role: str, name: str,
                 timeout: float | None = 5.0) -> WireClient:
    """Dial endpoint and do the HELLO; a failed HELLO closes the channel and re-raises."""
    channel = dial(endpoint)
    try:
        return WireClient(channel, role=role, name=name, timeout=timeout)
    except BaseException:
        channel.close()
        raise


class SessionPool:
    def __init__(self, dial: Callable, role: str, name: str, timeout: float | None = 5.0):
        self.dial = dial
        self.role = role
        self.name = name
        self.timeout = timeout
        self._idle: dict[str, list[WireClient]] = {}  # endpoint -> idle sessions
        self._lock = threading.Lock()

    def _checkin(self, endpoint: str, client: WireClient) -> None:
        with self._lock:
            self._idle.setdefault(endpoint, []).append(client)

    def call(self, endpoint: str, fn: Callable[[WireClient], T]) -> T:
        """Run fn on an idle session to endpoint, or on a new one.

        Sessions are checked out, never shared: WireClient serializes its
        requests, and a federation cycle re-enters a directory's pool on the
        same thread. So an endpoint never has more sessions than it once had
        calls in flight. A session is returned after any reply, ERROR
        included (the RequestError still propagates). One that fails is
        closed, since a late reply would put its correlation ids out of
        step, and so are the endpoint's idle ones. Only when a reused
        session ended (EOF, reset, failed send) has the peer likely
        restarted, and fn is tried once more on a fresh dial; a timeout
        means a hung peer, which a redial would wait on again. A failed dial
        or HELLO raises the transport error it got.
        """
        with self._lock:
            idle = self._idle.get(endpoint)
            client = idle.pop() if idle else None
        while True:
            reused = client is not None
            if not reused:
                client = open_session(self.dial, endpoint, self.role, self.name, self.timeout)
            try:
                result = fn(client)
            except RequestError:
                self._checkin(endpoint, client)
                raise
            except (OSError, ProtocolViolation) as exc:
                client.close()
                self.close(keep=lambda e: e != endpoint)
                if reused and not isinstance(exc, (TimeoutError, ProtocolViolation)):
                    client = None
                    continue
                raise
            except BaseException:  # e.g. an undecodable reply: the session's state is unknown
                client.close()
                raise
            self._checkin(endpoint, client)
            return result

    def close(self, keep: Callable[[str], bool] = lambda endpoint: False) -> None:
        """Close the idle sessions of every endpoint keep() rejects (all, by default)."""
        with self._lock:
            dropped = [e for e in self._idle if not keep(e)]
            clients = [c for e in dropped for c in self._idle.pop(e)]
        for client in clients:
            client.close()
