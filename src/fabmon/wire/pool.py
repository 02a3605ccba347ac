"""Client sessions: one way for every daemon to talk to its peers.

A SessionPool keeps idle sessions per endpoint. A call checks one out,
runs on it and checks it back in, so a peer pair costs one dial and one
HELLO for as long as the session lives, not one per request. A call raises
what the session raised: RequestError for an ERROR reply, an OSError or
ProtocolViolation for a failed session.
"""

from __future__ import annotations

import logging
import threading
from typing import Callable, TypeVar

from fabmon.core import ResourcePath
from fabmon.wire.client import WireClient
from fabmon.wire.session import ProtocolViolation, RequestError

log = logging.getLogger(__name__)

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
        requests, and a federation cycle re-enters a directory's pool before
        its first call returns. So an endpoint never has more sessions than
        it once had calls in flight. A session is returned after any reply,
        ERROR included (the RequestError still propagates). One that fails is
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
            except BaseException:  # e.g. KeyboardInterrupt: the session's state is unknown
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


class Lease:
    """Registrations of subtrees served at endpoint, kept alive in a directory.

    keep() registers every subtree at once, then whenever half the lease has
    run out; release() deregisters them if a REGISTER went out, even one an
    interrupt cut short. No subtrees, no dial. Failures are logged: keep()
    tries again on its next call, and a directory down at release() leaves
    the lease to expire. Each round dials, runs and closes its own session:
    the directory serves each session on a thread, one per host if held.
    """

    def __init__(self, dial: Callable, directory: str, subtrees: list[ResourcePath],
                 kind: str, endpoint: str, ttl: int):
        self.dial = dial
        self.directory = directory
        self.subtrees = subtrees
        self.kind = kind
        self.endpoint = endpoint
        self.ttl = ttl  # seconds
        self.expires_at = 0  # unix ms, as the directory's last REPLY said
        self.sent = False  # a REGISTER went out since the last release()

    def _round(self, call: Callable[[WireClient, ResourcePath], int]) -> list[int] | None:
        try:
            client = open_session(self.dial, self.directory, "producer", self.endpoint)
            try:
                return [call(client, subtree) for subtree in self.subtrees]
            finally:
                client.close()
        except (OSError, ProtocolViolation, RequestError) as exc:
            log.info("directory %s: %s", self.directory, exc)
            return None

    def keep(self, now: int) -> None:
        if not self.subtrees or now < self.expires_at - self.ttl * 1000 // 2:
            return
        self.sent = True
        expiries = self._round(lambda c, s: c.register(s, self.kind, self.endpoint, self.ttl))
        if expiries:
            self.expires_at = min(expiries)

    def release(self) -> None:
        if self.sent:
            self._round(lambda c, s: c.deregister(s, self.endpoint))
            self.sent = False
            self.expires_at = 0
