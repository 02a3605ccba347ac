"""Read-only HTTP surface.

Serves the published snapshot verbatim (byte-for-byte the file on disk),
filtered site views, and the directory's live registrations and telemetry
history, both asked over the wire on held directory sessions. Handlers are
stateless and never mutate anything.

    GET /healthz                         process liveness
    GET /snapshot                        current snapshot.json, verbatim
    GET /sites                           [{site, status}, ...]
    GET /sites/{site}                    one site's report
    GET /registry                        live registrations
    GET /metrics/{path...}/{metric}?from=&to=   history via the directory
"""

from __future__ import annotations

import json
import logging
import threading
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Callable, Optional
from urllib.parse import parse_qs, urlsplit

from fabmon.core import MalformedPath, ResourcePath
from fabmon.probe.snapshot import SCHEMA_VERSION
from fabmon.wire.client import WireClient
from fabmon.wire.codec import sample_to_obj
from fabmon.wire.pool import SessionPool
from fabmon.wire.session import ProtocolViolation, RequestError

log = logging.getLogger(__name__)


@dataclass
class SurfaceConfig:
    snapshot_dir: str = ""
    directory_endpoint: str = ""  # wire endpoint, for /registry and /metrics
    host: str = "127.0.0.1"
    port: int = 9800
    dial: Optional[Callable] = None


class _Handler(BaseHTTPRequestHandler):
    server_version = "fabmon-surface/0.1"
    protocol_version = "HTTP/1.1"

    def log_message(self, fmt, *args):  # route through logging, not stderr
        log.debug("http: " + fmt, *args)

    # -- helpers -----------------------------------------------------------

    def _send(self, code: int, body: bytes, content_type: str = "application/json") -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _json(self, code: int, obj: dict) -> None:
        # every JSON body declares the snapshot schema version it speaks
        body = {"schema": SCHEMA_VERSION}
        body.update(obj)
        self._send(code, (json.dumps(body, sort_keys=True, indent=2) + "\n").encode())

    def _error(self, code: int, message: str) -> None:
        self._json(code, {"error": message})

    def _snapshot_bytes(self) -> bytes | None:
        cfg: SurfaceConfig = self.server.config  # type: ignore[attr-defined]
        if not cfg.snapshot_dir:
            return None
        path = Path(cfg.snapshot_dir) / "snapshot.json"
        try:
            return path.read_bytes()
        except OSError:
            return None

    # -- routes ------------------------------------------------------------

    def do_GET(self):  # noqa: N802 (stdlib naming)
        try:
            self._route()
        except BrokenPipeError:
            pass
        except Exception:
            log.exception("handler failed for %s", self.path)
            try:
                self._error(500, "internal error")
            except OSError:
                pass

    def _route(self):
        url = urlsplit(self.path)
        parts = [p for p in url.path.split("/") if p]

        if url.path == "/healthz":
            self._send(200, b"ok\n", "text/plain")
            return

        if url.path == "/snapshot":
            raw = self._snapshot_bytes()
            if raw is None:
                self._error(503, "no snapshot published yet")
            else:
                self._send(200, raw)
            return

        if parts and parts[0] == "sites":
            raw = self._snapshot_bytes()
            if raw is None:
                self._error(503, "no snapshot published yet")
                return
            snapshot = json.loads(raw)
            if len(parts) == 1:
                self._json(200, {"sites": [
                    {"site": s["site"], "status": s["status"]} for s in snapshot["sites"]]})
                return
            if len(parts) == 2:
                for s in snapshot["sites"]:
                    if s["site"] == parts[1]:
                        self._json(200, dict(s))
                        return
                self._error(404, f"unknown site {parts[1]!r}")
                return
            self._error(404, "not found")
            return

        if url.path == "/registry":
            self._from_directory(lambda c: {"registrations": c.query_registry()})
            return

        if parts and parts[0] == "metrics":
            if len(parts) < 3:
                self._error(404, "need /metrics/{path...}/{metric}")
                return
            path_text = "/".join(parts[1:-1])
            metric = parts[-1]
            query = parse_qs(url.query)
            try:
                path = ResourcePath.parse(path_text)
                t0 = max(1, int(query.get("from", ["0"])[0] or 0))
                t1 = int(query.get("to", [str(1 << 62)])[0] or (1 << 62))
            except (MalformedPath, ValueError) as exc:
                self._error(404, f"bad query: {exc}")
                return
            self._from_directory(lambda c: {
                "path": path_text, "metric": metric,
                "samples": [sample_to_obj(s) for s in c.query_range(path, metric, t0, t1)]})
            return

        self._error(404, "not found")

    def _from_directory(self, answer: Callable[[WireClient], dict]) -> None:
        """200 with answer() run on a pooled directory session, 502 if that fails."""
        cfg: SurfaceConfig = self.server.config  # type: ignore[attr-defined]
        if not (cfg.dial and cfg.directory_endpoint):
            self._error(503, "no directory configured")
            return
        try:
            body = self.server.pool.call(  # type: ignore[attr-defined]
                cfg.directory_endpoint, answer)
        except (OSError, ProtocolViolation, RequestError) as exc:
            self._error(502, str(exc))
            return
        self._json(200, body)


class SurfaceServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, config: SurfaceConfig):
        self.config = config
        # held directory sessions: at most one per request in flight
        self.pool = SessionPool(config.dial, "consumer", "surface")
        super().__init__((config.host, config.port), _Handler)
        self._thread: threading.Thread | None = None

    @property
    def endpoint(self) -> str:
        return f"{self.server_address[0]}:{self.server_address[1]}"

    def start(self) -> "SurfaceServer":
        self._thread = threading.Thread(target=self.serve_forever, name="surface", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self.shutdown()
        self.server_close()
        if self._thread:
            self._thread.join(timeout=5)

    def server_close(self) -> None:
        super().server_close()
        self.pool.close()
