"""Spans around calls into fabmon's layers, recorded from outside src/.

install() replaces a layer's public functions (and the few seams named
below) with wrappers that record one span per call: name, start, end, the
span that caused it and its own id. Spans stay in per-thread arrays until
dump(), which writes them out together with per-process aggregates; the
benchmark merges the aggregates of every process into the per-layer
metrics (layer_metrics()).

A layer's self time is its span's duration minus the time covered by its
child spans. Nothing here runs unless a traced run asks for it.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from array import array
from pathlib import Path

# client session names whose queries a user issues (the probe in the
# simulated fabric, the benchmark's consumer over TCP); every other
# client is a daemon's upstream session
USER_CLIENTS = ("probe", "perfbench")

# spans whose individual durations are kept for percentiles
_PERCENTILE_SPANS = ("wire.client.query_latest", "wire.client.query_range")
_UPSTREAM_PARTS = ("wire.channel.open", "wire.client.hello",
                   "wire.client.upstream_latest", "wire.client.upstream_range")
_DIRECTORY_SPANS = ("directory.service.query_latest", "directory.service.query_history")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._buffers: list[array] = []
        self._lock = threading.Lock()
        self.counters: dict[str, int] = {}

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            with self._lock:
                nid = self._name_ids.setdefault(name, len(self.names))
                if nid == len(self.names):
                    self.names.append(name)
        return nid

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([0], array("q"))
            with self._lock:
                self._buffers.append(state[1])
        return state

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + n

    def wrap(self, name, fn, on_result=None):
        """Wrap fn; name is a span name or a function of the call's args."""
        fixed = None if callable(name) else self._name_id(name)
        ids, clock, state = self._ids, time.perf_counter_ns, self._state

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nid = fixed if fixed is not None else self._name_id(name(args))
            stack, buf = state()
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                buf.extend((nid, t0, t1, sid, parent))
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def spans(self):
        """Every recorded span as (name, start_ns, end_ns, span_id, parent_id)."""
        with self._lock:
            buffers = list(self._buffers)
        for buf in buffers:
            for i in range(0, len(buf) - len(buf) % 5, 5):
                yield self.names[buf[i]], buf[i + 1], buf[i + 2], buf[i + 3], buf[i + 4]

    def aggregate(self) -> dict:
        """Per-name count, total and self time, plus what layer_metrics() needs."""
        spans = list(self.spans())
        name_of = {sid: name for name, _, _, sid, _ in spans}
        child_ns: dict[int, int] = {}
        for _, t0, t1, _, parent in spans:
            if parent:
                child_ns[parent] = child_ns.get(parent, 0) + (t1 - t0)
        by_name: dict[str, list[int]] = {}
        durations: dict[str, list[float]] = {n: [] for n in _PERCENTILE_SPANS}
        parent_counts: dict[str, int] = {}
        upstream_ns = 0
        for name, t0, t1, sid, parent in spans:
            dur = t1 - t0
            agg = by_name.setdefault(name, [0, 0, 0])
            agg[0] += 1
            agg[1] += dur
            agg[2] += dur - child_ns.get(sid, 0)
            if name in durations:
                durations[name].append(dur / 1000.0)
            parent_name = name_of.get(parent, "")
            key = f"{name}<{parent_name}"
            parent_counts[key] = parent_counts.get(key, 0) + 1
            if name in _UPSTREAM_PARTS and parent_name in _DIRECTORY_SPANS:
                upstream_ns += dur
        return {"spans": by_name, "durations": durations, "parents": parent_counts,
                "upstream_ns": upstream_ns, "counters": dict(self.counters)}

    def dump(self, out: Path) -> None:
        """Write the raw spans (names + int64 array) and the aggregates."""
        out.parent.mkdir(parents=True, exist_ok=True)
        with self._lock:
            buffers = list(self._buffers)
        with open(out.with_suffix(".spans"), "wb") as fh:
            for buf in buffers:
                buf.tofile(fh)
        out.with_suffix(".names.json").write_text(json.dumps(self.names))
        out.write_text(json.dumps(self.aggregate()))


def _client_span(kind: str):
    def name(args) -> str:
        return f"wire.client.{'query' if args[0].name in USER_CLIENTS else 'upstream'}_{kind}"
    return name


def _patch(tracer: Tracer, owner, attr: str, name, on_result=None) -> None:
    setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), on_result))


def install_client(tracer: Tracer) -> None:
    """Spans for the user-facing wire client only (the benchmark's consumer)."""
    from fabmon.wire.client import WireClient

    _patch(tracer, WireClient, "query_latest", _client_span("latest"))
    _patch(tracer, WireClient, "query_range", _client_span("range"))


def install(tracer: Tracer) -> None:
    """Spans at every layer boundary the per-layer metrics are derived from."""
    import fabmon.archive.filestore as filestore
    import fabmon.probe.snapshot as snapshot
    import fabmon.surface.cli as cli
    import fabmon.surface.textview as textview
    import fabmon.wire.channel as channel
    import fabmon.wire.codec as codec
    from fabmon.agent.daemon import Agent
    from fabmon.archive.importer import Importer
    from fabmon.archive.store import MemoryStore
    from fabmon.directory.registry import Registry
    from fabmon.directory.service import DirectoryService
    from fabmon.probe.runner import ProbeRunner
    from fabmon.wire.client import WireClient
    from fabmon.wire.session import WireServer

    install_client(tracer)
    for fn in ("decode_wire_line", "decode_sample"):
        _patch(tracer, codec, fn, "wire.codec.decode")
    for fn in ("encode_sample", "encode_message"):
        _patch(tracer, codec, fn, "wire.codec.encode")
    # filestore imported the codec functions by name
    filestore.decode_sample = codec.decode_sample
    filestore.encode_sample = codec.encode_sample
    # every open() the file store makes goes through its module global
    filestore.open = tracer.wrap("archive.filestore.open", open)

    _patch(tracer, WireServer, "handle_line", "wire.session.handle_line")
    _patch(tracer, channel.MemoryChannel, "__init__", "wire.channel.open")
    _patch(tracer, channel, "tcp_dial", "wire.channel.open")
    cli.tcp_dial = channel.tcp_dial
    _patch(tracer, WireClient, "__init__", "wire.client.hello")
    _patch(tracer, WireClient, "register", "wire.client.register")

    _patch(tracer, MemoryStore, "append", "archive.store.append")
    _patch(tracer, MemoryStore, "range", "archive.store.range")
    _patch(tracer, filestore.FileSegmentStore, "__init__", "archive.filestore.reopen")
    _patch(tracer, filestore.FileSegmentStore, "append", "archive.filestore.append")
    _patch(tracer, Importer, "on_sample", "archive.importer.on_sample")

    def count_hit(_args, result) -> None:
        if result.source == "cache" and not result.stale:
            tracer.count("directory.service.cache_hits")

    _patch(tracer, Registry, "resolve", "directory.registry.resolve")
    _patch(tracer, DirectoryService, "query_latest", "directory.service.query_latest", count_hit)
    _patch(tracer, DirectoryService, "query_history", "directory.service.query_history")

    _patch(tracer, Agent, "tick", "agent.daemon.tick")
    _patch(tracer, ProbeRunner, "run_test_sequence", "probe.runner.host")
    _patch(tracer, snapshot, "snapshot_bytes", "probe.snapshot.serialize")
    _patch(tracer, textview, "render_text_status", "surface.textview.render")


# -- merging -------------------------------------------------------------------

def merge(aggregates: list[dict]) -> dict:
    out = {"spans": {}, "durations": {}, "parents": {}, "upstream_ns": 0, "counters": {}}
    for agg in aggregates:
        for name, (n, total, own) in agg["spans"].items():
            cur = out["spans"].setdefault(name, [0, 0, 0])
            cur[0] += n
            cur[1] += total
            cur[2] += own
        for name, values in agg["durations"].items():
            out["durations"].setdefault(name, []).extend(values)
        for key, n in agg["parents"].items():
            out["parents"][key] = out["parents"].get(key, 0) + n
        for key, n in agg["counters"].items():
            out["counters"][key] = out["counters"].get(key, 0) + n
        out["upstream_ns"] += agg["upstream_ns"]
    return out


def _ratio(num: float, den: float) -> float:
    """num/den, or 0.0 when the workload never reached the layer (den == 0)."""
    return num / den if den else 0.0


def _pct(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    s = sorted(values)
    rank = max(1, -(-len(s) * q // 100))
    return s[int(rank) - 1]


def layer_metrics(merged: dict, reopened_samples: int) -> dict[str, float]:
    """Per-layer metrics from merged aggregates (trace.overhead_pct is added by the caller).

    reopened_samples: the samples on disk at each archive reopen, summed over the reopens.
    """
    spans, parents, counters = merged["spans"], merged["parents"], merged["counters"]

    def n(name):
        return spans.get(name, [0, 0, 0])[0]

    def mean_us(name, own=False):
        cnt, total, self_ns = spans.get(name, [0, 0, 0])
        return _ratio((self_ns if own else total) / 1000.0, cnt)

    dir_queries = n("directory.service.query_latest") + n("directory.service.query_history")
    fetches = sum(parents.get(f"wire.client.upstream_{k}<{d}", 0)
                  for k in ("latest", "range") for d in _DIRECTORY_SPANS)
    _, reopen_ns, _ = spans.get("archive.filestore.reopen", [0, 0, 0])
    latest = merged["durations"].get("wire.client.query_latest", [])
    ranges = merged["durations"].get("wire.client.query_range", [])
    return {
        "wire.codec.decode_us": mean_us("wire.codec.decode"),
        "wire.codec.encode_us": mean_us("wire.codec.encode"),
        "wire.session.handle_line_us": mean_us("wire.session.handle_line", own=True),
        "wire.channel.dials_per_query": _ratio(n("wire.channel.open"), dir_queries),
        "wire.client.handshakes_per_query": _ratio(n("wire.client.hello"), dir_queries),
        "wire.client.latest_p99_us": _pct(latest, 99),
        "wire.client.range_p50_us": _pct(ranges, 50),
        "wire.client.range_p99_us": _pct(ranges, 99),
        "archive.store.append_us": mean_us("archive.store.append"),
        "archive.store.range_us": mean_us("archive.store.range"),
        "archive.filestore.append_us": mean_us("archive.filestore.append"),
        "archive.filestore.opens_per_append": _ratio(
            parents.get("archive.filestore.open<archive.filestore.append", 0),
            n("archive.filestore.append")),
        "archive.filestore.reopen_us_per_sample": _ratio(
            reopen_ns / 1000.0, reopened_samples),
        "archive.importer.on_sample_us": mean_us("archive.importer.on_sample"),
        "directory.registry.resolve_us": mean_us("directory.registry.resolve"),
        "directory.service.query_latest_us": mean_us("directory.service.query_latest", own=True),
        "directory.service.cache_hit_ratio": _ratio(
            counters.get("directory.service.cache_hits", 0), n("directory.service.query_latest")),
        "directory.service.latest_queries": float(n("directory.service.query_latest")),
        "directory.service.upstream_us": _ratio(merged["upstream_ns"] / 1000.0, fetches),
        "directory.service.query_history_us": mean_us("directory.service.query_history"),
        "agent.daemon.tick_us": mean_us("agent.daemon.tick"),
        "agent.daemon.registrations_per_tick": _ratio(
            parents.get("wire.client.register<agent.daemon.tick", 0), n("agent.daemon.tick")),
        "probe.runner.host_us": mean_us("probe.runner.host"),
        "probe.runner.queries_per_host": _ratio(
            parents.get("wire.client.query_latest<probe.runner.host", 0), n("probe.runner.host")),
        "probe.snapshot.serialize_us": mean_us("probe.snapshot.serialize"),
        "surface.textview.render_us": mean_us("surface.textview.render"),
    }
