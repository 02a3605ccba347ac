"""fabric-1100 in a process of its own, so its CPU and peak RSS are the program's.

Usage: python3 fabric_worker.py <archive dir> <out dir> <seed> <trace 0|1> [hosts]

Reopens the flat-file archive SETUP_REPEATS times (set-up), then runs the
simulated fabric with the acceptance configuration on the last reopened
store and renders every snapshot with snapshot_bytes and
render_text_status (the timed phase). It writes the snapshots, the text
tables, the probe's answers and its own measurements to the out dir; the
benchmark checks them in another process.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

common.require_source()

import fabmon.probe.snapshot as snapshot_mod  # noqa: E402
import fabmon.surface.textview as textview  # noqa: E402
from fabmon.archive.filestore import FileSegmentStore  # noqa: E402
from fabmon.simfab.fabric import SimConfig, run_sim  # noqa: E402
from fabmon.wire.client import WireClient  # noqa: E402

SIM_DURATION_S = 600  # two probe cycles
PROBE_PERIOD_S = 300


def acceptance_config(seed: int, n_hosts: int = common.N_HOSTS) -> SimConfig:
    return SimConfig(
        n_hosts=n_hosts, n_sites=common.N_SITES, metrics=common.METRICS,
        period_s=common.PERIOD_MS // 1000, duration_s=SIM_DURATION_S,
        probe_period_s=PROBE_PERIOD_S, seed=seed)


def _record_probe_answers(answers: list) -> None:
    """Time every query the probe makes, as the probe sees it."""
    inner = WireClient.query_latest

    def query_latest(self, path, metric, hops=0):
        if self.name != "probe":
            return inner(self, path, metric, hops)
        t0 = time.perf_counter_ns()
        try:
            result = inner(self, path, metric, hops)
        except Exception:
            answers.append((0.0, "error", False, str(path), metric, None, None, None))
            raise
        elapsed_us = (time.perf_counter_ns() - t0) / 1000.0
        s = result.sample
        # the answer time on the simulated clock, reached through the probe's
        # in-memory channel to the directory
        answers.append((elapsed_us, result.source, result.stale, str(path), metric,
                        s.timestamp if s else None, s.value if s else None,
                        self._channel._server.clock.now()))
        return result

    WireClient.query_latest = query_latest


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(archive: Path, out: Path, seed: int, traced: bool, n_hosts: int) -> None:
    tracer = None
    if traced:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    answers: list = []
    _record_probe_answers(answers)

    setup_s = []
    store = None
    for _ in range(common.SETUP_REPEATS):
        if store is not None:
            store.close()
        store = None
        t0 = time.perf_counter()
        store = FileSegmentStore(archive)
        setup_s.append(time.perf_counter() - t0)

    config = acceptance_config(seed, n_hosts)
    cpu0, t0 = _cpu_s(), time.perf_counter()
    result = run_sim(config, store=store)
    rendered = [(snapshot_mod.snapshot_bytes(s), textview.render_text_status(s))
                for s in result.snapshots]
    timed_s = time.perf_counter() - t0
    cpu_s = _cpu_s() - cpu0
    store.close()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    out.mkdir(parents=True, exist_ok=True)
    for i, (raw, text) in enumerate(rendered, start=1):
        (out / f"snapshot{i}.json").write_bytes(raw)
        (out / f"status{i}.txt").write_text(text)
    if tracer is not None:
        tracer.dump(out / "trace-fabric.json")
    (out / "result.json").write_text(json.dumps({
        "setup_s": setup_s,
        "timed_s": timed_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "expected_cycles": SIM_DURATION_S // PROBE_PERIOD_S,
        "counts": result.report_dict()["counts"],
        "failures": result.failures,
        "answers": answers,
    }))


if __name__ == "__main__":
    n_hosts = int(sys.argv[5]) if len(sys.argv) > 5 else common.N_HOSTS
    main(Path(sys.argv[1]), Path(sys.argv[2]), int(sys.argv[3]), sys.argv[4] == "1", n_hosts)
