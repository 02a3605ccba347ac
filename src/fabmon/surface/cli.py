"""fabmon command line: run daemons, query the stack, render status.

Exit codes: 0 success (absent query results included), 1 operational
failure, 2 usage errors.
"""

from __future__ import annotations

import argparse
import json
import logging
import signal
import sys
import time
from pathlib import Path

from fabmon import config as cfgmod
from fabmon.core import MalformedPath, ResourcePath, SystemClock
from fabmon.archive.filestore import FileSegmentStore
from fabmon.archive.importer import Importer
from fabmon.archive.retention import RetentionPolicy, retention_sweep
from fabmon.archive.store import MemoryStore
from fabmon.agent.daemon import Agent
from fabmon.directory.service import DirectoryService
from fabmon.probe.runner import ProbeRunner
from fabmon.probe.snapshot import IoFailure, publish_snapshot
from fabmon.simfab.fabric import run_sim
from fabmon.surface.httpd import SurfaceConfig, SurfaceServer
from fabmon.surface.textview import render_text_status
from fabmon.wire.channel import TcpWireServer, connect_memory, parse_endpoint, tcp_dial
from fabmon.wire.pool import Lease, open_session
from fabmon.wire.session import ProtocolViolation, RequestError

log = logging.getLogger(__name__)


def _load(args) -> dict:
    return cfgmod.load_config(args.config) if args.config else {}


_STOP_SIGNALS = (signal.SIGTERM, signal.SIGINT)


def _stop_on_signals() -> None:
    """Make SIGTERM and SIGINT, even one ignored at start, raise KeyboardInterrupt."""
    for signum in _STOP_SIGNALS:
        signal.signal(signum, signal.default_int_handler)


def _start(server):
    """server.start() with the stop signals blocked in its threads, so the main
    thread, the only one that acts on them, receives them even while it sleeps."""
    unblocked = signal.pthread_sigmask(signal.SIG_BLOCK, _STOP_SIGNALS)
    try:
        return server.start()
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, unblocked)


def _surface(cfg: dict, listen: str, directory: str, dial) -> SurfaceServer:
    """The read-only HTTP surface on listen, asking the directory at directory through dial."""
    host, port = parse_endpoint(listen)
    return SurfaceServer(SurfaceConfig(
        snapshot_dir=cfg.get("surface", {}).get(
            "snapshot_dir", cfg.get("probe", {}).get("snapshot_dir", "")),
        directory_endpoint=directory, host=host, port=port, dial=dial))


def cmd_agent_run(args) -> int:
    _stop_on_signals()
    cfg = _load(args)
    agent_cfg = cfgmod.agent_config(cfg)
    clock = SystemClock()
    agent = Agent(agent_cfg, clock, dial=tcp_dial)
    host, port = parse_endpoint(agent_cfg.listen_endpoint)
    server = None
    try:  # a SIGTERM as soon as the port listens must still stop cleanly
        server = _start(TcpWireServer(agent.server, host, port))
        log.info("agent %s sampling, serving on %s", agent_cfg.host_path, server.endpoint)
        agent.run()
    except KeyboardInterrupt:
        pass
    finally:
        agent.stop()
        if server is not None:
            server.stop()
    return 0


def cmd_importer_run(args) -> int:
    _stop_on_signals()
    cfg = _load(args)
    sect = cfg.get("importer", {})
    eps = cfgmod.endpoints(cfg)
    clock = SystemClock()
    if sect.get("store", "file") == "file":
        store = FileSegmentStore(sect.get("root", "./telemetry"))
    else:
        store = MemoryStore()
    importer = Importer(store, clock)
    host, port = parse_endpoint(sect.get("listen", eps["importer"]))
    subtrees = [ResourcePath.parse(s) for s in sect.get("subtrees", [])]
    retention = sect.get("retention")
    server = lease = None
    try:  # a SIGTERM as soon as the port listens must still stop cleanly
        server = _start(TcpWireServer(importer.server, host, port))
        log.info("importer listening on %s", server.endpoint)
        lease = Lease(tcp_dial, sect.get("directory", eps["directory"]), subtrees, "archive",
                      sect.get("advertise", server.endpoint), sect.get("registration_ttl_s", 120))
        next_sweep = time.monotonic() + (retention or {}).get("sweep_period_s", 3600)
        while True:
            lease.keep(clock.now())
            if retention and time.monotonic() >= next_sweep:
                policy = RetentionPolicy(retention["max_age_s"], retention["bucket_s"])
                result = retention_sweep(store, policy, clock.now())
                log.info("retention sweep: removed %d compacted %d",
                         result.removed, result.compacted)
                next_sweep = time.monotonic() + retention.get("sweep_period_s", 3600)
            time.sleep(1)
    except KeyboardInterrupt:
        pass
    finally:
        if lease is not None:
            lease.release()
        if server is not None:
            server.stop()
        store.close()
    return 0


def cmd_directory_run(args) -> int:
    _stop_on_signals()
    cfg = _load(args)
    sect = cfg.get("directory", {})
    eps = cfgmod.endpoints(cfg)
    clock = SystemClock()
    service = DirectoryService(
        clock, tcp_dial,
        freshness_ttls={k: int(v) for k, v in sect.get("freshness_ttls", {}).items()},
    )
    host, port = parse_endpoint(sect.get("listen", eps["directory"]))
    # the wire port listens before the servers' threads start: a SIGTERM from
    # then on must still stop cleanly, so start them inside the try
    server = admin = None
    try:
        server = _start(TcpWireServer(service.server, host, port))
        # the directory's copy of the HTTP surface asks its own wire server
        admin = _start(_surface(cfg, eps["directory_http"], server.endpoint,
                                lambda endpoint: connect_memory(service.server)))
        log.info("directory on %s, http on %s", server.endpoint, admin.endpoint)
        while True:
            time.sleep(sect.get("sweep_period_s", 30))
            removed = service.sweep()
            if removed:
                log.info("expired %d registrations", removed)
    except KeyboardInterrupt:
        pass
    finally:
        for started in (admin, server):
            if started is not None:
                started.stop()
        service.close()
    return 0


def cmd_probe_run(args) -> int:
    _stop_on_signals()
    cfg = _load(args)
    sect = cfg.get("probe", {})
    probe_cfg = cfgmod.probe_config(cfg)
    snapshot_dir = sect.get("snapshot_dir", "./snapshots")
    clock = SystemClock()
    runner = ProbeRunner(probe_cfg, clock, dial=tcp_dial)
    cycle = 0
    try:
        while True:
            cycle += 1
            started = clock.now()
            snapshot = runner.run_cycle(cycle)
            try:
                publish_snapshot(snapshot, snapshot_dir)
            except IoFailure as exc:
                log.error("publish failed: %s", exc)
                if args.once:
                    return 1
            statuses = [h.combined for s in snapshot.sites for h in s.hosts]
            log.info("cycle %d: %d hosts, worst %s", cycle, len(statuses),
                     max(statuses).label if statuses else "n/a")
            if args.once:
                return 0
            clock.sleep_until(started + probe_cfg.cycle_period_s * 1000)
    except KeyboardInterrupt:
        return 0
    finally:
        runner.close()


def cmd_serve(args) -> int:
    _stop_on_signals()
    cfg = _load(args)
    sect = cfg.get("surface", {})
    eps = cfgmod.endpoints(cfg)
    server = _surface(cfg, sect.get("listen", eps["http"]),
                      sect.get("directory", eps["directory"]), tcp_dial)
    log.info("surface on %s", server.endpoint)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


def cmd_status(args) -> int:
    cfg = _load(args)
    snapshot_dir = args.snapshot_dir or cfg.get("surface", {}).get(
        "snapshot_dir", cfg.get("probe", {}).get("snapshot_dir", "./snapshots"))
    path = Path(snapshot_dir) / "snapshot.json"
    try:
        snapshot = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        print(f"no snapshot at {path}: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"unreadable snapshot {path}: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(render_text_status(snapshot))
    return 0


def _ask_directory(args, cfg, call):
    """call(session) on a new consumer session to the directory, closed after."""
    endpoint = args.directory or cfg.get("probe", {}).get(
        "directory", cfgmod.endpoints(cfg)["directory"])
    client = open_session(tcp_dial, endpoint, "consumer", "cli")
    try:
        return call(client)
    finally:
        client.close()


def cmd_query(args) -> int:
    cfg = _load(args)
    try:
        path = ResourcePath.parse(args.path)
    except MalformedPath as exc:
        print(f"bad path: {exc}", file=sys.stderr)
        return 2
    try:
        if args.what == "latest":
            answer = _ask_directory(args, cfg, lambda c: c.query_latest(path, args.metric))
        else:
            answer = _ask_directory(
                args, cfg, lambda c: c.query_range(path, args.metric, args.t0, args.t1))
    except (RequestError, OSError, ProtocolViolation) as exc:
        print(f"query failed: {exc}", file=sys.stderr)
        return 1
    if args.what == "latest":
        if answer.absent:
            print("absent")
        else:
            flag = " stale" if answer.stale else ""
            s = answer.sample
            print(f"{s.path} {s.metric} = {s.value} @ {s.timestamp}"
                  f" ttl={s.ttl}s source={answer.source}{flag}")
    else:
        for s in answer:
            print(f"{s.timestamp} {s.value}")
        if not answer:
            print("absent")
    return 0


def cmd_registry_ls(args) -> int:
    cfg = _load(args)
    try:
        registrations = _ask_directory(args, cfg, lambda c: c.query_registry())
    except (RequestError, OSError, ProtocolViolation) as exc:
        print(f"registry fetch failed: {exc}", file=sys.stderr)
        return 1
    for entry in registrations:
        print(f"{entry['subtree']:<32} {entry['kind']:<10} {entry['endpoint']:<24}"
              f" ttl={entry['ttl']}s expires_at={entry['expires_at']}")
    return 0


def cmd_sim_run(args) -> int:
    cfg = _load(args)
    sim_cfg = cfgmod.sim_config(cfg)
    overrides = {}
    if args.hosts is not None:
        overrides["n_hosts"] = args.hosts
    if args.sites is not None:
        overrides["n_sites"] = args.sites
    if args.minutes is not None:
        overrides["duration_s"] = int(args.minutes * 60)
    if args.seed is not None:
        overrides["seed"] = args.seed
    if overrides:
        import dataclasses

        sim_cfg = dataclasses.replace(sim_cfg, **overrides)
    result = run_sim(sim_cfg)
    report = result.report_dict()
    if args.report:
        Path(args.report).write_bytes(result.report_bytes())
    print(f"hosts={sim_cfg.n_hosts} sites={sim_cfg.n_sites} "
          f"duration={sim_cfg.duration_s}s wall={result.wall_seconds:.1f}s")
    print(f"produced={result.produced} ingested={result.ingested} "
          f"duplicates={result.duplicates} dropped={result.dropped} "
          f"spooled={result.spooled_residual}")
    print(f"cycles={result.cycles} query_checks={result.query_checks} "
          f"query_failures={result.query_check_failures} "
          f"rollup_failures={result.rollup_failures}")
    if result.failures:
        for f in result.failures[:10]:
            print(f"FAILURE: {f}", file=sys.stderr)
        return 1
    print("all invariants held")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fabmon", description=__doc__)
    parser.add_argument("-v", "--verbose", action="count", default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    def with_config(p):
        p.add_argument("--config", help="shared JSON config file")
        return p

    agent = sub.add_parser("agent", help="host sampling daemon").add_subparsers(
        dest="action", required=True)
    with_config(agent.add_parser("run")).set_defaults(fn=cmd_agent_run)

    importer = sub.add_parser("importer", help="archive ingest daemon").add_subparsers(
        dest="action", required=True)
    with_config(importer.add_parser("run")).set_defaults(fn=cmd_importer_run)

    directory = sub.add_parser("directory", help="registry and query routing").add_subparsers(
        dest="action", required=True)
    with_config(directory.add_parser("run")).set_defaults(fn=cmd_directory_run)

    probe = sub.add_parser("probe", help="site probing daemon").add_subparsers(
        dest="action", required=True)
    probe_run = with_config(probe.add_parser("run"))
    probe_run.add_argument("--once", action="store_true", help="one cycle, then exit")
    probe_run.set_defaults(fn=cmd_probe_run)

    with_config(sub.add_parser("serve", help="read-only HTTP surface")).set_defaults(fn=cmd_serve)

    status = with_config(sub.add_parser("status", help="text status table"))
    status.add_argument("--snapshot-dir")
    status.set_defaults(fn=cmd_status)

    query = with_config(sub.add_parser("query", help="query the directory"))
    qsub = query.add_subparsers(dest="what", required=True)
    qlatest = with_config(qsub.add_parser("latest"))
    qlatest.add_argument("path")
    qlatest.add_argument("metric")
    qlatest.add_argument("--directory")
    qlatest.set_defaults(fn=cmd_query)
    qrange = with_config(qsub.add_parser("range"))
    qrange.add_argument("path")
    qrange.add_argument("metric")
    qrange.add_argument("t0", type=int)
    qrange.add_argument("t1", type=int)
    qrange.add_argument("--directory")
    qrange.set_defaults(fn=cmd_query)

    registry = sub.add_parser("registry", help="inspect registrations").add_subparsers(
        dest="action", required=True)
    reg_ls = with_config(registry.add_parser("ls"))
    reg_ls.add_argument("--directory")
    reg_ls.set_defaults(fn=cmd_registry_ls)

    sim = sub.add_parser("sim", help="deterministic simulated fabric").add_subparsers(
        dest="action", required=True)
    sim_run = with_config(sim.add_parser("run"))
    sim_run.add_argument("--seed", type=int)
    sim_run.add_argument("--hosts", type=int)
    sim_run.add_argument("--sites", type=int)
    sim_run.add_argument("--minutes", type=float)
    sim_run.add_argument("--report", help="write the versioned report here")
    sim_run.set_defaults(fn=cmd_sim_run)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    level = logging.WARNING - min(args.verbose, 2) * 10
    logging.basicConfig(level=level, format="%(asctime)s %(name)s %(levelname)s %(message)s")
    try:
        return args.fn(args)
    except cfgmod.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ConnectionError, OSError, TimeoutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
