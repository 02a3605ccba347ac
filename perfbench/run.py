"""fabmon benchmark: one workload, checked, with its metrics as one JSON line.

    python3 perfbench/run.py --workload fabric-1100 --seed 1 --seconds 10 --trace 0

--trace 0 prints the end-to-end metrics of one untraced run. --trace 1 runs
the workload untraced and then traced, and prints the per-layer metrics of
the traced run plus trace.overhead_pct: how much more CPU per operation the
traced run spent. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import common  # noqa: E402
import spans  # noqa: E402
import tcpwork  # noqa: E402

WORKLOADS = ("fabric-1100", "tcp-ingest", "tcp-query")
FRESHNESS_MS = 90_000  # the simulated agents declare ttl 90 s; the directory caches that long
WORKER_TIMEOUT_S = 170


def run_fabric(seed: int, seconds: float, trace_dir: Path | None,
               n_hosts: int = common.N_HOSTS) -> dict:
    """fabric-1100: one simulated run of two probe cycles; seconds does not shorten it."""
    work = common.WORK / "fabric-1100"
    archive, out = work / "archive", work / "out"
    shutil.rmtree(out, ignore_errors=True)
    n_history = common.write_history(archive, seed, n_hosts)
    subprocess.run(
        [sys.executable, str(common.BENCH_DIR / "fabric_worker.py"), str(archive), str(out),
         str(seed), "1" if trace_dir else "0", str(n_hosts)],
        check=True, timeout=WORKER_TIMEOUT_S)
    res = json.loads((out / "result.json").read_text())
    if trace_dir is not None:
        trace_dir.mkdir(parents=True, exist_ok=True)
        for f in out.glob("trace-fabric.*"):
            shutil.copy(f, trace_dir / f.name)
    cycles = res["expected_cycles"]
    snapshots = [json.loads((out / f"snapshot{i}.json").read_bytes())
                 for i in range(1, cycles + 1) if (out / f"snapshot{i}.json").exists()]
    texts = [(out / f"status{i}.txt").read_text() for i in range(1, len(snapshots) + 1)]
    return fabric_outcome(res, common.read_archive(archive), snapshots, texts, seed,
                          n_hosts, n_history)


def fabric_outcome(res: dict, disk: dict, snapshots: list, texts: list, seed: int,
                   n_hosts: int, n_history: int) -> dict:
    counts = res["counts"]
    keys = common.keys(n_hosts)
    history = common.history_times()
    answers = [a for a in res["answers"] if a[1] != "error"]
    failed = len(res["answers"]) - len(answers) + counts["dropped"] + counts["spooled_residual"]
    problems = [f"sim: {f}" for f in res["failures"]]
    for name in ("duplicates", "rejected", "query_check_failures", "rollup_failures"):
        if counts[name]:
            problems.append(f"sim counted {counts[name]} {name}")
    if counts["produced"] != counts["ingested"]:
        problems.append(f"produced {counts['produced']} != ingested {counts['ingested']}")
    on_disk = checks.new_samples(disk, len(history))
    if on_disk != counts["ingested"]:
        problems.append(f"{on_disk} new samples on disk, {counts['ingested']} ingested")
    problems += checks.check_values(disk, seed)
    problems += checks.check_series(disk, keys, history)
    problems += checks.check_snapshots(snapshots, texts, res["expected_cycles"],
                                       common.hosts(n_hosts))
    problems += checks.check_latest(
        [(a[3], a[4], a[5], a[6], a[2], a[1], a[7]) for a in answers], disk,
        history[-1], FRESHNESS_MS)
    ops = counts["ingested"] + len(answers)
    lat = {src: [a[0] for a in answers if a[1] == src] for src in ("cache", "upstream")}
    return {
        "problems": problems,
        "attempted": counts["produced"] + len(res["answers"]),
        "failed": failed,
        "reopened_samples": common.SETUP_REPEATS * n_history,
        "e2e": {
            "setup_s": common.median(res["setup_s"]),
            "samples_per_s": counts["ingested"] / res["timed_s"],
            "queries_per_s": len(answers) / res["timed_s"],
            "latest_cached_p50_us": common.median(lat["cache"]),
            "latest_upstream_p50_us": common.median(lat["upstream"]),
            "cpu_us_per_op": res["cpu_s"] * 1e6 / ops,
            "peak_rss_mb": res["peak_rss_mb"],
        },
    }


def run_workload(name: str, seed: int, seconds: float, trace_dir: Path | None) -> dict:
    if name == "fabric-1100":
        return run_fabric(seed, seconds, trace_dir)
    return tcpwork.run(name, seed, seconds, trace_dir)


def layer_report(trace_dir: Path, reopened_samples: int) -> dict[str, float]:
    merged = spans.merge([json.loads(p.read_text()) for p in sorted(trace_dir.glob("*.json"))
                          if not p.name.endswith(".names.json")])
    return spans.layer_metrics(merged, reopened_samples)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    common.require_source()
    spec = common.spec()

    plain = run_workload(args.workload, args.seed, args.seconds, None)
    outcomes = [plain]
    if args.trace:
        trace_dir = common.WORK / "traces" / args.workload
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir(parents=True)
        tracer = spans.Tracer()
        spans.install_client(tracer)  # the consumer's own calls, for client-side latencies
        traced = run_workload(args.workload, args.seed, args.seconds, trace_dir)
        tracer.dump(trace_dir / "generator.json")
        outcomes.append(traced)
        values = layer_report(trace_dir, traced["reopened_samples"])
        values["trace.overhead_pct"] = 100.0 * (
            traced["e2e"]["cpu_us_per_op"] / plain["e2e"]["cpu_us_per_op"] - 1.0)
    else:
        values = plain["e2e"]
    metrics = {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}

    problems = [p for o in outcomes for p in o["problems"]]
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    missing = [m for m, v in metrics.items() if v["value"] is None]
    if missing:
        print(f"no measurement for {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(o["attempted"] for o in outcomes),
        "failed": sum(o["failed"] for o in outcomes),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
