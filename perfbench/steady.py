"""Steadiness check: two sets of untraced runs per workload, compared metric by metric.

    python3 perfbench/steady.py                       # 2 sets x 10 seeds, every workload
    python3 perfbench/steady.py --runs 5 --workloads tcp-ingest

The two sets of a workload run back to back. For every end-to-end metric it
prints each set's median and quartiles, the spread (quartile distance over
median, the larger of the two sets) and how much worse the second median is than
the first, next to the bound in BENCHMARK.json. A row is OK when the spread
and the change, in either direction, both stay within the bound; the sets
must also fail the same share of operations. Set n uses seeds
n*1000+1 .. n*1000+runs, so the sets share no seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {out.returncode}: {out.stderr[-2000:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} incorrect: {out.stderr[-2000:]}")
    return result


def summary(values: list[float]) -> tuple[float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set (default 10)")
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    all_ok = True
    for workload in args.workloads:
        sets = []
        for n in (1, 2):
            started = time.monotonic()
            seeds = range(n * 1000 + 1, n * 1000 + args.runs + 1)
            sets.append([run_once(workload, seed, seconds) for seed in seeds])
            print(f"# {workload} set {n}: {args.runs} runs in {time.monotonic() - started:.0f}s",
                  flush=True)
        shares = [sum(r["failed"] for r in s) / sum(r["attempted"] for r in s) for s in sets]
        print(f"{workload}: failed share {shares[0]:.6f} / {shares[1]:.6f}")
        print(f"  {'metric':<24}{'median1':>12}{'q1..q3 (set 1)':>26}{'median2':>12}"
              f"{'q1..q3 (set 2)':>26}{'spread':>8}{'worse':>8}{'bound':>7}")
        for name, m in bounds.items():
            (a1, med1, b1), (a2, med2, b2) = (
                summary([r["metrics"][name]["value"] for r in s]) for s in sets)
            spread = max((b1 - a1) / med1, (b2 - a2) / med2)
            worse = (med2 - med1) / med1 * (1 if m["better"] == "lower" else -1)
            ok = spread <= m["bound"] and abs(worse) <= m["bound"]
            all_ok &= ok
            print(f"  {name:<24}{med1:>12.4g}{f'{a1:.4g}..{b1:.4g}':>26}{med2:>12.4g}"
                  f"{f'{a2:.4g}..{b2:.4g}':>26}{spread:>8.3f}{worse:>+8.3f}{m['bound']:>7}"
                  f"  {'OK' if ok else 'OUT'}")
        all_ok &= shares[0] == shares[1]
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
