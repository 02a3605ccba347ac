"""Inputs and reference computations shared by every workload.

Everything here is written apart from fabmon on purpose: the history
encoder, the synthetic generator and the record parser are the benchmark's
own, so the checks in checks.py compare fabmon's answers against figures
fabmon did not compute.

The fabric is the acceptance one: 1100 hosts over 8 sites, 5 metrics each
(5500 series). Hosts are named the way fabmon.simfab names them, so the
simulated fabric and the TCP workloads share one archive layout.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import struct
import sys
from datetime import datetime, timezone
from pathlib import Path

N_HOSTS = 1100
N_SITES = 8
METRICS = ("cpu.load1", "cpu.util", "mem.used_bytes", "sys.uptime_s", "net.rtt_ms")
PERIOD_MS = 30_000
RECORD_TTL_S = 90  # three periods, as the simulated agents declare
EPOCH_MS = 1_600_000_000_000  # fabmon.simfab's fixed start; history ends just before it
HISTORY_PER_SERIES = 12  # 66,000 history samples over 5500 series
SETUP_REPEATS = 3  # fabric-1100 reopens the archive this often per run; setup_s is their median

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"

_RANGES = {
    "cpu.load1": (0.0, 8.0),
    "cpu.util": (0.0, 100.0),
    "mem.used_bytes": (0.0, 16.0 * 2**30),
    "net.rtt_ms": (0.05, 30.0),
}
_UPTIME_WRAP_S = 90.0 * 86400


def require_source() -> None:
    """Put the checkout's src/ first on sys.path; refuse to run without it."""
    if not (SRC / "fabmon" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no fabmon source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def spec() -> dict:
    """BENCHMARK.json: the metric names and units a run prints."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def host_path(i: int) -> str:
    return f"site{i % N_SITES + 1}/farm/node{i:04d}"


def hosts(n: int = N_HOSTS) -> list[str]:
    return [host_path(i) for i in range(n)]


def keys(n_hosts: int = N_HOSTS) -> list[tuple[str, str]]:
    return [(h, m) for h in hosts(n_hosts) for m in METRICS]


def _fraction(host: str, metric: str, tick: int, seed: int) -> float:
    digest = hashlib.blake2b(f"{host}|{metric}|{tick}|{seed}".encode(), digest_size=8).digest()
    return struct.unpack(">Q", digest)[0] / 2**64


def expected_value(host: str, metric: str, t_ms: int, seed: int) -> float:
    """The documented synthetic reading: blake2b of (host, metric, tick, seed)."""
    if metric == "sys.uptime_s":
        boot = _fraction(host, "boot", 0, seed) * 30 * 86400
        return round((t_ms / 1000.0) % _UPTIME_WRAP_S + boot, 3)
    lo, hi = _RANGES[metric]
    return round(lo + _fraction(host, metric, t_ms, seed) * (hi - lo), 4)


def history_times(per_series: int = HISTORY_PER_SERIES) -> list[int]:
    """History timestamps shared by every series, oldest first, all before EPOCH_MS."""
    return [EPOCH_MS - PERIOD_MS * j for j in range(per_series, 0, -1)]


def encode_record(host: str, metric: str, t_ms: int, value: float) -> bytes:
    return (f'{{"t":{t_ms},"p":"{host}","m":"{metric}","v":{value!r},'
            f'"ttl":{RECORD_TTL_S}}}\n').encode()


def parse_record(line: bytes) -> tuple[str, str, int, float]:
    obj = json.loads(line)
    return obj["p"], obj["m"], obj["t"], obj["v"]


def _day(t_ms: int) -> str:
    return datetime.fromtimestamp(t_ms // 1000, tz=timezone.utc).strftime("%Y%m%d")


def segment_file(root: Path, host: str, metric: str, t_ms: int) -> Path:
    """The archive's documented layout: <root>/<path, '/' as '~'>/<metric>/<YYYYMMDD>.seg"""
    return root / host.replace("/", "~") / metric / f"{_day(t_ms)}.seg"


def write_history(root: Path, seed: int, n_hosts: int = N_HOSTS,
                  per_series: int = HISTORY_PER_SERIES) -> int:
    """Make root a flat-file archive holding per_series samples of every series.

    An archive an earlier run left with exactly these files is rewritten in
    place, which spares removing and creating 6600 directories; anything
    else at root is removed first.
    """
    by_day: dict[str, list[int]] = {}
    for t in history_times(per_series):
        by_day.setdefault(_day(t), []).append(t)
    files: dict[Path, list[bytes]] = {}
    for host in hosts(n_hosts):
        for metric in METRICS:
            for times in by_day.values():
                files[segment_file(root, host, metric, times[0])] = [
                    encode_record(host, metric, t, expected_value(host, metric, t, seed))
                    for t in times]
    reuse = (root.is_dir()
             and set(root.glob("*")) == {seg.parent.parent for seg in files}
             and set(root.glob("*/*")) == {seg.parent for seg in files}
             and set(root.glob("*/*/*")) == set(files))
    if not reuse:
        shutil.rmtree(root, ignore_errors=True)
    for seg, lines in files.items():
        if not reuse:
            seg.parent.mkdir(parents=True, exist_ok=True)
        seg.write_bytes(b"".join(lines))
    return sum(map(len, files.values()))


def read_archive(root: Path) -> dict[tuple[str, str], list[tuple[int, float]]]:
    """Every sample on disk per series, in file order (day files in name order)."""
    out: dict[tuple[str, str], list[tuple[int, float]]] = {}
    for series_dir in sorted(p for p in root.iterdir() if p.is_dir()):
        for metric_dir in sorted(series_dir.iterdir()):
            for seg in sorted(metric_dir.glob("*.seg")):
                for line in seg.read_bytes().splitlines():
                    host, metric, t, v = parse_record(line)
                    out.setdefault((host, metric), []).append((t, v))
    return out


def rng(seed: int, purpose: str) -> random.Random:
    return random.Random(f"{seed}|{purpose}")


def median(values):
    s = sorted(values)
    n = len(s)
    if n == 0:
        return None
    mid = n // 2
    return s[mid] if n % 2 else (s[mid - 1] + s[mid]) / 2


def cpu_seconds(pid: int) -> float:
    """user + system CPU of one live process, from /proc."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def peak_rss_mb(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")

