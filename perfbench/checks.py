"""Checks of fabmon's outputs against the benchmark's own computations.

Each function returns a list of problems; an empty list means the output
is correct. None of them compares against a saved copy of earlier output:
values are recomputed with common.expected_value, sample sets come from
the generator's own record, and rollups are recomputed worst-of.
"""

from __future__ import annotations

import bisect

from common import METRICS, expected_value

STATUS_ORDER = ("pass", "warn", "fail", "unreachable")
_MAX_PROBLEMS = 20

Key = tuple[str, str]


def _capped(problems: list[str], detail: str) -> None:
    if len(problems) < _MAX_PROBLEMS:
        problems.append(detail)


def check_values(disk: dict[Key, list[tuple[int, float]]], seed: int) -> list[str]:
    """Every value on disk equals the synthetic generator for its (host, metric, t)."""
    problems: list[str] = []
    for (host, metric), series in disk.items():
        for t, v in series:
            if v != expected_value(host, metric, t, seed):
                _capped(problems, f"{host}/{metric}@{t}: value {v!r} is not the generator's")
    return problems


def check_series(disk: dict[Key, list[tuple[int, float]]], keys: list[Key],
                 history: list[int], sent: dict[Key, list[int]] | None = None) -> list[str]:
    """Each series holds its history, then new samples with strictly increasing times.

    With sent given (the generator's record of what it wrote), the new
    samples must be exactly those, each once.
    """
    problems: list[str] = []
    if set(disk) != set(keys):
        _capped(problems, f"series on disk {len(disk)} != expected {len(keys)}")
    for key in keys:
        times = [t for t, _ in disk.get(key, [])]
        if times[:len(history)] != history:
            _capped(problems, f"{key}: history not intact")
            continue
        new = times[len(history):]
        last = history[-1] if history else 0
        for t in new:
            if t <= last:
                _capped(problems, f"{key}: timestamp {t} not after {last}")
                break
            last = t
        if sent is not None and new != sent.get(key, []):
            _capped(problems,
                    f"{key}: on disk {len(new)} new samples, sent {len(sent.get(key, []))}")
    return problems


def new_samples(disk: dict[Key, list], n_history: int) -> int:
    return sum(max(0, len(series) - n_history) for series in disk.values())


def _worst(labels) -> str:
    return max(labels, key=STATUS_ORDER.index, default="unreachable")


def check_snapshots(snapshots: list[dict], texts: list[str], expected_cycles: int,
                    hosts: list[str]) -> list[str]:
    """Cycle count, every host present and passing, worst-of rollups, one text row per host."""
    problems: list[str] = []
    if len(snapshots) != expected_cycles:
        _capped(problems, f"{len(snapshots)} snapshots, the run allows {expected_cycles}")
    for cycle, (snap, text) in enumerate(zip(snapshots, texts), start=1):
        if snap.get("cycle") != cycle:
            _capped(problems, f"snapshot {cycle} says cycle {snap.get('cycle')}")
        seen = []
        for site in snap["sites"]:
            host_labels = []
            for host in site["hosts"]:
                seen.append(host["host"])
                host_labels.append(host["status"])
                if host["status"] != "pass":
                    _capped(problems, f"cycle {cycle}: {host['host']} is {host['status']}")
                if host["status"] != _worst(s["status"] for s in host["steps"]):
                    _capped(problems,
                            f"cycle {cycle}: {host['host']} is not the worst of its steps")
            if site["status"] != _worst(host_labels):
                _capped(problems,
                        f"cycle {cycle}: site {site['site']} is not the worst of its hosts")
        if sorted(seen) != sorted(hosts):
            _capped(problems, f"cycle {cycle}: {len(seen)} hosts reported, {len(hosts)} probed")
        rows = {line.split()[0] for line in text.splitlines() if line.startswith("site")}
        if rows != set(hosts):
            _capped(problems, f"cycle {cycle}: text table rows do not match the hosts")
    return problems


def _written_answer(problems: list[str], series: list[tuple[int, float]], key: Key,
                    t, v) -> bool:
    """False, with the problem noted, unless (t, v) is a sample of series."""
    if t is None:
        if key[1] in METRICS:
            _capped(problems, f"{key}: answered absent")
        return False
    i = bisect.bisect_left(series, (t,))
    if i == len(series) or series[i] != (t, v):
        _capped(problems, f"{key}: answer ({t}, {v!r}) was never written")
        return False
    return True


def check_latest(answers: list[tuple], written: dict[Key, list[tuple[int, float]]],
                 history_last: int, freshness_ms: int) -> list[str]:
    """Latest answers given on the archive's clock (the simulated fabric).

    An answer is (host, metric, t, v, stale, source, now_ms); t and v are
    None when absent. It must be a written sample; absent is a problem for
    a metric the fabric writes. An upstream answer is never older than the
    history. An answer not flagged stale is no older than the newest sample
    written freshness_ms before now_ms.
    """
    problems: list[str] = []
    for host, metric, t, v, stale, source, now_ms in answers:
        key = (host, metric)
        series = written.get(key, [])
        if not _written_answer(problems, series, key, t, v):
            continue
        if source == "upstream" and t < history_last:
            _capped(problems, f"{key}: upstream answer {t} older than the history")
        if stale:
            continue
        j = bisect.bisect_right(series, (now_ms - freshness_ms, float("inf")))
        floor = series[j - 1][0] if j else 0
        if t < floor:
            _capped(problems, f"{key}: answer {t} older than {floor} and not flagged stale")
    return problems


# the directory's clock counts whole milliseconds of wall time; the
# consumer's counts the same seconds on another clock
CLOCK_SLACK_S = 0.01


def check_latest_acked(answers: list[tuple], written: dict[Key, list[tuple[int, float]]],
                       history_last: int, freshness_s: float, lines: list[tuple[Key, int]],
                       sends: list[tuple[float, int]], acks: list[tuple[float, int]]
                       ) -> list[str]:
    """Latest answers over TCP, against when each sample was sent and acknowledged.

    answers: (host, metric, t, v, stale, source, asked_s, answered_s), in
    the order the directory's one consumer got them. lines: (key, t) of
    every sample the producer sent, in order. sends: (started_s, n), one per
    send, which put lines[:n] on the wire and began at started_s. acks:
    (seen_s, n), the importer had handled lines[:n] by seen_s.

    - every answer is a written sample, and a produced one was sent before
      the answer came;
    - an upstream answer is no older than the history, nor (unless flagged
      stale) than the newest sample of its key acknowledged before it was
      asked;
    - a cache answer not flagged stale repeats the key's previous non-stale
      upstream answer, which came less than freshness_s before it was asked:
      the consumer is the directory's only client, so only its own upstream
      answers fill the cache.
    """
    problems: list[str] = []
    line_of = {line: i for i, line in enumerate(lines)}
    key_lines: dict[Key, list[int]] = {}
    for i, (key, _) in enumerate(lines):
        key_lines.setdefault(key, []).append(i)
    send_starts = [s for s, _ in sends]
    ack_seen = [s for s, _ in acks]
    previous: dict[Key, tuple] = {}  # key -> (t, v, answered_s) of its last upstream answer
    for host, metric, t, v, stale, source, asked_s, answered_s in answers:
        key = (host, metric)
        if not _written_answer(problems, written.get(key, []), key, t, v):
            continue
        i = line_of.get((key, t))
        j = bisect.bisect_right(send_starts, answered_s)
        if i is not None and (j == 0 or i >= sends[j - 1][1]):
            _capped(problems, f"{key}: answer {t} came before it was sent")
        if source == "upstream":
            floor = history_last
            j = bisect.bisect_right(ack_seen, asked_s)
            if j and not stale:
                mine = key_lines.get(key, [])
                k = bisect.bisect_left(mine, acks[j - 1][1])
                if k:
                    floor = max(floor, lines[mine[k - 1]][1])
            if t < floor:
                _capped(problems, f"{key}: upstream answer {t} older than {floor}")
            if not stale:
                previous[key] = (t, v, answered_s)
        elif source == "cache" and not stale:
            prev = previous.get(key)
            if prev is None or prev[:2] != (t, v):
                _capped(problems, f"{key}: cached {t} is not the last upstream answer {prev}")
            elif asked_s - prev[2] >= freshness_s + CLOCK_SLACK_S:
                _capped(problems, f"{key}: cached {t} served {asked_s - prev[2]:.3f}s after "
                                  f"its fetch and not flagged stale")
    return problems


def check_ranges(answers: list[tuple], written: dict[Key, list[tuple[int, float]]]) -> list[str]:
    """Each (host, metric, t0, t1, [(t, v), ...]) equals the written record of [t0, t1), sorted."""
    problems: list[str] = []
    for host, metric, t0, t1, samples in answers:
        want = [(t, v) for t, v in written.get((host, metric), []) if t0 <= t < t1]
        if [tuple(s) for s in samples] != want:
            _capped(problems, f"{host}/{metric} [{t0},{t1}): {len(samples)} samples, "
                              f"expected {len(want)}")
    return problems
