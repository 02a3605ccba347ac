"""Flat-file telemetry backend.

Layout under the store root, one directory per series and one append-only
segment file per UTC day:

    <root>/<path with '/' replaced by '~'>/<metric>/<YYYYMMDD>.seg

Segment files hold wire record lines, bit-identical to what travels on the
wire, so the archive can be grepped, shipped or replayed with nothing but a
text tool. Samples the retention sweep derives are kept apart in
<YYYYMMDD>.dseg files in the same directory.

The store is a MemoryStore that writes through: its columns answer dedup,
latest and range, and each sample they accept is one open, one O_APPEND
write of its line and one close, so no segment file stays open between
appends (`ulimit -n` need not grow with the series count) and a crash costs
at most the trailing partial line, which reopening discards.

The columns hold every archived sample: per series, one array of
timestamps, one list of values, one array of ttls, the path and metric
once, and the derived timestamps once there are any. Samples are built when
read. A reopened archive costs about 67 bytes of RAM per sample
(tracemalloc, 5500 series, 173,220 samples), where one slotted MetricSample
per sample cost 165.

Retention rewrites (or unlinks) only the day files that held a removed
sample; the others keep their inode and mtime.
"""

from __future__ import annotations

import contextlib
import logging
import os
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable

from fabmon.core import MetricSample, ResourcePath
from fabmon.wire.codec import MalformedRecord, SchemaViolation, decode_sample, encode_sample
from fabmon.archive.store import AppendResult, Key, MemoryStore, sample_key

log = logging.getLogger(__name__)

_DAY_MS = 86_400_000
_SUFFIXES = (".seg", ".dseg")  # indexed by "derived"


def day_bucket(ts_ms: int) -> str:
    return datetime.fromtimestamp(ts_ms // 1000, tz=timezone.utc).strftime("%Y%m%d")


def _series_dir(root: Path, key: Key) -> str:
    path_text, metric = key
    return os.path.join(root, path_text.replace("/", "~"), metric)


class FileSegmentStore(MemoryStore):
    def __init__(self, root: str | Path):
        super().__init__()
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        # series key -> (UTC day number, "<series dir>/<YYYYMMDD>") of its last write
        self._stems: dict[Key, tuple[int, str]] = {}
        self._load()

    # -- startup scan ------------------------------------------------------

    def _load(self) -> None:
        segs = []
        for dirpath, _dirs, files in os.walk(self.root):
            segs.extend(os.path.join(dirpath, f) for f in files if f.endswith(_SUFFIXES))
        # path-component order, the order sorted() gives the same paths as Path objects
        for seg in sorted(segs, key=lambda p: p.split(os.sep)):
            self._load_segment(seg, derived=seg.endswith(".dseg"))

    def _load_segment(self, seg: str, derived: bool) -> None:
        with open(seg, "rb") as fh:
            data = fh.read()
        if not data:
            return
        lines = data.split(b"\n")
        trailing = lines.pop()  # complete files end with a newline -> empty tail
        if trailing:
            log.warning("dropping partial trailing record in %s", seg)
        for i, line in enumerate(lines):
            try:
                sample = decode_sample(line + b"\n")
            except (MalformedRecord, SchemaViolation) as exc:
                if i == len(lines) - 1 and not trailing:
                    # torn final write that still got its newline out
                    log.warning("dropping undecodable final record in %s", seg)
                    continue
                raise MalformedRecord(f"{seg}: corrupt record at line {i + 1}: {exc}") from exc
            if derived:
                super().append_derived(sample)
            else:
                super().append(sample)

    # -- file plumbing -----------------------------------------------------

    def _stem(self, key: Key, timestamp: int) -> str:
        """The series' segment path without suffix for this sample's UTC day."""
        day = timestamp // _DAY_MS
        known = self._stems.get(key)
        if known is not None and known[0] == day:
            return known[1]
        series_dir = _series_dir(self.root, key)
        os.makedirs(series_dir, exist_ok=True)
        stem = os.path.join(series_dir, day_bucket(timestamp))
        self._stems[key] = (day, stem)
        return stem

    def _write(self, sample: MetricSample, derived: bool) -> None:
        name = self._stem(sample_key(sample), sample.timestamp) + _SUFFIXES[derived]
        line = encode_sample(sample)
        try:
            fh = open(name, "ab", buffering=0)
        except FileNotFoundError:  # the series directory was removed behind our back
            os.makedirs(os.path.dirname(name), exist_ok=True)
            fh = open(name, "ab", buffering=0)
        with fh:
            written = fh.write(line)
            if written != len(line):
                fh.truncate(fh.tell() - written)  # or the next line glues onto the partial one
                raise OSError(f"short write to {name}: {written} of {len(line)} bytes")

    # -- MemoryStore, written through -------------------------------------

    def _through(self, result: AppendResult, sample: MetricSample, derived: bool) -> AppendResult:
        if result is AppendResult.OK:
            try:
                self._write(sample, derived)
            except BaseException:
                # not on disk, so not in the columns: a retry must be written, not a duplicate
                super().remove(sample.path, sample.metric, (sample.timestamp,))
                raise
        return result

    def append(self, sample: MetricSample) -> AppendResult:
        return self._through(super().append(sample), sample, derived=False)

    def append_derived(self, sample: MetricSample) -> AppendResult:
        return self._through(super().append_derived(sample), sample, derived=True)

    def remove(self, path: ResourcePath, metric: str, timestamps: Iterable[int]) -> int:
        doomed = set(timestamps)
        # the day files, as (day, derived), that hold a doomed sample
        touched = {(ts // _DAY_MS, self.is_derived(path, metric, ts))
                   for ts in doomed if self.range(path, metric, ts, ts + 1)}
        removed = super().remove(path, metric, doomed)
        if removed:
            self._rewrite_days(path, metric, touched)
        return removed

    def _rewrite_days(self, path: ResourcePath, metric: str, days: set[tuple[int, bool]]) -> None:
        """Regenerate the touched day files from the columns; leave the others be."""
        series_dir = _series_dir(self.root, (str(path), metric))
        if not os.path.isdir(series_dir):
            return
        for day, derived in days:
            start = day * _DAY_MS
            keep = [s for s in self.range(path, metric, start, start + _DAY_MS)
                    if self.is_derived(path, metric, s.timestamp) == derived]
            seg = os.path.join(series_dir, day_bucket(start)) + _SUFFIXES[derived]
            if not keep:
                with contextlib.suppress(FileNotFoundError):
                    os.unlink(seg)
                continue
            with open(seg + ".tmp", "wb") as fh:
                fh.write(b"".join(encode_sample(s) for s in keep))
            os.replace(seg + ".tmp", seg)
