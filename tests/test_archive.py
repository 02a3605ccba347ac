from __future__ import annotations

import errno
import io
import os
import random
import shutil
import subprocess
import sys

import pytest

from conftest import EPOCH_MS, make_sample
from fabmon.core import ResourcePath, SimClock
from fabmon.archive import (
    AppendResult,
    FileSegmentStore,
    Importer,
    InvalidRange,
    MemoryStore,
    RetentionPolicy,
    filestore,
    retention_sweep,
)
from fabmon.wire import RequestError, WireClient, connect_memory
from fabmon.wire.codec import decode_wire_line, encode_sample

PATH = ResourcePath.parse("bnl/farm/n1")

HOUR = 3_600_000


@pytest.fixture(params=["memory", "file"])
def store(request, tmp_path):
    if request.param == "memory":
        yield MemoryStore()
    else:
        s = FileSegmentStore(tmp_path / "telemetry")
        yield s
        s.close()


class TestAppend:
    def test_fresh_ok(self, store):
        assert store.append(make_sample()) is AppendResult.OK

    def test_duplicate_noop(self, store):
        s = make_sample()
        store.append(s)
        assert store.append(s) is AppendResult.DUPLICATE
        assert store.range(PATH, "cpu.load1", 1, 2**60) == [s]

    def test_conflict_rejected(self, store):
        store.append(make_sample(value=0.5))
        assert store.append(make_sample(value=0.7)) is AppendResult.CONFLICT
        assert store.latest(PATH, "cpu.load1").value == 0.5

    def test_ttl_change_is_conflict(self, store):
        store.append(make_sample(ttl=60))
        assert store.append(make_sample(ttl=90)) is AppendResult.CONFLICT


class TestLatest:
    def test_in_order(self, store):
        store.append(make_sample(ts=EPOCH_MS + 1000))
        store.append(make_sample(ts=EPOCH_MS + 2000, value=0.9))
        assert store.latest(PATH, "cpu.load1").timestamp == EPOCH_MS + 2000

    def test_out_of_order(self, store):
        store.append(make_sample(ts=EPOCH_MS + 2000, value=0.9))
        store.append(make_sample(ts=EPOCH_MS + 1000))
        assert store.latest(PATH, "cpu.load1").timestamp == EPOCH_MS + 2000

    def test_absent(self, store):
        assert store.latest(PATH, "nope") is None


class TestRange:
    def test_half_open(self, store):
        for ts in (10, 20, 30):
            store.append(make_sample(ts=EPOCH_MS + ts))
        got = store.range(PATH, "cpu.load1", EPOCH_MS + 10, EPOCH_MS + 30)
        assert [s.timestamp - EPOCH_MS for s in got] == [10, 20]

    def test_empty(self, store):
        assert store.range(PATH, "cpu.load1", 1, 5) == []

    def test_invalid(self, store):
        with pytest.raises(InvalidRange):
            store.range(PATH, "cpu.load1", 10, 5)

    def test_shadow_oracle(self, store):
        rng = random.Random(99)
        shadow = {}
        for _ in range(500):
            ts = EPOCH_MS + rng.randrange(0, 10_000)
            metric = rng.choice(["m1", "m2"])
            s = make_sample(metric=metric, ts=ts, value=rng.randrange(100))
            got = store.append(s)
            if (metric, ts) not in shadow:
                assert got is AppendResult.OK
                shadow[(metric, ts)] = s
            else:
                assert got in (AppendResult.DUPLICATE, AppendResult.CONFLICT)
        for _ in range(100):
            t0 = EPOCH_MS + rng.randrange(0, 10_000)
            t1 = t0 + rng.randrange(0, 5_000)
            metric = rng.choice(["m1", "m2"])
            expected = sorted(
                (s for (m, ts), s in shadow.items() if m == metric and t0 <= ts < t1),
                key=lambda s: s.timestamp,
            )
            assert store.range(PATH, metric, t0, t1) == expected


class TestFileStoreDurability:
    def test_reopen_preserves_answers(self, tmp_path):
        root = tmp_path / "t"
        store = FileSegmentStore(root)
        expected = []
        for i in range(50):
            s = make_sample(ts=EPOCH_MS + i * 1000, value=i, metric="m1")
            store.append(s)
            expected.append(s)
        store.close()
        reopened = FileSegmentStore(root)
        assert reopened.range(PATH, "m1", 1, 2**60) == expected
        assert reopened.latest(PATH, "m1") == expected[-1]
        reopened.close()

    def test_truncated_trailing_line_dropped(self, tmp_path):
        root = tmp_path / "t"
        store = FileSegmentStore(root)
        for i in range(10):
            store.append(make_sample(ts=EPOCH_MS + i, value=i, metric="m1"))
        store.close()
        seg = next(root.rglob("*.seg"))
        raw = seg.read_bytes()
        seg.write_bytes(raw[:-7])  # rip into the last record
        reopened = FileSegmentStore(root)
        got = reopened.range(PATH, "m1", 1, 2**60)
        assert len(got) == 9  # lost exactly the torn sample
        assert [s.value for s in got] == list(range(9))
        reopened.close()

    def test_mid_file_corruption_raises(self, tmp_path):
        root = tmp_path / "t"
        store = FileSegmentStore(root)
        for i in range(3):
            store.append(make_sample(ts=EPOCH_MS + i, metric="m1"))
        store.close()
        seg = next(root.rglob("*.seg"))
        lines = seg.read_bytes().splitlines(keepends=True)
        lines[0] = b"garbage\n"
        seg.write_bytes(b"".join(lines))
        from fabmon.wire.codec import MalformedRecord

        with pytest.raises(MalformedRecord):
            FileSegmentStore(root)

    def test_segment_layout(self, tmp_path):
        root = tmp_path / "t"
        store = FileSegmentStore(root)
        s = make_sample(ts=EPOCH_MS)  # 2020-09-13 UTC
        store.append(s)
        store.close()
        seg = root / "bnl~farm~n1" / "cpu.load1" / "20200913.seg"
        assert seg.exists()
        assert seg.read_bytes() == encode_sample(s)


class TestFileStoreAppend:
    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_each_line_on_disk_and_no_segment_held_open(self, tmp_path):
        root = tmp_path / "t"
        store = FileSegmentStore(root)
        for r in range(2):
            for i in range(300):
                s = make_sample(path=f"s/f/n{i}", metric="m1", ts=EPOCH_MS + r * 1000, value=i)
                store.append(s)
                seg = root / f"s~f~n{i}" / "m1" / "20200913.seg"
                assert seg.read_bytes().endswith(encode_sample(s))
        held = []
        for fd in os.listdir("/proc/self/fd"):
            try:
                target = os.readlink(f"/proc/self/fd/{fd}")
            except OSError:  # the listing's own descriptor is gone by now
                continue
            if target.startswith(str(root)):
                held.append(target)
        assert held == []

    def test_day_rollover_and_late_sample(self, tmp_path):
        root = tmp_path / "t"
        store = FileSegmentStore(root)
        midnight = 1_600_041_600_000  # 2020-09-14T00:00:00Z
        before = make_sample(ts=midnight - 1, value=1.0)
        after = make_sample(ts=midnight, value=2.0)
        late = make_sample(ts=midnight - HOUR, value=3.0)
        for s in (before, after, late):
            assert store.append(s) is AppendResult.OK
        series = root / "bnl~farm~n1" / "cpu.load1"
        assert (series / "20200913.seg").read_bytes() == encode_sample(before) + encode_sample(late)
        assert (series / "20200914.seg").read_bytes() == encode_sample(after)
        reopened = FileSegmentStore(root)
        assert reopened.range(PATH, "cpu.load1", 1, 2**60) == [late, before, after]

    def test_series_directory_removed_behind_the_store(self, tmp_path):
        root = tmp_path / "t"
        store = FileSegmentStore(root)
        store.append(make_sample(ts=EPOCH_MS, value=1.0))
        shutil.rmtree(root / "bnl~farm~n1")
        s = make_sample(ts=EPOCH_MS + 1000, value=2.0)
        assert store.append(s) is AppendResult.OK
        seg = root / "bnl~farm~n1" / "cpu.load1" / "20200913.seg"
        assert seg.read_bytes() == encode_sample(s)


class TestBackendEquivalence:
    def test_randomized_workload(self, tmp_path):
        rng = random.Random(7)
        mem = MemoryStore()
        fil = FileSegmentStore(tmp_path / "t")
        metrics = ["m1", "m2", "m3"]
        for _ in range(1500):
            s = make_sample(
                metric=rng.choice(metrics),
                ts=EPOCH_MS + rng.randrange(0, 3 * 86_400_000),  # spans day buckets
                value=rng.randrange(1000),
            )
            assert mem.append(s) == fil.append(s)
        for _ in range(150):
            metric = rng.choice(metrics)
            t0 = EPOCH_MS + rng.randrange(0, 86_400_000)
            t1 = t0 + rng.randrange(0, 86_400_000)
            assert mem.range(PATH, metric, t0, t1) == fil.range(PATH, metric, t0, t1)
            assert mem.latest(PATH, metric) == fil.latest(PATH, metric)
        fil.close()


class _DictModel:
    """Brute-force reference store: key -> {timestamp: (sample, derived)}."""

    def __init__(self):
        self.series: dict[tuple[str, str], dict[int, tuple]] = {}

    def append(self, sample, derived=False):
        held = self.series.setdefault((str(sample.path), sample.metric), {})
        if sample.timestamp in held:
            same = held[sample.timestamp][0] == sample
            return AppendResult.DUPLICATE if same else AppendResult.CONFLICT
        held[sample.timestamp] = (sample, derived)
        return AppendResult.OK

    def remove(self, path, metric, timestamps):
        held = self.series.get((str(path), metric), {})
        doomed = set(timestamps) & held.keys()
        for ts in doomed:
            del held[ts]
        if not held:
            self.series.pop((str(path), metric), None)
        return len(doomed)

    def range(self, path, metric, t0, t1):
        held = self.series.get((str(path), metric), {})
        return [held[ts][0] for ts in sorted(held) if t0 <= ts < t1]

    def latest(self, path, metric):
        held = self.series.get((str(path), metric), {})
        return held[max(held)][0] if held else None

    def is_derived(self, path, metric, ts):
        held = self.series.get((str(path), metric), {})
        return ts in held and held[ts][1]

    def keys(self):
        return sorted(self.series)


class TestStoreOracle:
    """Memory, file and reopened file stores against a dict model, not each other."""

    PATHS = [ResourcePath.parse("bnl/farm/n1"), ResourcePath.parse("uta/farm/n2")]
    METRICS = ["m1", "m2"]

    def _assert_same(self, model, store, rng, times):
        assert store.keys() == model.keys()
        for path in self.PATHS:
            for metric in self.METRICS:
                assert store.latest(path, metric) == model.latest(path, metric)
                assert store.range(path, metric, 1, 1 << 62) == model.range(path, metric, 1, 1 << 62)
                for _ in range(5):
                    t0 = rng.choice(times) + rng.choice((-1, 0, 1))
                    t1 = t0 + rng.randrange(0, 2 * 86_400_000)
                    assert store.range(path, metric, t0, t1) == model.range(path, metric, t0, t1)
                for ts in times:
                    assert store.is_derived(path, metric, ts) == model.is_derived(path, metric, ts)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_seeded_workload(self, tmp_path, seed):
        rng = random.Random(seed)
        # a small pool over three UTC days, so keys repeat (duplicates and
        # conflicts), arrive out of order and cross day segments
        times = sorted(EPOCH_MS + rng.randrange(0, 3 * 86_400_000) for _ in range(40))
        model, mem, fil = _DictModel(), MemoryStore(), FileSegmentStore(tmp_path / "t")
        stores = (mem, fil)
        for step in range(600):
            path, metric = rng.choice(self.PATHS), rng.choice(self.METRICS)
            op = rng.random()
            if op < 0.08:
                doomed = rng.sample(times, rng.randrange(1, len(times) + 1))
                want = model.remove(path, metric, doomed)
                assert [s.remove(path, metric, iter(doomed)) for s in stores] == [want, want]
            else:
                derived = op > 0.85
                sample = make_sample(path=str(path), metric=metric, ts=rng.choice(times),
                                     value=rng.choice((1.0, 2.0)))
                want = model.append(sample, derived)
                for s in stores:
                    got = s.append_derived(sample) if derived else s.append(sample)
                    assert got is want, (step, s)
            if step % 50 == 49:
                for s in stores:
                    self._assert_same(model, s, rng, times)
        fil.close()
        reopened = FileSegmentStore(tmp_path / "t")
        for s in (mem, reopened):
            self._assert_same(model, s, rng, times)
        reopened.close()


class TestMemoryLayout:
    def test_value_types_carry_no_dict(self):
        sample = make_sample()
        assert not hasattr(sample, "__dict__")
        assert not hasattr(sample.path, "__dict__")

    def test_decoded_records_share_the_metric_text(self):
        from fabmon.wire.codec import decode_sample

        a = decode_sample(encode_sample(make_sample(ts=EPOCH_MS)))
        b = decode_sample(encode_sample(make_sample(ts=EPOCH_MS + 1)))
        assert a.metric is b.metric

    def test_reopened_archive_bytes_per_sample(self, tmp_path):
        # a child process, so no other test's threads allocate while it counts;
        # a sample __dict__, per-series dict and one str per metric measured
        # 291 B/sample here, one slotted sample object each 162, columns 64
        script = """
import sys, tracemalloc
from fabmon.archive.filestore import FileSegmentStore
from fabmon.core import MetricSample, ResourcePath
root, n_series, per = sys.argv[1], 200, 30
store = FileSegmentStore(root)
for i in range(n_series):
    path = ResourcePath.parse(f"s{i % 8}/farm/n{i // 5:04d}")
    for j in range(per):
        store.append(MetricSample(path, f"m{i % 5}.x", 1_600_000_000_000 + 30_000 * j, j + 0.5, 90))
store.close()
del store
tracemalloc.start()
store = FileSegmentStore(root)
print(tracemalloc.get_traced_memory()[0] / (n_series * per))
"""
        env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), "..", "src"))
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "t")], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout) < 80, f"{float(proc.stdout):.1f} B/sample"

    def test_appends_allocate_no_object_per_sample(self):
        # a child process, so no other test's objects come and go while it counts
        script = """
import gc
from fabmon.archive.store import MemoryStore
from fabmon.core import MetricSample, ResourcePath
store, path = MemoryStore(), ResourcePath.parse("bnl/farm/n1")
store.append(MetricSample(path, "m", 1, 0.5, 60))
gc.collect()
before = len(gc.get_objects())
for i in range(2, 10_002):
    store.append(MetricSample(path, "m", i, i + 0.5, 60))
gc.collect()
print(len(gc.get_objects()) - before)
"""
        env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), "..", "src"))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 10, f"{int(proc.stdout)} objects for 10,000 samples"

    def test_values_keep_their_type(self, tmp_path):
        fil = FileSegmentStore(tmp_path / "t")
        stores = [MemoryStore(), fil]
        values = {"m.int": 5, "m.float": 5.0, "m.text": "5"}
        for s in stores:
            for metric, value in values.items():
                s.append(make_sample(metric=metric, ts=EPOCH_MS, value=value))
                s.append(make_sample(metric=metric, ts=EPOCH_MS + 1, value=value))
        fil.close()
        stores.append(FileSegmentStore(tmp_path / "t"))
        for s in stores:
            for metric, value in values.items():
                got = [s.latest(PATH, metric)] + s.range(PATH, metric, 1, 1 << 62)
                assert [type(x.value) for x in got] == [type(value)] * 3, (s, metric)
                assert all(x.value == value for x in got)
        stores[-1].close()


class TestThroughputFloor:
    def test_file_store_sustains_10k_appends_per_second(self, tmp_path):
        store = FileSegmentStore(tmp_path / "t")
        n = 10_000
        batch = [
            make_sample(path=f"s/f/n{i % 20}", metric=f"m{i % 5}",
                        ts=EPOCH_MS + i * 1000, value=i)
            for i in range(n)
        ]
        import time

        t0 = time.perf_counter()
        for s in batch:
            store.append(s)
        rate = n / (time.perf_counter() - t0)
        store.close()
        assert rate >= 10_000, f"file store managed only {rate:,.0f} appends/s"


class TestImporter:
    def _stack(self):
        clock = SimClock(EPOCH_MS)
        importer = Importer(MemoryStore(), clock)
        return clock, importer

    def test_three_agents_hundred_samples(self):
        clock, importer = self._stack()
        for a in range(3):
            client = WireClient(connect_memory(importer.server), role="producer", name=f"a{a}")
            for i in range(100):
                client.publish(make_sample(
                    path=f"bnl/farm/n{a}", ts=EPOCH_MS + i * 1000, value=i))
        assert importer.counters.ingested == 300
        assert importer.counters.duplicates == 0
        c = importer.counters
        assert c.ingested + c.duplicates + c.rejected == 300

    def test_replay_is_idempotent(self):
        clock, importer = self._stack()
        batch = [make_sample(ts=EPOCH_MS + i * 1000, value=i) for i in range(20)]
        for _ in range(2):  # agent reconnects and replays
            client = WireClient(connect_memory(importer.server), role="producer", name="a")
            for s in batch:
                client.publish(s)
        assert importer.counters.ingested == 20
        assert importer.counters.duplicates == 20
        assert importer.store.range(PATH, "cpu.load1", 1, 2**60) == batch

    def test_malformed_line_rejected_not_fatal(self):
        clock, importer = self._stack()
        client = WireClient(connect_memory(importer.server), role="producer", name="a")
        for i in range(9):
            client.publish(make_sample(ts=EPOCH_MS + i + 1))
        client._channel.send(b'{"t":not json\n')
        client.publish(make_sample(ts=EPOCH_MS + 100))
        assert importer.counters.ingested == 10
        assert importer.counters.rejected == 1
        c = importer.counters
        assert c.ingested + c.duplicates + c.rejected == 11

    def test_conflict_counts_rejected_and_errors(self):
        clock, importer = self._stack()
        client = WireClient(connect_memory(importer.server), role="producer", name="a")
        client.publish(make_sample(value=1.0))
        client.publish(make_sample(value=2.0))  # same key, new value
        assert importer.counters.ingested == 1
        assert importer.counters.rejected == 1
        assert importer.store.latest(PATH, "cpu.load1").value == 1.0

    def test_text_value_utf8_cannot_encode_is_rejected(self):
        # JSON's \ud800 escape decodes to a lone surrogate; stored, it would
        # break every latest answer for the series
        clock, importer = self._stack()
        client = WireClient(connect_memory(importer.server), role="producer", name="a")
        client._channel.send(b'{"t":%d,"p":"bnl/farm/n1","m":"cpu.load1",'
                             b'"v":"\\ud800","ttl":60}\n' % EPOCH_MS)
        error = decode_wire_line(client._channel.recv(0))
        assert (error.kind, error.body["code"]) == ("ERROR", "malformed_record")
        assert (importer.counters.ingested, importer.counters.rejected) == (0, 1)
        client.publish(make_sample(value="up 14 days"))
        consumer = WireClient(connect_memory(importer.server), role="consumer", name="c")
        assert consumer.query_latest(PATH, "cpu.load1").sample.value == "up 14 days"

    @pytest.mark.parametrize("fills", ["before the line", "part way through the line"])
    def test_failed_segment_write_is_rejected_and_the_retry_kept(self, tmp_path, monkeypatch,
                                                                 fills):
        opens = []

        class HalfWrite(io.FileIO):
            def write(self, data):
                return super().write(data[:len(data) // 2])

        def disk_full_once(name, mode, **kwargs):
            opens.append(name)
            if len(opens) > 1:
                return open(name, mode, **kwargs)
            if fills == "before the line":
                raise OSError(errno.ENOSPC, "No space left on device")
            return HalfWrite(name, mode)

        monkeypatch.setattr(filestore, "open", disk_full_once, raising=False)
        importer = Importer(FileSegmentStore(tmp_path / "t"), SimClock(EPOCH_MS))
        client = WireClient(connect_memory(importer.server), role="producer", name="a")
        s = make_sample(value=1.0)
        client.publish(s)
        assert decode_wire_line(client._channel.recv(0)).body["code"] == "internal"
        assert importer.counters.rejected == 1
        assert importer.store.latest(PATH, "cpu.load1") is None
        client.publish(s)  # the producer's retry
        later = make_sample(ts=EPOCH_MS + 1000, value=2.0)
        client.publish(later)
        assert (importer.counters.ingested, importer.counters.duplicates) == (2, 0)
        assert len(opens) == 3
        seg = tmp_path / "t" / "bnl~farm~n1" / "cpu.load1" / "20200913.seg"
        assert seg.read_bytes() == encode_sample(s) + encode_sample(later)
        assert FileSegmentStore(tmp_path / "t").range(PATH, "cpu.load1", 1, 2**60) == [s, later]

    def test_query_serving(self):
        clock, importer = self._stack()
        prod = WireClient(connect_memory(importer.server), role="producer", name="a")
        prod.publish(make_sample(ts=EPOCH_MS + 1000, value=0.25))
        cons = WireClient(connect_memory(importer.server), role="consumer", name="q")
        assert cons.query_latest(PATH, "cpu.load1").sample.value == 0.25
        assert len(cons.query_range(PATH, "cpu.load1", 1, 2**60)) == 1
        with pytest.raises(RequestError, match="^invalid_range: "):
            cons.query_range(PATH, "cpu.load1", 10, 5)


class TestRetention:
    def test_noop_when_nothing_old(self, store):
        now = EPOCH_MS + 10 * HOUR
        store.append(make_sample(ts=now - HOUR))
        result = retention_sweep(store, RetentionPolicy(max_age_s=7200, bucket_s=3600), now)
        assert (result.removed, result.compacted) == (0, 0)

    def test_hour_bucket_mean(self, store):
        base = EPOCH_MS - EPOCH_MS % HOUR + HOUR  # one whole hour bucket
        for i in range(60):
            store.append(make_sample(ts=base + i * 60_000, value=float(i), metric="m1"))
        # one newer sample so the latest exemption does not shield the bucket
        store.append(make_sample(ts=base + 30 * HOUR, value=999.0, metric="m1"))
        now = base + 40 * HOUR
        result = retention_sweep(store, RetentionPolicy(max_age_s=5 * 3600, bucket_s=3600), now)
        assert result.removed == 60
        assert result.compacted == 1
        derived = store.range(PATH, "m1", base, base + HOUR)
        assert len(derived) == 1
        assert derived[0].value == pytest.approx(sum(range(60)) / 60)
        assert store.is_derived(PATH, "m1", derived[0].timestamp)

    def test_latest_value_retained(self, store):
        old = make_sample(ts=EPOCH_MS, value=5.0)
        store.append(old)
        now = EPOCH_MS + 100 * HOUR
        result = retention_sweep(store, RetentionPolicy(max_age_s=3600 * 2, bucket_s=3600), now)
        assert result.removed == 0
        assert store.latest(PATH, "cpu.load1") == old

    def test_file_store_survives_reopen_after_sweep(self, tmp_path):
        root = tmp_path / "t"
        store = FileSegmentStore(root)
        for i in range(30):
            store.append(make_sample(ts=EPOCH_MS + i * 60_000, value=float(i), metric="m1"))
        store.append(make_sample(ts=EPOCH_MS + 50 * HOUR, value=1.0, metric="m1"))
        retention_sweep(store, RetentionPolicy(max_age_s=3600, bucket_s=1800), EPOCH_MS + 60 * HOUR)
        before = {
            "range": store.range(PATH, "m1", 1, 2**60),
            "latest": store.latest(PATH, "m1"),
        }
        store.close()
        reopened = FileSegmentStore(root)
        assert reopened.range(PATH, "m1", 1, 2**60) == before["range"]
        assert reopened.latest(PATH, "m1") == before["latest"]
        ts0 = before["range"][0].timestamp
        assert reopened.is_derived(PATH, "m1", ts0)
        reopened.close()

    def test_sweep_rewrites_only_the_days_it_touches(self, tmp_path):
        day = 86_400_000
        base = EPOCH_MS - EPOCH_MS % day  # three whole UTC days
        mem, fil = MemoryStore(), FileSegmentStore(tmp_path / "t")
        for store in (mem, fil):
            for i in range(3 * 24):
                store.append(make_sample(ts=base + i * HOUR, value=float(i), metric="m1"))
        series_dir = tmp_path / "t" / "bnl~farm~n1" / "m1"
        days = sorted(os.listdir(series_dir))
        assert len(days) == 3
        before = {name: os.stat(series_dir / name) for name in days[1:]}
        policy = RetentionPolicy(max_age_s=3 * 24 * 3600, bucket_s=6 * 3600)
        now = base + 4 * 24 * HOUR  # only the first day is older than max_age
        results = [retention_sweep(s, policy, now) for s in (mem, fil)]
        assert results[0] == results[1] and results[0].removed == 24
        for name, st in before.items():
            after = os.stat(series_dir / name)
            assert (after.st_ino, after.st_mtime_ns) == (st.st_ino, st.st_mtime_ns), name
        assert sorted(os.listdir(series_dir)) == [days[0].replace(".seg", ".dseg")] + days[1:]
        fil.close()
        reopened = FileSegmentStore(tmp_path / "t")
        assert reopened.keys() == mem.keys()
        got = reopened.range(PATH, "m1", 1, 1 << 62)
        assert got == mem.range(PATH, "m1", 1, 1 << 62)
        assert [reopened.is_derived(PATH, "m1", x.timestamp) for x in got] == \
            [mem.is_derived(PATH, "m1", x.timestamp) for x in got]
        reopened.close()

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RetentionPolicy(max_age_s=100, bucket_s=100)
