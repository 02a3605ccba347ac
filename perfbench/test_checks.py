"""The benchmark's own tests: its checks pass on real output and fail on corrupted output.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Tiny configurations (16 hosts, one-second TCP runs); no timing is asserted.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import common  # noqa: E402

common.require_source()

import run  # noqa: E402
import tcpwork  # noqa: E402

N_HOSTS = 16
SEED = 5


class _Workdir(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls._saved = common.WORK
        common.WORK = Path(tempfile.mkdtemp(prefix="perfbench-test-"))

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(common.WORK, ignore_errors=True)
        common.WORK = cls._saved


class FabricChecks(_Workdir):
    """One tiny simulated fabric, then each check against a corrupted copy of its output."""

    @classmethod
    def setUpClass(cls):
        super().setUpClass()
        run.run_fabric(SEED, 1, None, n_hosts=N_HOSTS)
        out = common.WORK / "fabric-1100" / "out"
        cls.res = json.loads((out / "result.json").read_text())
        cls.disk = common.read_archive(common.WORK / "fabric-1100" / "archive")
        cls.snaps = [json.loads((out / f"snapshot{i}.json").read_text()) for i in (1, 2)]
        cls.texts = [(out / f"status{i}.txt").read_text() for i in (1, 2)]

    def outcome(self, res=None, disk=None, snaps=None, texts=None):
        return run.fabric_outcome(res or self.res, disk or self.disk, snaps or self.snaps,
                                  texts or self.texts, SEED, N_HOSTS, N_HOSTS * 5 * 12)

    def test_real_output_passes(self):
        out = self.outcome()
        self.assertEqual(out["problems"], [])
        self.assertEqual(out["failed"], 0)
        self.assertTrue(all(v > 0 for v in out["e2e"].values()), out["e2e"])

    def test_wrong_value_fails(self):
        disk = copy.deepcopy(self.disk)
        key = sorted(disk)[3]
        t, v = disk[key][-1]
        disk[key][-1] = (t, v + 1)
        problems = self.outcome(disk=disk)["problems"]
        self.assertTrue(any("not the generator's" in p for p in problems))

    def test_missing_sample_fails(self):
        disk = copy.deepcopy(self.disk)
        del disk[sorted(disk)[0]][-1]
        problems = self.outcome(disk=disk)["problems"]
        self.assertTrue(any("new samples on disk" in p for p in problems))

    def test_reordered_series_fails(self):
        disk = copy.deepcopy(self.disk)
        series = disk[sorted(disk)[1]]
        series[-1], series[-2] = series[-2], series[-1]
        self.assertTrue(any("not after" in p for p in self.outcome(disk=disk)["problems"]))

    def test_stale_answer_not_flagged_fails(self):
        res = copy.deepcopy(self.res)
        i = next(i for i, a in enumerate(res["answers"]) if a[1] == "cache")
        host, metric = res["answers"][i][3], res["answers"][i][4]
        old_t, old_v = self.disk[(host, metric)][0]  # the oldest history sample
        res["answers"][i][5:7] = [old_t, old_v]
        self.assertTrue(any("not flagged stale" in p for p in self.outcome(res=res)["problems"]))
        res["answers"][i][2] = True  # flagged: allowed
        self.assertEqual(self.outcome(res=res)["problems"], [])

    def test_answer_never_written_fails(self):
        res = copy.deepcopy(self.res)
        res["answers"][0][6] = -1.0
        self.assertTrue(any("never written" in p for p in self.outcome(res=res)["problems"]))

    def test_rollup_not_worst_of_fails(self):
        snaps = copy.deepcopy(self.snaps)
        snaps[0]["sites"][0]["hosts"][0]["steps"][1]["status"] = "warn"
        problems = self.outcome(snaps=snaps)["problems"]
        self.assertTrue(any("not the worst of its steps" in p for p in problems))
        snaps = copy.deepcopy(self.snaps)
        snaps[1]["sites"][0]["hosts"][0]["status"] = "fail"
        problems = self.outcome(snaps=snaps)["problems"]
        self.assertTrue(any("not the worst of its hosts" in p for p in problems))

    def test_missing_snapshot_or_host_fails(self):
        problems = self.outcome(snaps=self.snaps[:1], texts=self.texts[:1])["problems"]
        self.assertTrue(any("the run allows 2" in p for p in problems))
        snaps = copy.deepcopy(self.snaps)
        del snaps[0]["sites"][0]["hosts"][0]
        self.assertTrue(any("hosts reported" in p for p in self.outcome(snaps=snaps)["problems"]))

    def test_dropped_samples_fail(self):
        res = copy.deepcopy(self.res)
        res["counts"]["ingested"] -= 1
        res["counts"]["dropped"] += 1
        out = self.outcome(res=res)
        self.assertTrue(any("produced" in p for p in out["problems"]))
        self.assertEqual(out["failed"], 1)


class TracedRuns(_Workdir):
    """A traced run reports every per-layer metric; the counts it derives are exact."""

    def test_fabric_and_tcp_query(self):
        trace_dir = common.WORK / "traces-fabric"
        out = run.run_fabric(SEED, 1, trace_dir, n_hosts=N_HOSTS)
        self.assertEqual(out["problems"], [])
        fabric = run.layer_report(trace_dir, out["reopened_samples"])
        layer_names = {m["name"] for m in common.spec()["per_layer"]}
        self.assertEqual(set(fabric), layer_names - {"trace.overhead_pct"})
        self.assertEqual(fabric["probe.runner.queries_per_host"], 7)
        self.assertAlmostEqual(fabric["directory.service.cache_hit_ratio"], 3 / 7)
        self.assertEqual(fabric["directory.service.latest_queries"], 2 * N_HOSTS * 7)
        self.assertGreater(fabric["agent.daemon.tick_us"], 0)
        self.assertGreater(fabric["surface.textview.render_us"], 0)

        trace_dir = common.WORK / "traces-query"
        out = tcpwork.run("tcp-query", SEED, 1.0, trace_dir, n_hosts=N_HOSTS)
        self.assertEqual(out["problems"], [])
        query = run.layer_report(trace_dir, out["reopened_samples"])
        for name in ("archive.store.range_us", "directory.service.query_history_us",
                     "directory.service.upstream_us", "archive.filestore.reopen_us_per_sample",
                     "wire.codec.decode_us", "wire.session.handle_line_us"):
            self.assertGreater(query[name], 0, name)


class TcpChecks(_Workdir):
    def test_tiny_runs_pass(self):
        for workload in ("tcp-ingest", "tcp-query"):
            out = tcpwork.run(workload, SEED, 1.0, None, n_hosts=N_HOSTS)
            self.assertEqual(out["problems"], [], workload)
            self.assertEqual(out["failed"], 0, workload)
            self.assertGreater(out["attempted"], 0, workload)

    def _written(self):
        keys = common.keys(2)
        history = common.history_times()
        sent = {k: [common.EPOCH_MS + common.PERIOD_MS] for k in keys}
        written = {k: [(t, common.expected_value(*k, t, SEED)) for t in history + sent[k]]
                   for k in keys}
        return keys, history, sent, written

    def test_disk_must_hold_each_sent_sample_once(self):
        keys, history, sent, written = self._written()
        disk = copy.deepcopy(written)
        self.assertEqual(checks.check_series(disk, keys, history, sent), [])
        self.assertEqual(checks.check_values(disk, SEED), [])
        disk[keys[0]].append(disk[keys[0]][-1])  # a duplicate
        self.assertTrue(checks.check_series(disk, keys, history, sent))
        disk = copy.deepcopy(written)
        del disk[keys[1]][-1]  # a missing sample
        self.assertTrue(checks.check_series(disk, keys, history, sent))
        disk = copy.deepcopy(written)
        disk[keys[2]][0] = (disk[keys[2]][0][0], 0.123)  # a wrong value
        self.assertTrue(checks.check_values(disk, SEED))

    def test_range_answer_must_equal_the_record(self):
        keys, history, _, written = self._written()
        host, metric = keys[0]
        t0, t1 = history[2], history[6]
        good = [(t, v) for t, v in written[keys[0]] if t0 <= t < t1]
        self.assertEqual(checks.check_ranges([(host, metric, t0, t1, good)], written), [])
        for bad in (good[1:], good[::-1], good + good[:1],
                    [(t, v + 1) for t, v in good]):
            self.assertTrue(checks.check_ranges([(host, metric, t0, t1, bad)], written))

    def test_latest_answer_checks(self):
        keys, history, sent, written = self._written()
        key = keys[0]
        host, metric = key
        lines = [(k, sent[k][0]) for k in keys]  # one round over the keys
        new_t, new_v = written[key][-1]  # the producer's sample
        last_t, last_v = written[key][len(history) - 1]  # the newest history sample
        old_t, old_v = written[key][0]
        sends = [(1.0, len(lines))]  # every line went out in one send begun at 1.0 s
        acks = [(2.0, len(lines))]  # and the importer had handled them by 2.0 s

        def check(*answers, metric=metric):
            return checks.check_latest_acked([(host, metric) + a for a in answers], written,
                                             history[-1], 2.0, lines, sends, acks)

        up_new = (new_t, new_v, False, "upstream", 3.0, 3.1)
        up_last = (last_t, last_v, False, "upstream", 1.5, 1.6)  # asked before the ack
        self.assertEqual(check(up_new, (new_t, new_v, False, "cache", 4.0, 4.1)), [])
        self.assertEqual(check(up_last), [])
        self.assertTrue(check((new_t, new_v + 1, False, "upstream", 3.0, 3.1)))  # never written
        self.assertTrue(check((new_t, new_v, False, "upstream", 0.2, 0.5)))  # before it was sent
        # stale answers not flagged: older than what was acknowledged, or cached too long
        self.assertTrue(check((last_t, last_v, False, "upstream", 3.0, 3.1)))
        self.assertTrue(check(up_new, (new_t, new_v, False, "cache", 5.2, 5.3)))
        self.assertTrue(check(up_last, up_new, (last_t, last_v, False, "cache", 3.5, 3.6)))
        self.assertTrue(check((new_t, new_v, False, "cache", 4.0, 4.1)))  # never fetched
        # the same answers flagged stale are allowed
        self.assertEqual(check((last_t, last_v, True, "upstream", 3.0, 3.1)), [])
        self.assertEqual(check(up_new, (new_t, new_v, True, "cache", 5.2, 5.3)), [])
        self.assertTrue(check((old_t, old_v, True, "upstream", 0.5, 0.6)))  # older than history
        self.assertTrue(check((None, None, False, "none", 3.0, 3.1)))  # absent, metric written
        self.assertEqual(check((None, None, False, "none", 3.0, 3.1), metric="sys.idle_s"), [])


if __name__ == "__main__":
    unittest.main()
