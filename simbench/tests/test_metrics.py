"""Self-tests of simbench/metrics.py.  Run with

    python3 -m unittest discover -s simbench/tests

or `python3 simbench/run.py --self-test`, which also runs the C++ ones.
"""

import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
import metrics  # noqa: E402


def rep(label="untraced", **kw):
    r = {
        "label": label, "seed": 1, "threads": 1, "setup_s": 0.01,
        "setup.testbed_s": 0.004, "setup.apps_s": 0.001,
        "setup.workloads_s": 0.005, "wall_s": 2.0, "events": 1000,
        "sent": 100, "completed": 90, "failed": 10, "window_s": 0.5,
        "completed_in_window": 50, "host_busy_ns_in_window": 5e6,
        "digest": "d1", "counters": {"ipipe.watchdog_kills": 3.0},
        "checks": {"linearizable": True}, "slices": [],
        "latency_samples": 50, "p50_ns": 8000,
        "p99_ns": 20000, "iqm_ns": 8500.0, "beyond_p99": 0,
    }
    r.update(kw)
    return r


def span(i, name, parent, start, end, **args):
    return {"id": i, "name": name, "parent": parent, "start_s": start,
            "end_s": end, "args": args}


class FailRatio(unittest.TestCase):
    def test_identity(self):
        r = rep(sent=1000, completed=801, failed=199)
        self.assertEqual(r["sent"], r["completed"] + r["failed"])
        self.assertAlmostEqual(metrics.fail_ratio(r) + metrics.served_ratio(r), 1.0)
        self.assertAlmostEqual(metrics.fail_ratio(r), 0.199)

    def test_nothing_sent(self):
        r = rep(sent=0, completed=0, failed=0)
        self.assertEqual(metrics.fail_ratio(r), 0.0)
        self.assertEqual(metrics.served_ratio(r), 0.0)


class EndToEnd(unittest.TestCase):
    def doc(self, reps, rss_kb=2048):
        return {"traced": False, "peak_rss_kb": rss_kb, "reps": reps,
                "spans": []}

    def test_medians_over_repetitions(self):
        docs = [self.doc([rep(wall_s=w, completed=100, p99_ns=p, iqm_ns=p / 2,
                              setup_s=s)], rss_kb=k)
                for w, p, s, k in ((1.0, 30000, 0.3, 2048),
                                   (3.0, 10000, 0.1, 99999),
                                   (2.0, 20000, 0.2, 1024))]
        values, samples = metrics.end_to_end(docs)
        self.assertAlmostEqual(values["wall_us_per_op"], 2.0e4)
        self.assertAlmostEqual(values["sim_p99_us"], 20.0)
        self.assertAlmostEqual(values["sim_iqm_us"], 10.0)
        self.assertAlmostEqual(values["setup_s"], 0.2)
        self.assertAlmostEqual(values["peak_rss_mb"], 2.0)
        self.assertAlmostEqual(samples["max_peak_rss_mb"], 99999 / 1024)
        self.assertAlmostEqual(samples["max_p99_us"], 30.0)
        self.assertAlmostEqual(values["sim_ops_per_s"], 100.0)
        self.assertAlmostEqual(values["sim_host_core_us_per_op"], 100.0)
        self.assertEqual(samples["latency_samples"], 150)
        self.assertEqual(samples["reps"], 3)
        self.assertEqual(set(values), set(metrics.END_TO_END))

    def test_setup_median_counts_setup_only_passes(self):
        reps = [rep(setup_s=0.9), rep("setup", setup_s=0.2),
                rep("setup", setup_s=0.3), rep("traced", setup_s=0.1)]
        values, samples = metrics.end_to_end([self.doc(reps)])
        self.assertAlmostEqual(values["setup_s"], 0.3)
        self.assertEqual(samples["reps"], 1)

    def test_traced_repetitions_are_ignored(self):
        reps = [rep(wall_s=1.0), rep("traced", wall_s=100.0)]
        values, _ = metrics.end_to_end([self.doc(reps)])
        self.assertAlmostEqual(values["wall_us_per_op"], 1e6 / 90)


class PerLayer(unittest.TestCase):
    def doc(self, reps):
        return {"traced": True, "peak_rss_kb": 1,
                "reps": reps, "spans": []}

    def test_speedup_overhead_and_slices(self):
        slices = [[0.001, 1000, 5], [0.004, 1000, 5], [0.0, 0, 0]]
        doc = self.doc([rep(wall_s=2.0), rep("traced", wall_s=2.2, slices=slices),
                        rep("traced_1thread", wall_s=1.1)])
        v = metrics.per_layer(doc)
        self.assertAlmostEqual(v["bench.trace_overhead"], 0.1)
        self.assertAlmostEqual(v["sim.parallel_speedup"], 0.5)
        self.assertAlmostEqual(v["run.slice_ns_per_event.p50"], 2500.0)
        self.assertAlmostEqual(v["run.slice_ns_per_event.max"], 4000.0)
        self.assertAlmostEqual(v["sim.host_ns_per_event"], 2.2e6)
        self.assertEqual(v["ipipe.watchdog_kills"], 3.0)
        self.assertAlmostEqual(v["client.fail_ratio"], 0.1)

    def test_every_metric_present_and_absent_layers_read_zero(self):
        v = metrics.per_layer(self.doc([rep(), rep("traced")]))
        self.assertEqual(list(v), list(metrics.PER_LAYER))
        self.assertEqual(v["sim.parallel_speedup"], 0.0)
        self.assertEqual(v["rkv.cache_hit_ratio"], 0.0)

    def test_replay_digest_check(self):
        same = self.doc([rep(), rep("traced")])
        self.assertIn(("replay_digest_identical", True), metrics.checks([same]))
        differ = self.doc([rep(), rep("traced", digest="d2")])
        self.assertIn(("replay_digest_identical", False),
                      metrics.checks([differ]))


class LibraryChecker(unittest.TestCase):
    def test_disagreements_counted_over_repetitions_that_record_them(self):
        flag = "verify.library_checker_disagrees"
        docs = [{"reps": [rep(counters={flag: 1.0}), rep(counters={flag: 0.0})]},
                {"reps": [rep(counters={flag: 1.0}), rep(counters={})]}]
        self.assertEqual(metrics.library_checker_disagreements(docs), (2, 3))
        self.assertEqual(metrics.library_checker_disagreements(
            [{"reps": [rep(counters={})]}]), (0, 0))


class SelfTime(unittest.TestCase):
    def test_duration_minus_children(self):
        spans = [span(0, "run", -1, 0.0, 10.0),
                 span(1, "slice", 0, 1.0, 3.0),
                 span(2, "slice", 0, 3.0, 6.0),
                 span(3, "inner", 2, 4.0, 5.0)]
        st = metrics.self_times(spans)
        self.assertAlmostEqual(st[0], 5.0)
        self.assertAlmostEqual(st[1], 2.0)
        self.assertAlmostEqual(st[2], 2.0)
        self.assertAlmostEqual(st[3], 1.0)

    def test_overlapping_and_overhanging_children_count_once(self):
        spans = [span(0, "p", -1, 0.0, 4.0),
                 span(1, "a", 0, 1.0, 3.0),
                 span(2, "b", 0, 2.0, 5.0)]
        self.assertAlmostEqual(metrics.self_times(spans)[0], 1.0)


class JsonRoundTrip(unittest.TestCase):
    def test_result_line(self):
        line = metrics.result_line(True, 7, 0, {"latency_ms": 1.2034567891234},
                                   {"latency_ms": "ms"})
        back = json.loads(line)
        self.assertEqual(set(back), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(back["metrics"]["latency_ms"],
                         {"value": 1.2034567891234, "unit": "ms"})
        self.assertEqual(json.dumps(back), line)

    def test_chrome_trace(self):
        spans = [span(0, "run \"quoted\"", -1, 0.5, 1.5, events=10.0),
                 span(1, "slice", 0, 0.5, 1.0)]
        doc = metrics.chrome_trace(spans, {"seed": 1})
        back = json.loads(json.dumps(doc))
        self.assertEqual(back, doc)
        run = back["traceEvents"][0]
        self.assertEqual(run["name"], "run \"quoted\"")
        self.assertEqual(run["ph"], "X")
        self.assertAlmostEqual(run["ts"], 5e5)
        self.assertAlmostEqual(run["dur"], 1e6)
        self.assertAlmostEqual(run["args"]["self_us"], 5e5)
        self.assertEqual(run["args"]["events"], 10.0)


if __name__ == "__main__":
    unittest.main()
