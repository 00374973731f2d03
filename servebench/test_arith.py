"""Tests of the benchmark's own arithmetic.

    python3 -m unittest discover -s servebench -p 'test_*.py'
"""

import json
import math
import os
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import arith  # noqa: E402


def span(sid, parent, start, end, name="x", amount=0):
    return {"sid": sid, "parent": parent, "start": start, "end": end, "name": name, "amount": amount}


class TailRule(unittest.TestCase):
    def test_percentile_nearest_rank(self):
        s = list(range(1, 101))
        self.assertEqual(arith.percentile(s, 50), 50)
        self.assertEqual(arith.percentile(s, 99), 99)
        self.assertEqual(arith.percentile(s, 100), 100)
        self.assertEqual(arith.percentile([7], 50), 7)
        with self.assertRaises(ValueError):
            arith.percentile([], 50)

    def test_tail_keeps_ten_samples_beyond(self):
        # n = 1000: p99 has exactly 10 samples beyond it
        p, v = arith.tail(range(1000))
        self.assertEqual(p, 99.0)
        self.assertEqual(v, 989)
        self.assertEqual(arith.beyond(1000, 99.0), 10)

    def test_tail_steps_down_when_short(self):
        # n = 999: p99 has 9 beyond, so the tail is p95 (49 beyond)
        self.assertEqual(arith.tail(range(999))[0], 95.0)
        # n = 100: p90 has exactly 10 beyond
        self.assertEqual(arith.tail(range(100)), (90.0, 89))
        # n = 99: p90 has 9 beyond, p75 qualifies
        self.assertEqual(arith.tail(range(99))[0], 75.0)

    def test_every_reported_tail_has_ten_beyond(self):
        for n in range(20, 3000, 37):
            p, v = arith.tail(range(n))
            self.assertGreaterEqual(sum(1 for x in range(n) if x > v), arith.TAIL_BEYOND, n)

    def test_tail_too_short_reports_median(self):
        self.assertEqual(arith.tail([5, 1, 3]), (50.0, 3))

    def test_tail_is_order_independent(self):
        xs = [3.0, 9.5, 1.25, 7.0] * 30
        self.assertEqual(arith.tail(xs), arith.tail(sorted(xs, reverse=True)))


class WindowedTail(unittest.TestCase):
    def test_one_stalled_window_does_not_move_the_median(self):
        # three 10 s windows of 1000 requests each; the last one stalls
        samples = [(w * 10 + i / 100.0, 1.0 + i / 1000.0) for w in range(3) for i in range(1000)]
        calm_p, calm = arith.windowed_tail(samples, 0, 30)
        stalled = [(t, v * 50 if t >= 20 else v) for t, v in samples]
        p, value = arith.windowed_tail(stalled, 0, 30)
        self.assertEqual(value, calm)
        self.assertEqual((p, calm_p), (99.0, 99.0))

    def test_percentile_chosen_over_the_whole_window(self):
        # 180 samples: p90 keeps 18 beyond, p95 only 9
        samples = [(w * 10 + i / 10.0, float(i)) for w in range(3) for i in range(60)]
        p, value = arith.windowed_tail(samples, 0, 30)
        self.assertEqual(p, 90.0)
        self.assertEqual(value, 53.0)

    def test_samples_outside_the_window_are_ignored(self):
        samples = [(w * 10 + i / 100.0, 1.0) for w in range(3) for i in range(1000)]
        _, value = arith.windowed_tail(samples + [(30.5, 1e9), (-1, 1e9)], 0, 30)
        self.assertEqual(value, 1.0)

    def test_empty_window(self):
        with self.assertRaises(ValueError):
            arith.windowed_tail([(1.0, 1.0)] * 100, 0, 30)


class Throughput(unittest.TestCase):
    def test_steady_rate(self):
        ts = [i * 0.01 for i in range(1000)]  # 100/s over [0, 10)
        self.assertAlmostEqual(arith.throughput(ts, 0.0, 10.0), 100.0, places=6)

    def test_one_stalled_bucket_does_not_move_the_median(self):
        ts = [i * 0.01 for i in range(1000) if not 2.0 <= i * 0.01 < 3.5]
        self.assertAlmostEqual(arith.throughput(ts, 0.0, 10.0), 100.0, places=6)

    def test_too_few(self):
        with self.assertRaises(ValueError):
            arith.throughput([1.0], 0.0, 10.0)


class SelfTime(unittest.TestCase):
    def test_leaf_self_is_duration(self):
        self.assertEqual(arith.self_times([span(1, 0, 0, 10)]), {1: 10})

    def test_nested_children(self):
        spans = [span(1, 0, 0, 100), span(2, 1, 10, 30), span(3, 1, 40, 50), span(4, 2, 12, 20)]
        st = arith.self_times(spans)
        self.assertEqual(st[1], 70)  # 100 - 20 - 10
        self.assertEqual(st[2], 12)  # 20 - 8
        self.assertEqual(st[3], 10)
        self.assertEqual(st[4], 8)
        # self times partition the root's duration
        self.assertEqual(sum(st.values()), 100)

    def test_overlapping_children_counted_once(self):
        # two children running at once (in-flight work): the parent's
        # self time is its duration minus the union of their intervals
        spans = [span(1, 0, 0, 100), span(2, 1, 10, 60), span(3, 1, 40, 80)]
        st = arith.self_times(spans)
        self.assertEqual(st[1], 30)
        self.assertEqual(st[2], 50)
        self.assertEqual(st[3], 40)

    def test_children_clipped_to_parent(self):
        spans = [span(1, 0, 10, 20), span(2, 1, 5, 15), span(3, 1, 18, 30)]
        self.assertEqual(arith.self_times(spans)[1], 3)  # 10 - 5 - 2

    def test_union_length(self):
        self.assertEqual(arith.union_length([]), 0)
        self.assertEqual(arith.union_length([(0, 1), (2, 3)]), 2)
        self.assertEqual(arith.union_length([(0, 5), (1, 2), (4, 9)]), 9)
        self.assertEqual(arith.union_length([(3, 4), (0, 1), (1, 3)]), 4)

    def test_aggregate(self):
        spans = [span(1, 0, 0, 10, "a", 5), span(2, 1, 2, 4, "b", 7), span(3, 0, 20, 26, "a", 1)]
        agg = arith.aggregate(spans)
        self.assertEqual(agg["a"], {"count": 2, "self": 14, "total": 16, "amount": 6})
        self.assertEqual(agg["b"], {"count": 1, "self": 2, "total": 2, "amount": 7})


class Names(unittest.TestCase):
    def test_metric_names(self):
        for good in ("setup_s", "p50_ms", "core.sax_deep_ms", "xml.sax_parse_mb_s", "9x", "a-b.c_d"):
            self.assertTrue(arith.valid_name(good), good)
        for bad in ("", "_x", ".x", "a b", "a/b", "é", "x" * 65, "a:b"):
            self.assertFalse(arith.valid_name(bad), bad)
        self.assertTrue(arith.valid_name("x" * 64))

    def test_units(self):
        for good in ("ms", "s", "1/s", "req/s", "count", "%", "MB/s", "ratio"):
            self.assertTrue(arith.valid_unit(good), good)
        for bad in ("", "m s", "x" * 17, "µs"):
            self.assertFalse(arith.valid_unit(bad), bad)

    def test_declared_metrics_are_valid(self):
        here = os.path.dirname(os.path.abspath(__file__))
        with open(os.path.join(here, "..", "BENCHMARK.json")) as f:
            bench = json.load(f)
        names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
        names += [w["name"] for w in bench["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for m in bench["end_to_end"] + bench["per_layer"]:
            self.assertTrue(arith.valid_name(m["name"]), m["name"])
            self.assertTrue(arith.valid_unit(m["unit"]), m["unit"])


class ResultLine(unittest.TestCase):
    def test_round_trip_keeps_every_digit(self):
        metrics = {"latency_ms": (1.2034567890123457, "ms"), "setup_s": (0.1 + 0.2, "s"),
                   "throughput_rps": (238.00000000000003, "req/s")}
        line = arith.result_line(True, 1000, 0, metrics)
        back = json.loads(line)
        self.assertEqual(set(back), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(back["attempted"], 1000)
        for k, (v, u) in metrics.items():
            self.assertEqual(back["metrics"][k], {"value": v, "unit": u})
        self.assertNotIn("\n", line)

    def test_rejects_non_finite_and_bad_names(self):
        with self.assertRaises(ValueError):
            arith.result_line(True, 1, 0, {"x": (math.nan, "ms")})
        with self.assertRaises(ValueError):
            arith.result_line(True, 1, 0, {"x": (math.inf, "ms")})
        with self.assertRaises(ValueError):
            arith.result_line(True, 1, 0, {"bad name": (1.0, "ms")})


if __name__ == "__main__":
    unittest.main()
