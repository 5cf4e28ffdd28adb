"""Tests of the benchmark's summary code.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import math
import unittest
from pathlib import Path

import summary

SPEC = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def raw_result(item_s, failed=0, errors=()):
    return {
        "setup_s": [2.0, 1.0, 3.0],
        "item_s": list(item_s),
        "work_units": 4.0 * len(item_s),
        "measure_s": 2.0,
        "windows": [[4.0, 1.0], [4.0, 2.0], [4.0, 4.0]],
        "attempted": len(item_s) + failed,
        "failed": failed,
        "peak_rss_mb": 100.0,
        "errors": list(errors),
        "info": {},
        "layers": {},
        "self_times": [],
    }


class TailRule(unittest.TestCase):
    def test_highest_percentile_with_ten_items_beyond(self):
        self.assertEqual(summary.tail_percentile(100), 90.0)
        self.assertEqual(summary.tail_percentile(999), 90.0)
        self.assertEqual(summary.tail_percentile(1000), 99.0)
        self.assertEqual(summary.tail_percentile(9999), 99.0)
        self.assertEqual(summary.tail_percentile(10000), 99.9)

    def test_too_few_items_fall_back_then_give_up(self):
        self.assertEqual(summary.tail_percentile(99), 50.0)
        self.assertEqual(summary.tail_percentile(20), 50.0)
        self.assertIsNone(summary.tail_percentile(19))

    def test_chosen_percentile_leaves_ten_beyond(self):
        for n in (20, 57, 100, 150, 480, 1000, 1234, 10000, 25000):
            p = summary.tail_percentile(n)
            values = sorted(float(i) for i in range(n))
            cut = summary.percentile(values, p)
            self.assertGreaterEqual(sum(v > cut for v in values), 10, n)
            # The next rung up, if any, would leave fewer than ten.
            higher = [q for q in summary.TAIL_LADDER if q > p]
            if higher:
                self.assertLess(summary.beyond(n, min(higher)), 10, n)

    def test_nearest_rank(self):
        values = [float(v) for v in range(1, 101)]
        self.assertEqual(summary.percentile(values, 50), 50.0)
        self.assertEqual(summary.percentile(values, 90), 90.0)
        self.assertEqual(summary.percentile(values, 99.9), 100.0)
        self.assertEqual(summary.percentile([7.0], 50), 7.0)


class Failures(unittest.TestCase):
    def test_failures_count_against_error_ratio(self):
        raw = raw_result([0.01] * 90, failed=10)
        self.assertEqual(raw["attempted"], 100)
        self.assertAlmostEqual(summary.error_ratio(100, 10), 0.1)
        line = summary.result_line(raw, summary.end_to_end(raw),
                                   {m["name"]: m["unit"]
                                    for m in SPEC["end_to_end"]})
        self.assertEqual((line["attempted"], line["failed"]), (100, 10))

    def test_failed_items_miss_every_percentile(self):
        ok = [0.001 * i for i in range(1, 91)]  # 1..90 ms
        clean = summary.latency_summary(ok + [0.5] * 10, 0)
        self.assertEqual(clean["tail_p"], 90.0)
        self.assertAlmostEqual(clean["tail_ms"], 90.0)
        # Eleven failures push the p90 rank onto a failed item.
        lat = summary.latency_summary(ok[:89], 11)
        self.assertEqual(lat["n"], 100)
        self.assertTrue(math.isinf(lat["tail_ms"]))
        self.assertTrue(math.isfinite(lat["p50_ms"]))
        # A failure can never rank below a completed item.
        lat = summary.latency_summary([10.0] * 49, 51)
        self.assertTrue(math.isinf(lat["p50_ms"]))

    def test_a_missed_percentile_is_reported_as_null(self):
        raw = raw_result([], failed=30)
        units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        line = summary.result_line(raw, summary.end_to_end(raw), units)
        self.assertIsNone(line["metrics"]["item_ms_p50"]["value"])
        self.assertIsNone(line["metrics"]["item_ms_tail"]["value"])
        json.dumps(line, allow_nan=False)

    def test_failed_output_check_makes_run_incorrect(self):
        units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        good = raw_result([0.01] * 30)
        bad = raw_result([0.01] * 30, errors=["responses differ"])
        self.assertTrue(summary.result_line(
            good, summary.end_to_end(good), units)["correct"])
        self.assertFalse(summary.result_line(
            bad, summary.end_to_end(bad), units)["correct"])


    def test_failed_operation_makes_run_incorrect(self):
        # A serve reject or transport error adds to `failed` only; even one,
        # far too few to move a percentile, must fail the run.
        units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        raw = raw_result([0.01] * 999, failed=1)
        line = summary.result_line(raw, summary.end_to_end(raw), units)
        self.assertFalse(line["correct"])
        self.assertEqual(line["failed"], 1)
        self.assertIsNotNone(line["metrics"]["item_ms_tail"]["value"])


class MetricNames(unittest.TestCase):
    def test_declared_names_are_well_formed_and_unique(self):
        names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        for name in names:
            self.assertRegex(name, summary.METRIC_NAME)
        self.assertEqual(len(names), len(set(names)))

    def test_end_to_end_emits_exactly_the_declared_metrics(self):
        emitted = summary.end_to_end(raw_result([0.01] * 50))
        self.assertEqual(set(emitted),
                         {m["name"] for m in SPEC["end_to_end"]})
        for name in emitted:
            self.assertRegex(name, summary.METRIC_NAME)

    def test_bad_name_is_refused(self):
        with self.assertRaises(ValueError):
            summary.result_line(raw_result([0.01]), {"p50 ms": 1.0},
                                {"p50 ms": "ms"})

    def test_setup_and_throughput_are_medians(self):
        e2e = summary.end_to_end(raw_result([0.01]))
        self.assertEqual(e2e["setup_s"], 2.0)
        self.assertEqual(e2e["items_per_s"], 2.0)  # rates 4, 2 and 1


if __name__ == "__main__":
    unittest.main()
