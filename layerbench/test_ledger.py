"""Tests for the layer benchmark's own arithmetic.

    python3 -m unittest discover -s layerbench -p 'test_*.py'
"""

import json
import os
import unittest

import ledger

HERE = os.path.dirname(os.path.abspath(__file__))


def raw_record(trace=False, kinds=("q",) * 12, passes=3, ok=None, counts=None):
    """A synthetic raw record shaped like the binary's output."""
    n = len(kinds)
    op_ms = [[float(i + 1 + p) for i in range(n)] for p in range(passes)]
    raw = {
        "workload": "land_join", "seed": 1, "trace": trace, "passes": passes,
        "kinds": list(kinds),
        "setup_s": [0.5, 0.7, 0.6], "traced_setup_s": [],
        "setup_spans": [], "op_ms": op_ms, "replay_ms": [],
        "write_ms": [[0.001, 0.002]] * passes,
        "write_kinds": ["insert", "insert"], "layers": [], "counts": [],
        "attempted": n * passes, "ok": n * passes if ok is None else ok,
        "problems": [], "rss_mb": 12.5,
    }
    if trace:
        raw["traced_setup_s"] = [0.6, 0.8, 0.7]
        raw["replay_ms"] = [[x + 0.5 for x in p] for p in op_ms]
        raw["setup_spans"] = [{"data.load_ms": 2.0, "index.build_ms": 1.0}] * 3
        acc = {"index.join_ms": 1.0, "core.hw.test_ms": 30.0, "hw.pairs": 100.0,
               "algo.exact_ms": 20.0, "exact.pairs": 100.0, "op.pipeline_ms": 40.0}
        raw["layers"] = [dict(acc) for _ in range(passes)]
        base = {"candidates": 100, "hw_tests": 100, "hw_rejects": 25,
                "fill_spans": 7, "scan_spans": 3, "results": 60}
        raw["counts"] = counts or [dict(base) for _ in range(passes)]
    return raw


class TailRuleTest(unittest.TestCase):
    def test_ten_samples_beyond(self):
        value, pct, n = ledger.tail(list(range(1, 101)))
        self.assertEqual((value, pct, n), (90, 90.0, 100))

    def test_percentile_follows_sample_count(self):
        value, pct, n = ledger.tail(list(range(1000)))
        self.assertEqual((value, pct, n), (989, 99.0, 1000))
        value, pct, n = ledger.tail(list(range(600)))
        self.assertEqual(value, 589)
        self.assertAlmostEqual(pct, 100 * 590 / 600)

    def test_order_and_ties_count_by_position(self):
        values = [5.0] * 20 + [1.0] * 5
        value, pct, n = ledger.tail(list(reversed(values)))
        self.assertEqual((value, n), (5.0, 25))
        self.assertAlmostEqual(pct, 60.0)

    def test_needs_more_than_ten_samples(self):
        with self.assertRaises(ValueError):
            ledger.tail(list(range(10)))
        self.assertEqual(ledger.tail(list(range(11)))[0], 0)


class SelfTimeTest(unittest.TestCase):
    def test_op_minus_sum_of_child_spans(self):
        self.assertEqual(ledger.self_time(10.0, [3.0, 4.0]), 3.0)
        self.assertEqual(ledger.self_time(10.0, []), 10.0)

    def test_can_be_negative_when_spans_ran_slower(self):
        self.assertLess(ledger.self_time(5.0, [3.0, 4.0]), 0)

    def test_ledger_self_time_per_join(self):
        raw = raw_record(trace=True)
        result, _ = ledger.summarize(raw)
        # (40 - 1 - 30) ms over 12 joins per pass.
        self.assertAlmostEqual(
            result["metrics"]["core.join.self_ms"]["value"], 9.0 / 12)


class OkFracTest(unittest.TestCase):
    def test_all_ok(self):
        self.assertEqual(ledger.ok_frac(30, 30), 1.0)

    def test_failed_and_mismatched_ops_both_count(self):
        # One op returned an error and one mismatched its reference: the
        # binary counts neither as ok.
        self.assertEqual(ledger.ok_frac(10, 8), 0.8)
        result, lines = ledger.summarize(raw_record(ok=34))
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 2)
        self.assertEqual(result["attempted"], 36)
        self.assertAlmostEqual(result["metrics"]["ok_frac"]["value"], 34 / 36)

    def test_rejects_impossible_counts(self):
        with self.assertRaises(ValueError):
            ledger.ok_frac(0, 0)
        with self.assertRaises(ValueError):
            ledger.ok_frac(5, 6)

    def test_counts_that_differ_between_passes_fail_the_run(self):
        raw = raw_record(trace=True)
        raw["counts"][1] = dict(raw["counts"][1], hw_rejects=26)
        result, _ = ledger.summarize(raw)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 0)


class AggregationTest(unittest.TestCase):
    def test_per_op_medians(self):
        self.assertEqual(ledger.per_op_medians([[1, 9], [3, 1], [2, 5]]), [2, 5])
        with self.assertRaises(ValueError):
            ledger.per_op_medians([[1, 2], [1]])

    def test_ops_per_second_times_each_op_at_its_median(self):
        # Op medians 10 ms and 30 ms: 2 ops in 40 ms. The 900 ms stall hits
        # one pass only and drops out.
        passes = [[10, 30], [900, 30], [10, 30]]
        self.assertEqual(ledger.ops_per_second(passes), 50.0)

    def test_write_median_weighs_each_write_kind_equally(self):
        # Inserts cost 20, deletes 6: the result must not depend on how many
        # of each a seed drew, as a pooled median would.
        for inserts, deletes in ((6, 5), (5, 6), (9, 2)):
            kinds = ["insert"] * inserts + ["delete"] * deletes
            passes = [[20.0] * inserts + [6.0] * deletes] * 3
            self.assertEqual(ledger.write_median(passes, kinds), 13.0)
        with self.assertRaises(ValueError):
            ledger.write_median([[1.0, 2.0]], ["insert"])

    def test_writes_are_kept_out_of_the_query_percentiles(self):
        kinds = ["q"] * 11 + ["write"] * 11
        raw = raw_record(kinds=kinds)
        raw["op_ms"] = [[1.0] * 11 + [100.0] * 11] * 3
        result, _ = ledger.summarize(raw)
        self.assertEqual(result["metrics"]["p50_ms"]["value"], 1.0)
        self.assertEqual(result["metrics"]["tail_ms"]["value"], 1.0)


class ContractTest(unittest.TestCase):
    """The printed metrics are exactly the ones BENCHMARK.json declares."""

    def setUp(self):
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            self.spec = json.load(f)

    def check(self, result, declared):
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for m in declared:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])

    def test_untraced_run_prints_every_end_to_end_metric(self):
        result, _ = ledger.summarize(raw_record())
        self.check(result, self.spec["end_to_end"])
        self.assertTrue(result["correct"])

    def test_traced_run_prints_every_per_layer_metric(self):
        result, _ = ledger.summarize(raw_record(trace=True))
        self.check(result, self.spec["per_layer"])
        self.assertEqual(
            result["metrics"]["trace.overhead.p50_ms"]["value"], 0.5)


if __name__ == "__main__":
    unittest.main()
