"""Tests for the benchmark's own logic (perfbench/analysis.py).

Run from the repository root:
    python3 -m unittest discover -s perfbench/tests
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import analysis  # noqa: E402


def span(name, start, end, parent=-1, query=-1):
    return {"name": name, "start": start, "end": end, "parent": parent,
            "query": query}


def query(qid, observed, issuer=0, unique=None, completed=True,
          unreachable=(), warmup=False, traced=False, host_ms=1.0):
    total = sum(n for _, n in observed)
    return {"id": qid, "issuer": issuer, "warmup": warmup, "traced": traced,
            "completed": completed, "events": 10, "wire_bytes": 100,
            "unique": total if unique is None else unique,
            "host_ms": host_ms, "virtual_ms": 2.0,
            "observed": [list(o) for o in observed],
            "unreachable": list(unreachable)}


def record(queries, mutations=(), placement=None):
    return {"workload": "t", "seed": 1, "trace": False, "error": "",
            "setup_s": [1.0, 2.0, 3.0], "setup_digests": ["d", "d", "d"],
            "placement": placement or {"0": 2, "1": 2, "2": 2},
            "measure_s": 10.0, "queries": list(queries),
            "mutations": [list(m) for m in mutations], "counters": {},
            "samples": {}, "peak_rss_mb": 50.0}


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(10, 0, -1))  # Unsorted input.
        self.assertEqual(analysis.percentile(values, 0.5), 5)
        self.assertEqual(analysis.percentile(values, 0.9), 9)
        self.assertEqual(analysis.percentile(values, 1.0), 10)
        self.assertIsNone(analysis.percentile([], 0.5))

    def test_tail_needs_ten_samples_beyond(self):
        self.assertEqual(analysis.samples_beyond(100, 0.9), 10)
        self.assertEqual(analysis.samples_beyond(99, 0.9), 9)
        self.assertEqual(analysis.tail_percentile(list(range(1, 101)), 0.9),
                         90)
        self.assertIsNone(analysis.tail_percentile(list(range(1, 100)), 0.9))
        # The median of 20 samples has exactly ten beyond it.
        self.assertEqual(analysis.tail_percentile(list(range(20)), 0.5), 9)
        self.assertIsNone(analysis.tail_percentile(list(range(19)), 0.5))

    def test_missing_p90_is_a_check_failure(self):
        r = record([query(i, [(1, 2), (2, 2)]) for i in range(99)])
        _, _, _, problems = analysis.end_to_end(r)
        self.assertTrue(any("no p90" in p for p in problems))
        r = record([query(i, [(1, 2), (2, 2)]) for i in range(100)])
        metrics, attempted, failed, problems = analysis.end_to_end(r)
        self.assertEqual(problems, [])
        self.assertEqual((attempted, failed), (100, 0))
        self.assertEqual(metrics["recall"][0], 1.0)
        self.assertEqual(metrics["setup_s"][0], 2.0)


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted(self):
        spans = [span("query", 0, 100),
                 span("core.issue", 10, 20, parent=0),
                 span("sim.run", 30, 90, parent=0),
                 span("storm.scan", 40, 50, parent=2)]
        self.assertEqual(analysis.self_times(spans), [30, 10, 50, 10])

    def test_overlapping_children_count_once(self):
        spans = [span("probe", 0, 100),
                 span("a.x", 10, 60, parent=0),
                 span("b.y", 40, 80, parent=0)]
        self.assertEqual(analysis.self_times(spans)[0], 30)

    def test_layer_names(self):
        self.assertEqual(analysis.layer_of("sim.run"), "sim")
        self.assertEqual(analysis.layer_of("query"), "bench")

    def test_layer_self_times_sum_to_query_wall(self):
        queries = [query(i, [(1, 2), (2, 2)], traced=i % 2 == 0)
                   for i in range(4)]
        spans = []
        for q in queries:
            if not q["traced"]:
                continue
            root = len(spans)
            base = q["id"] * 1000
            spans.append(span("query", base, base + 100, query=q["id"]))
            spans.append(span("core.issue", base + 5, base + 15, root,
                              q["id"]))
            spans.append(span("sim.run", base + 15, base + 95, root,
                              q["id"]))
        metrics = analysis.per_layer(record(queries), spans)
        self.assertAlmostEqual(metrics["bench.span_coverage_frac"][0], 0.9)
        self.assertAlmostEqual(metrics["sim.run_s"][0], 160e-9)
        self.assertAlmostEqual(metrics["core.issue_us_p50"][0], 0.01)


class GroundTruthTest(unittest.TestCase):
    def test_exact_answers_pass(self):
        r = record([query(0, [(1, 2), (2, 2)]),
                    query(1, [(2, 1), (1, 2), (2, 1)])])
        failures, received, expected = analysis.check_queries(r)
        self.assertEqual(failures, [])
        self.assertEqual((received, expected), (8, 8))

    def test_dropped_answer_is_flagged(self):
        r = record([query(0, [(1, 2), (2, 1)])])
        failures, received, expected = analysis.check_queries(r)
        self.assertEqual(failures, [(0, "missing answers")])
        self.assertEqual((received, expected), (3, 4))

    def test_stale_cached_answer_is_flagged(self):
        # Node 2 unshared one match before query 1; a cache that still
        # serves the old slice reports both.
        stale = "unexpected answer (stale or unreachable)"
        r = record([query(0, [(1, 2), (2, 2)]),
                    query(1, [(1, 2), (2, 2)])],
                   mutations=[(1, 2, 2 << 24, -1)])
        failures, received, expected = analysis.check_queries(r)
        self.assertEqual(failures, [(1, stale)])
        self.assertEqual((received, expected), (7, 7))
        fresh = record([query(0, [(1, 2), (2, 2)]),
                        query(1, [(1, 2), (2, 1)])],
                       mutations=[(1, 2, 2 << 24, -1)])
        self.assertEqual(analysis.check_queries(fresh)[0], [])

    def test_shared_back_object_is_expected_again(self):
        r = record([query(0, [(1, 2), (2, 1)]),
                    query(1, [(1, 2), (2, 1)]),
                    query(2, [(1, 2), (2, 2)])],
                   mutations=[(0, 2, 2 << 24, -1), (2, 2, 2 << 24, +1)])
        self.assertEqual(analysis.check_queries(r)[0], [])
        r["queries"][2]["observed"] = [[1, 2], [2, 1]]
        r["queries"][2]["unique"] = 3
        self.assertEqual(analysis.check_queries(r)[0],
                         [(2, "missing answers")])

    def test_answer_from_unreachable_or_issuer_is_flagged(self):
        r = record([query(0, [(1, 2)], unreachable=[2])])
        self.assertEqual(analysis.check_queries(r)[0], [])
        r = record([query(0, [(0, 2), (1, 2), (2, 2)])])
        self.assertEqual(analysis.check_queries(r)[0],
                         [(0, "unexpected answer (stale or unreachable)")])

    def test_duplicates_and_timeouts_are_flagged(self):
        r = record([query(0, [(1, 2), (2, 2)], unique=3),
                    query(1, [(1, 2), (2, 2)], completed=False)])
        self.assertEqual(analysis.check_queries(r)[0],
                         [(0, "duplicate answers"), (1, "timed out")])

    def test_diverging_setups_fail_the_check(self):
        r = record([query(i, [(1, 2), (2, 2)]) for i in range(100)])
        r["setup_digests"] = ["a", "a", "b"]
        problems = analysis.end_to_end(r)[3]
        self.assertEqual(len(problems), 1)
        self.assertIn("diverged", problems[0])


if __name__ == "__main__":
    unittest.main()
