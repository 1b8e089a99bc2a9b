"""Tests of the benchmark's result evaluation.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import evaluate  # noqa: E402


def op(id_="a", kind="cold", due=0.0, finish=0.0, digest="d", error=None):
    return {"id": id_, "kind": kind, "due": due, "finish": finish,
            "digest": digest, "error": error, "phases": {}}


def stats(**values):
    return "\n".join(
        json.dumps({"name": k.replace("_", "."), "kind": "gauge", "value": v})
        for k, v in values.items()
    )


def serve_pass(name, writes, before, after, requests=0):
    return {"name": name, "writes": writes, "requests": requests, "rate": 100.0,
            "stats_before": stats(**before), "stats_after": stats(**after)}


class Percentiles(unittest.TestCase):
    def test_nearest_rank(self):
        xs = list(range(1, 101))
        self.assertEqual(evaluate.percentile(xs, 0.5), 50)
        self.assertEqual(evaluate.percentile(xs, 0.99), 99)
        self.assertEqual(evaluate.percentile(reversed(xs), 1.0), 100)
        self.assertEqual(evaluate.percentile([7.0], 0.99), 7.0)

    def test_latency_runs_from_due_time(self):
        # A generator stall of 0.5 s: three requests due 10 ms apart are
        # all sent and answered at 1.0 s. Each is late by its own wait.
        ops = [op(due=d, finish=1.0) for d in (0.49, 0.5, 0.51)]
        self.assertEqual(
            [round(evaluate.latency_ms(o), 6) for o in ops], [510.0, 500.0, 490.0]
        )

    def test_ladder_counts_failures_as_missing_the_limit(self):
        fast = [op(due=0.0, finish=0.01) for _ in range(99)]
        one_refused = fast + [op(error="overloaded")]
        steps = [
            ({"rate": 100.0}, fast + [op(finish=0.01)]),
            ({"rate": 110.0}, one_refused),
        ]
        # 1 of 100 failed: the p99 is the 99th value, still within limit
        self.assertEqual(evaluate.ladder_max_rps(steps, 1000.0, 1.1), 110.0)
        two_refused = fast[:98] + [op(error="x"), op(error="timeout")]
        steps[1] = ({"rate": 110.0}, two_refused)
        self.assertEqual(evaluate.ladder_max_rps(steps, 1000.0, 1.1), 100.0)

    def test_ladder_never_reports_zero(self):
        slow = [op(due=0.0, finish=5.0)]
        got = evaluate.ladder_max_rps([({"rate": 110.0}, slow)], 1000.0, 1.1)
        self.assertAlmostEqual(got, 100.0)


    def test_batch_percentiles_take_each_programs_median(self):
        # two programs, three passes: p50 is the faster program's median
        passes = [{"wall_s": 1.1, "programs": {"a": 0.1, "b": 1.0}},
                  {"wall_s": 1.1, "programs": {"a": 0.1, "b": 1.0}},
                  {"wall_s": 3.1, "programs": {"a": 0.1, "b": 3.0}}]
        ops = [op("a/x") for _ in range(6)]
        m = evaluate.batch_metrics({"passes": passes, "peak_rss_mb": 1.0, "ops": ops})
        self.assertEqual(m["p50_ms"], 100.0)
        self.assertEqual(m["wall_s"], 1.1)
        self.assertAlmostEqual(m["ops_per_s"], 6 / 5.3)


class Digests(unittest.TestCase):
    def test_mismatch_unknown_and_error_fail(self):
        pins = {"a": "d", "b": "e"}
        ops = [op("a"), op("b", digest="x"), op("c"), op("a", error="boom", digest=None)]
        self.assertEqual(
            [(o["id"], o["digest"]) for o in evaluate.digest_failures(ops, pins)],
            [("b", "x"), ("c", "d"), ("a", None)],
        )

    def test_matching_pins_pass(self):
        self.assertEqual(evaluate.digest_failures([op("a")], {"a": "d"}), [])


class Coldness(unittest.TestCase):
    def test_failed_checks(self):
        checks = [{"name": "cold misses", "expected": 10, "observed": 10},
                  {"name": "warm hits", "expected": 120, "observed": 119}]
        self.assertEqual([c["name"] for c in evaluate.failed_checks(checks)], ["warm hits"])

    def test_serve_pass_warmth(self):
        ok = serve_pass("fixed", 3, {"store_misses": 1, "store_stores": 1},
                        {"store_misses": 4, "store_stores": 4})
        self.assertEqual(evaluate.failed_checks(evaluate.serve_pass_checks(ok)), [])
        # a read that missed the restored snapshot: one miss too many
        cold_read = serve_pass("fixed", 3, {}, {"store_misses": 4, "store_stores": 4})
        self.assertEqual(len(evaluate.failed_checks(evaluate.serve_pass_checks(cold_read))), 2)
        # a write that hit: the store already held it, the run was warm
        warm_write = serve_pass("fixed", 3, {}, {"store_misses": 2, "store_stores": 2})
        self.assertEqual(len(evaluate.failed_checks(evaluate.serve_pass_checks(warm_write))), 2)

    def test_ladder_step_may_end_with_writes_queued(self):
        queued = serve_pass("ladder-2", 5, {}, {"store_misses": 4, "store_stores": 3})
        self.assertEqual(evaluate.failed_checks(evaluate.serve_pass_checks(queued)), [])
        cold_read = serve_pass("ladder-2", 5, {}, {"store_misses": 6, "store_stores": 6})
        self.assertEqual(len(evaluate.failed_checks(evaluate.serve_pass_checks(cold_read))), 1)


class Summary(unittest.TestCase):
    spec = {
        "end_to_end": [{"name": n, "unit": "u"} for n in
                       ("wall_s", "p50_ms", "ops_per_s",
                        "peak_rss_mb", "setup_s")],
        "per_layer": [{"name": "shaker.s", "unit": "s"}, {"name": "serve.wait_ms", "unit": "ms"},
                      {"name": "warm.read_p99_ms", "unit": "ms"}],
    }

    def report(self, checks=(), ops=None):
        ops = ops or [op("a", due=0.0, finish=0.5), op("a", kind="warm", finish=0.001)]
        return {"passes": [{"wall_s": 1.0, "programs": {"a": 0.5}}], "peak_rss_mb": 40.0,
                "ops": ops, "checks": list(checks), "layers": {"shaker.s": 0.7}}

    def test_clean_run(self):
        result, problems = evaluate.summarize(
            "plan-cold", [0.01, 0.02, 0.03], [], self.report(), False, {"a": "d"}, self.spec)
        self.assertTrue(result["correct"])
        self.assertEqual((result["attempted"], result["failed"]), (2, 0))
        self.assertEqual(problems, [])
        self.assertEqual(result["metrics"]["setup_s"], {"value": 0.02, "unit": "u"})
        self.assertEqual(result["metrics"]["p50_ms"]["value"], 500.0)

    def test_accidentally_warm_run_fails_every_op(self):
        warm = [{"name": "pass 0 cold store misses", "expected": 10, "observed": 0}]
        result, problems = evaluate.summarize(
            "plan-cold", [0.01], [], self.report(warm), False, {"a": "d"}, self.spec)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])
        self.assertIn("pass 0 cold store misses", problems[0])

    def test_digest_mismatch_fails_one_op(self):
        result, _ = evaluate.summarize(
            "plan-cold", [0.01], [], self.report(), False, {"a": "other"}, self.spec)
        self.assertEqual(result["failed"], 2)

    def test_traced_run_reports_every_layer(self):
        result, _ = evaluate.summarize(
            "plan-cold", [0.01], [], self.report(), True, {"a": "d"}, self.spec)
        self.assertEqual(result["metrics"]["shaker.s"]["value"], 0.7)
        self.assertEqual(result["metrics"]["serve.wait_ms"]["value"], 0.0)
        self.assertEqual(result["metrics"]["warm.read_p99_ms"]["value"], 1.0)

    def test_ladder_refusals_are_not_failures_but_wrong_bytes_are(self):
        passes = [serve_pass(n, 0, {}, {}, 1) for n in ("fixed", "traced")]
        passes.append(serve_pass("ladder-0", 0, {}, {}, 2))
        passes[0]["server"] = passes[1]["server"] = {"peak_rss_mb": 20.0, "profiler_walks": 0}
        ops = [op("r", kind="read", due=0.0, finish=0.004),
               dict(op("r", kind="traced-read", due=0.0, finish=0.004),
                    phases={"late": 0.0, "submit": 0.001, "wait": 0.002, "result": 0.001}),
               op("r", kind="ladder-read", error="overloaded", digest=None),
               op("r", kind="ladder-read", digest="bad")]
        report = {"ops": ops, "checks": [], "passes": passes,
                  "p99_limit_ms": 1000.0, "ladder_step": 1.05}
        spec = dict(self.spec, per_layer=[{"name": "serve.max_rps", "unit": "1/s"}])
        result, _ = evaluate.summarize("serve-mix", [1.0], [], report, True, {"r": "d"}, spec)
        self.assertEqual((result["attempted"], result["failed"]), (4, 1))
        # the refused step misses the limit; the fixed pass's rate stands
        self.assertEqual(result["metrics"]["serve.max_rps"]["value"], 100.0)


if __name__ == "__main__":
    unittest.main()
