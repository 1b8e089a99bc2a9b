"""Turns harness reports into the benchmark's result line.

Pure functions only, so perfbench/tests can check them without running
the simulator: digest checking against the pinned results, the
coldness/warmth checks, latency percentiles timed from each request's
due time, and the serve-mix rate ladder.
"""

import json
import math
import statistics


def percentile(values, q):
    """Nearest-rank percentile (q in [0, 1]) of a non-empty sequence."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def latency_ms(op):
    """Milliseconds from when the operation was due to when it finished.

    In an open loop a request is due when the schedule says so, not when
    the generator got round to sending it, so a stall also counts against
    every request queued up behind it.
    """
    return (op["finish"] - op["due"]) * 1000.0


def digest_failures(ops, pins):
    """Operations that failed or whose result bytes differ from the pin."""
    return [
        op
        for op in ops
        if op["error"] is not None or op["digest"] != pins.get(op["id"])
    ]


def failed_checks(checks):
    """Checks whose observed count differs from the expected one."""
    return [c for c in checks if c["expected"] != c["observed"]]


def stats_values(jsonl):
    """Counter and gauge values of a server `stats` dump, by name."""
    values = {}
    for line in jsonl.splitlines():
        if line.strip():
            inst = json.loads(line)
            if inst.get("kind") in ("counter", "gauge"):
                values[inst["name"]] = float(inst["value"])
    return values


def stats_delta(serve_pass, name):
    before = stats_values(serve_pass["stats_before"]).get(name, 0.0)
    return stats_values(serve_pass["stats_after"]).get(name, 0.0) - before


def serve_pass_checks(serve_pass):
    """Warmth of one serve pass: reads are served from the restored
    snapshot, so the store misses, and stores, once per fresh write and
    never for a read. A ladder step past capacity may still hold writes
    in its queue when its counters are read, so there the stores may
    fall short of the misses, and the misses of the writes, but neither
    may exceed the other."""
    name, writes = serve_pass["name"], serve_pass["writes"]
    misses = int(stats_delta(serve_pass, "store.misses"))
    stores = int(stats_delta(serve_pass, "store.stores"))
    if name.startswith("ladder-"):
        return [
            {"name": name + " store misses beyond writes", "expected": 0,
             "observed": max(0, misses - writes)},
            {"name": name + " store stores beyond misses", "expected": 0,
             "observed": max(0, stores - misses)},
        ]
    return [
        {"name": name + " store misses", "expected": writes, "observed": misses},
        {"name": name + " store stores", "expected": writes, "observed": stores},
    ]


def split_passes(report):
    """Pair each serve pass with its operations (recorded in pass order)."""
    ops = iter(report["ops"])
    return [(p, [next(ops) for _ in range(p["requests"])]) for p in report["passes"]]


def step_passes(ops, limit_ms):
    """A ladder step passes when its p99, with every failed or unanswered
    request counted as missing the limit, is within the limit."""
    lat = [latency_ms(op) if op["error"] is None else math.inf for op in ops]
    return bool(lat) and percentile(lat, 0.99) <= limit_ms


def ladder_max_rps(steps, limit_ms, grid_step):
    """Highest rate among the passes and ladder steps that met the limit;
    when none did, one grid step below the lowest rate tried."""
    passed = [p["rate"] for p, ops in steps if step_passes(ops, limit_ms)]
    if passed:
        return max(passed)
    return min(p["rate"] for p, _ in steps) / grid_step


def mean(xs):
    return sum(xs) / len(xs) if xs else 0.0


def request_medians(ops, kind):
    """Each distinct request's median latency over the run's repeats."""
    by_id = {}
    for op in ops:
        if op["kind"] == kind:
            by_id.setdefault(op["id"], []).append(latency_ms(op))
    return [statistics.median(v) for v in by_id.values()]


def batch_metrics(report):
    """End-to-end metrics of plan-cold and feedback-exact. An operation is
    one program's cold results (its three requests in a pass); p50 is
    taken over the programs' medians across passes, so with two programs
    it is the faster one's."""
    passes = report["passes"]
    walls = [p["wall_s"] for p in passes]
    per_program = {}
    for p in passes:
        for name, seconds in p["programs"].items():
            per_program.setdefault(name, []).append(seconds * 1000.0)
    medians = [statistics.median(v) for v in per_program.values()]
    cold = [op for op in report["ops"] if op["kind"] == "cold"]
    return {
        "wall_s": statistics.median(walls),
        "peak_rss_mb": report["peak_rss_mb"],
        "p50_ms": percentile(medians, 0.5),
        "ops_per_s": len(cold) / sum(walls),
    }


def serve_metrics(report):
    """End-to-end metrics of serve-mix: the fixed-rate pass, timed from
    due time."""
    (fixed, fixed_ops), = split_passes(report)
    ok = [op for op in fixed_ops if op["error"] is None]
    wall = max(op["finish"] for op in fixed_ops) - min(op["due"] for op in fixed_ops)
    return {
        "wall_s": wall,
        "peak_rss_mb": fixed["server"]["peak_rss_mb"],
        "p50_ms": percentile([latency_ms(op) for op in ok], 0.5),
        "ops_per_s": len(ok) / wall,
    }


def serve_layers(report):
    """Per-layer metrics of the traced serve pass: client-side phase
    times per request (means; the four phases partition each request's
    latency from its due time), the server's counter deltas, and the
    difference to the untraced pass, whose requests and warm reads give
    their p99s, and the rate ladder that starts from it."""
    (untraced, u_ops), (traced, t_ops), *steps = split_passes(report)
    u_ok = [latency_ms(op) for op in u_ops if op["error"] is None]
    reads = [latency_ms(op) for op in u_ops if op["kind"] == "read" and op["error"] is None]

    def wall(ops):
        return max(op["finish"] for op in ops) - min(op["due"] for op in ops)

    ok = [op for op in t_ops if op["error"] is None]
    phase = {
        k: mean([op["phases"][k] * 1000.0 for op in ok])
        for k in ("late", "submit", "wait", "result")
    }
    hits = stats_delta(traced, "store.hits")
    misses = stats_delta(traced, "store.misses")
    return {
        "serve.submit_ms": phase["submit"],
        "serve.wait_ms": phase["wait"],
        "serve.result_ms": phase["result"],
        "serve.generator_late_ms": phase["late"],
        "serve.coalesced": stats_delta(traced, "serve.coalesced"),
        "serve.rejected": stats_delta(traced, "serve.rejected"),
        "store.hits": hits,
        "store.misses": misses,
        "store.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "journal.admitted": stats_delta(traced, "journal.admitted"),
        "serve.loop.wakeups": stats_delta(traced, "serve.loop.wakeups"),
        "runner.profiler_walks": float(traced["server"]["profiler_walks"]),
        "trace_overhead_s": wall(t_ops) - wall(u_ops),
        "serve.p99_ms": percentile(u_ok, 0.99),
        "warm.read_p99_ms": percentile(reads, 0.99),
        "serve.max_rps": ladder_max_rps(
            [(untraced, u_ops)] + steps, report["p99_limit_ms"], report["ladder_step"]
        ),
    }


def summarize(workload, setup_s, setup_reports, report, trace, pins, spec):
    """The result line and the reasons for any failure. Correctness
    covers every operation and check of the set-up and the run; the
    metrics are the end-to-end (trace 0) or per-layer (trace 1) ones
    named in BENCHMARK.json (`spec`), with units. Per-layer metrics of
    layers the workload does not run read 0."""
    ops = [op for r in setup_reports for op in r["ops"]] + report["ops"]
    checks = [c for r in setup_reports for c in r["checks"]] + report["checks"]
    if workload == "serve-mix":
        checks += [c for p, _ in split_passes(report) for c in serve_pass_checks(p)]
    # Ladder steps probe past capacity: a refused or late request there
    # is a step missing its limit, not a failure; a wrong payload is.
    bad = [
        op
        for op in digest_failures(ops, pins)
        if not (op["kind"].startswith("ladder-") and op["error"] is not None)
    ]
    broken = failed_checks(checks)
    failed = len(ops) if broken else len(bad)
    problems = [
        "check %s: expected %d, observed %d" % (c["name"], c["expected"], c["observed"])
        for c in broken
    ] + ["op %s (%s): %s" % (op["id"], op["kind"], op["error"] or "digest mismatch") for op in bad]
    if trace:
        if workload == "serve-mix":
            values = serve_layers(report)
        else:
            values = dict(report["layers"])
            values["warm.read_p99_ms"] = percentile(
                request_medians(report["ops"], "warm"), 0.99
            )
        names = spec["per_layer"]
    else:
        if workload == "serve-mix":
            values = serve_metrics(report)
        else:
            values = batch_metrics(report)
        values["setup_s"] = statistics.median(setup_s)
        names = spec["end_to_end"]
    metrics = {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in names
    }
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }
    return result, problems
