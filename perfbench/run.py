#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench/harness.exe with dune,
sets the workload up several times (each set-up a fresh process, timed
from spawn to exit; the median is `setup_s`), runs it once for about
--seconds, checks every result against perfbench/pins.json and the
run's coldness and warmth checks, and prints one JSON line with the
end-to-end metrics (--trace 0) or the per-layer metrics of a traced run
(--trace 1) named in BENCHMARK.json. The harness's raw report of the run
(every operation with its timing) is left in
.bench_build/perfbench/WORKLOAD/report.json. Workloads, metrics and the layer
map are described in perfbench/layers.json. Exits non-zero, without a
result line, when the harness cannot be built or run.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import evaluate  # noqa: E402

WORKLOADS = ("plan-cold", "feedback-exact", "serve-mix")
# Set-ups per run: cheap for the batch workloads (an empty store), three
# warm-set fills for serve-mix.
SETUP_REPS = {"plan-cold": 21, "feedback-exact": 21, "serve-mix": 3}
HARNESS = os.path.join("_build", "default", "perfbench", "harness.exe")
WORKDIR = os.path.join(".bench_build", "perfbench")
# The first build in a checkout compiles the libraries; everything after
# the build must end within RUN_BUDGET_S.
BUILD_BUDGET_S = 600.0
RUN_BUDGET_S = 170.0


def harness(args, deadline):
    """Run the harness in its own process group (so a forked server dies
    with it on timeout) and return its report, the last stdout line."""
    proc = subprocess.Popen(
        [HARNESS] + args, stdout=subprocess.PIPE, start_new_session=True
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        out = None
    if out is None or proc.returncode != 0:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        raise SystemExit("harness %s failed" % args[0])
    return json.loads(out.decode().strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    os.chdir(os.path.dirname(HERE))
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "pins.json")) as f:
        pins = json.load(f)["digests"]
    # The shared dune cache lives outside the checkout; keep the build in it.
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/harness.exe"],
        stdout=sys.stderr,
        env=dict(os.environ, DUNE_CACHE="disabled"),
        timeout=BUILD_BUDGET_S,
    )
    if build.returncode != 0:
        raise SystemExit("build failed")
    deadline = time.monotonic() + RUN_BUDGET_S
    workdir = os.path.join(WORKDIR, a.workload)
    setup_s, setup_reports = [], []
    for _ in range(SETUP_REPS[a.workload]):
        t0 = time.perf_counter()
        setup_reports.append(
            harness(["setup", a.workload, "--dir", workdir], deadline)
        )
        setup_s.append(time.perf_counter() - t0)
    report = harness(
        [
            "run", a.workload, "--dir", workdir, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", str(a.trace),
        ],
        deadline,
    )
    with open(os.path.join(workdir, "report.json"), "w") as f:
        json.dump(report, f)
    result, problems = evaluate.summarize(
        a.workload, setup_s, setup_reports, report, a.trace == 1, pins, spec
    )
    for p in problems[:20]:
        print("perfbench: " + p, file=sys.stderr)
    print(json.dumps(result))


if __name__ == "__main__":
    try:
        main()
    except (OSError, ValueError, KeyError, subprocess.TimeoutExpired) as e:
        raise SystemExit("benchmark failed: %s" % e)
