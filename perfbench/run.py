#!/usr/bin/env python3
"""BestPeer host-time benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload paper_scan --seed 1 --seconds 10 --trace 0

Builds the harness (perfbench/CMakeLists.txt, Release) into .bench_build/
on first use, runs one workload, checks every answer against the ground
truth and prints the metrics. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics; --trace 1 runs the traced variant and reports the
per-layer metrics. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # Write nothing outside .bench_build/.

import analysis  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
HARNESS = os.path.join(BUILD_DIR, "perfbench_harness")
WORKLOADS = ("paper_scan", "wide_mutate", "tcp_loopback")
HARNESS_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the harness; exits on failure."""
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    log_path = os.path.join(BUILD_DIR, "build.log")
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    with open(log_path, "w", encoding="utf-8") as log:
        def step(command):
            return subprocess.run(command, stdout=log, stderr=subprocess.STDOUT,
                                  cwd=ROOT, env=env, check=False).returncode == 0

        if not os.path.exists(cache):
            configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if not step(configure):
                # Leave no half-made cache: the next run configures again.
                if os.path.exists(cache):
                    os.remove(cache)
                fail("configure failed; see " + log_path)
        jobs = str(min(4, os.cpu_count() or 1))
        if not step(["cmake", "--build", BUILD_DIR, "--target",
                     "perfbench_harness", "-j", jobs]):
            fail("build failed; see " + log_path)


def run_harness(args, spans_path):
    command = [HARNESS, "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               "1" if args.trace else "0"]
    if args.trace:
        command += ["--spans", spans_path]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, cwd=ROOT,
                              timeout=HARNESS_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail("harness exceeded %d s" % HARNESS_TIMEOUT_S)
    try:
        record = json.loads(done.stdout.decode("utf-8").strip().splitlines()[-1])
    except (IndexError, ValueError):
        fail("harness printed no record (exit %d)" % done.returncode)
    if record.get("error") or done.returncode != 0:
        fail("harness failed: %s" % record.get("error"))
    return record


def print_summary(record, e2e, layer_times):
    measured = [q for q in record["queries"] if not q["warmup"]]
    print("workload %s seed %d%s: %d setups, %d warm-up + %d measured "
          "queries in %.2f s" % (
              record["workload"], record["seed"],
              " (traced run)" if record["trace"] else "",
              len(record["setup_s"]),
              len(record["queries"]) - len(measured), len(measured),
              record["measure_s"]))
    print("  latency percentiles over %d samples" % len(measured))
    for name, (value, unit) in e2e.items():
        print("  %-24s %14.6g %s" % (name, value, unit))
    for layer, seconds in sorted(layer_times.items()):
        print("  self time %-14s %14.6g s" % (layer, seconds))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        fail("--seconds must be positive and --seed non-negative")

    build()
    spans_path = os.path.join(BUILD_DIR, "spans",
                              "%s-%d.spans" % (args.workload, args.seed))
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    record = run_harness(args, spans_path)

    e2e, attempted, failed, problems = analysis.end_to_end(record)
    layer_times = {}
    metrics = e2e
    if args.trace:
        spans = analysis.load_spans(spans_path)
        for span, self_ns in zip(spans, analysis.self_times(spans)):
            layer = analysis.layer_of(span["name"])
            layer_times[layer] = layer_times.get(layer, 0) + self_ns / 1e9
        metrics = analysis.per_layer(record, spans)
    print_summary(record, e2e, layer_times)
    for problem in problems:
        print("  CHECK FAILED: " + problem)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
