"""Turns one harness record into the benchmark's metrics.

Pure functions over the JSON record the C++ harness prints (see
harness/record.h) and the span file a traced run writes; run.py wires
them to the command line and tests/test_analysis.py covers them.
"""

import json
import math
import statistics

# Measured queries that form the counted window (harness kWindowQueries).
WINDOW_QUERIES = 100

# A percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10

# Span names of the harness itself; every other span belongs to the layer
# named before its first dot.
HARNESS_SPANS = ("setup", "query", "mutate", "probe")


def percentile(values, q):
    """Nearest-rank q-quantile (0 < q <= 1) of `values`, or None if empty."""
    if not values:
        return None
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count, q):
    """Samples ranked above the nearest-rank q-quantile of `count` samples."""
    if count == 0:
        return 0
    return count - max(1, math.ceil(q * count))


def tail_percentile(values, q):
    """The q-quantile if at least MIN_BEYOND samples lie beyond it, else None."""
    if samples_beyond(len(values), q) < MIN_BEYOND:
        return None
    return percentile(values, q)


def median_or_zero(values):
    return statistics.median(values) if values else 0.0


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def load_spans(path):
    """Reads a span file: one [name, start_ns, end_ns, parent, query] per line."""
    spans = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            name, start, end, parent, query = json.loads(line)
            spans.append({"name": name, "start": start, "end": end,
                          "parent": parent, "query": query})
    return spans


def self_times(spans):
    """Self time of each span in ns: its duration minus the part of its
    interval that its children cover (overlapping children count once)."""
    children = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span["parent"] >= 0:
            children[span["parent"]].append(index)
    result = []
    for index, span in enumerate(spans):
        covered = 0
        reach = span["start"]
        for child in sorted(children[index], key=lambda c: spans[c]["start"]):
            start = max(spans[child]["start"], reach)
            end = min(spans[child]["end"], span["end"])
            if end > start:
                covered += end - start
                reach = end
        result.append(span["end"] - span["start"] - covered)
    return result


def layer_of(name):
    return "bench" if name in HARNESS_SPANS else name.split(".", 1)[0]


def ground_truth(record, query, removed):
    """Expected answers per responder for one query: the matches placed at
    every reachable node other than the issuer, minus those unshared."""
    unreachable = set(query["unreachable"])
    truth = {}
    for node_text, matches in record["placement"].items():
        node = int(node_text)
        if node == query["issuer"] or node in unreachable:
            continue
        left = matches - removed.get(node, 0)
        if left > 0:
            truth[node] = left
    return truth


def check_queries(record):
    """Compares every query's answers with the ground truth.

    Returns (failures, received, expected): `failures` lists
    (query id, reason) for queries that timed out, missed an answer,
    returned one the ground truth no longer holds (a stale cached answer)
    or returned an object twice; `received` counts answers that match the
    ground truth and `expected` the answers the ground truth holds.
    """
    mutations = sorted(record["mutations"], key=lambda m: m[0])
    removed = {}
    next_mutation = 0
    failures = []
    received = expected = 0
    for query in sorted(record["queries"], key=lambda q: q["id"]):
        while (next_mutation < len(mutations) and
               mutations[next_mutation][0] <= query["id"]):
            _, node, _, delta = mutations[next_mutation]
            removed[node] = removed.get(node, 0) - delta
            next_mutation += 1
        truth = ground_truth(record, query, removed)
        got = {}
        for node, answers in query["observed"]:
            got[node] = got.get(node, 0) + answers
        got = {node: n for node, n in got.items() if n > 0}
        total = sum(got.values())
        expected += sum(truth.values())
        received += sum(min(n, truth.get(node, 0)) for node, n in got.items())
        reason = None
        if not query["completed"]:
            reason = "timed out"
        elif any(n > truth.get(node, 0) for node, n in got.items()):
            reason = "unexpected answer (stale or unreachable)"
        elif got != truth:
            reason = "missing answers"
        elif query["unique"] != total:
            reason = "duplicate answers"
        if reason is not None:
            failures.append((query["id"], reason))
    return failures, received, expected


def end_to_end(record):
    """The end-to-end metrics of one untraced run, plus the check outcome.

    Returns (metrics, attempted, failed, problems): metrics maps name to
    (value, unit); problems lists why the run's output is not correct.
    """
    failures, received, expected = check_queries(record)
    problems = ["query %d: %s" % f for f in failures[:5]]
    if len(set(record["setup_digests"])) > 1:
        problems.append("same-seed setups diverged: %s" %
                        sorted(set(record["setup_digests"])))
    measured = [q for q in record["queries"] if not q["warmup"]]
    latencies = [q["host_ms"] for q in measured]
    p90 = tail_percentile(latencies, 0.9)
    if p90 is None:
        problems.append("only %d measured queries: no p90" % len(latencies))
    completed = sum(1 for q in measured if q["completed"])
    failed_ids = {f[0] for f in failures}
    metrics = {
        "setup_s": (median_or_zero(record["setup_s"]), "s"),
        "queries_per_s": (ratio(completed, record["measure_s"]), "1/s"),
        "query_ms_p50": (percentile(latencies, 0.5) or 0.0, "ms"),
        "query_ms_p90": (p90 or 0.0, "ms"),
        "recall": (ratio(received, expected), "ratio"),
        "peak_rss_mb": (record["peak_rss_mb"], "MB"),
    }
    attempted = len(record["queries"])
    return metrics, attempted, len(failed_ids), problems


def window(record):
    """The first WINDOW_QUERIES measured queries."""
    measured = sorted((q for q in record["queries"] if not q["warmup"]),
                      key=lambda q: q["id"])
    return measured[:WINDOW_QUERIES]


def per_layer(record, spans):
    """The per-layer metrics of one traced run: name -> (value, unit)."""
    selfs = self_times(spans)
    warmup_ids = {q["id"] for q in record["queries"] if q["warmup"]}
    in_window = {q["id"] for q in window(record)}
    traced = {q["id"] for q in record["queries"]
              if q["traced"] and not q["warmup"]}
    counted = in_window & traced

    # Spans of the traced setup: the last "setup" root and its subtree.
    setup_roots = [i for i, s in enumerate(spans) if s["name"] == "setup"]
    setup_root = setup_roots[-1] if setup_roots else None

    def in_setup(index):
        while index >= 0:
            if index == setup_root:
                return True
            index = spans[index]["parent"]
        return False

    def setup_self_s(name):
        return sum(selfs[i] for i, s in enumerate(spans)
                   if s["name"] == name and in_setup(i)) / 1e9

    def measured_durations_us(name):
        return [(s["end"] - s["start"]) / 1e3 for s in spans
                if s["name"] == name and s["query"] >= 0 and
                s["query"] not in warmup_ids]

    def window_self_ns(name, parent_name=None):
        return sum(selfs[i] for i, s in enumerate(spans)
                   if s["name"] == name and s["query"] in counted and
                   (parent_name is None or
                    (s["parent"] >= 0 and
                     spans[s["parent"]]["name"] == parent_name)))

    # The layers' share of the traced window queries' wall time: what the
    # query spans' children cover, i.e. all but the harness's own time.
    query_roots = [i for i, s in enumerate(spans)
                   if s["name"] == "query" and s["query"] in counted]
    query_wall = sum(spans[i]["end"] - spans[i]["start"] for i in query_roots)
    layer_self = query_wall - sum(selfs[i] for i in query_roots)

    win = window(record)
    traced_win = [q for q in win if q["id"] in counted]
    counters = record["counters"]
    samples = record["samples"]
    measured = [q for q in record["queries"] if not q["warmup"]]

    def counter(name):
        return counters.get(name, 0.0)

    def sample_median(name):
        return median_or_zero(samples.get(name, []))

    def sample_tail(name, q):
        return tail_percentile(samples.get(name, []), q) or 0.0

    traced_ms = [q["host_ms"] for q in measured if q["traced"]]
    untraced_ms = [q["host_ms"] for q in measured if not q["traced"]]
    overhead = 0.0
    if traced_ms and untraced_ms:
        overhead = (statistics.mean(traced_ms) /
                    statistics.mean(untraced_ms)) - 1.0

    run_ns = window_self_ns("sim.run", parent_name="query")
    hits, misses = counter("storm.pool_hits"), counter("storm.pool_misses")
    c_hits, c_misses = counter("cache.hits"), counter("cache.misses")
    return {
        "workload.corpus_s": (setup_self_s("workload.corpus"), "s"),
        "workload.corpus_objects": (counter("workload.corpus_objects"),
                                    "count"),
        "core.share_s": (setup_self_s("core.share"), "s"),
        "core.issue_us_p50": (median_or_zero(
            measured_durations_us("core.issue") or
            samples.get("core.issue_us", [])), "us"),
        "core.reconfigure_us_p50": (median_or_zero(
            measured_durations_us("core.reconfigure")), "us"),
        "core.unshare_us_p50": (median_or_zero(
            measured_durations_us("core.unshare")), "us"),
        "core.answers_received": (counter("core.answers_received"), "count"),
        "core.reconfigurations": (counter("core.reconfigurations"), "count"),
        "sim.run_s": (window_self_ns("sim.run") / 1e9, "s"),
        "sim.events": (sum(q["events"] for q in win), "count"),
        "sim.ns_per_event": (ratio(run_ns,
                                   sum(q["events"] for q in traced_win)),
                             "ns"),
        "sim.wire_bytes": (sum(q["wire_bytes"] for q in win), "bytes"),
        "sim.virtual_ms_p50": (median_or_zero(
            [q["virtual_ms"] for q in win]), "ms"),
        "storm.pool_hits": (hits, "count"),
        "storm.pool_misses": (misses, "count"),
        "storm.pool_hit_ratio": (ratio(hits, hits + misses), "ratio"),
        "storm.scan_ms": (sample_median("storm.scan_ms"), "ms"),
        "storm.index_search_us": (sample_median("storm.index_search_us"),
                                  "us"),
        "agent.migrations": (counter("agent.migrations"), "count"),
        "agent.executed": (counter("agent.executed"), "count"),
        "agent.serialize_bytes": (counter("agent.serialize_bytes"), "bytes"),
        "agent.useful_ratio": (ratio(counter("agent.executed"),
                                     counter("agent.received")), "ratio"),
        "compress.lzss_mb_per_s": (sample_median("compress.lzss_mb_per_s"),
                                   "MB/s"),
        "cache.hits": (c_hits, "count"),
        "cache.misses": (c_misses, "count"),
        "cache.hit_ratio": (ratio(c_hits, c_hits + c_misses), "ratio"),
        "cache.invalidations": (counter("cache.invalidations"), "count"),
        "net.tx_msgs": (counter("net.tx_msgs"), "count"),
        "net.tx_bytes": (counter("net.tx_bytes"), "bytes"),
        "net.msgs_per_query": (ratio(counter("net.tx_msgs"), len(measured)),
                               "count"),
        "net.tx_dropped": (counter("net.tx_dropped"), "count"),
        "net.reconnects": (counter("net.reconnects"), "count"),
        "net.frame_errors": (counter("net.frame_errors"), "count"),
        "net.reactor_lag_us_p50": (sample_median("net.reactor_lag_us"), "us"),
        "net.reactor_lag_us_p90": (sample_tail("net.reactor_lag_us", 0.9),
                                   "us"),
        "net.reactor_busy_frac": (ratio(counter("net.reactor_busy_s"),
                                        record["measure_s"]), "ratio"),
        "liglo.join_ms_p50": (sample_median("liglo.join_ms"), "ms"),
        "liglo.retries": (counter("liglo.retries"), "count"),
        "bench.gen_lag_ms_p90": (sample_tail("bench.gen_lag_ms", 0.9), "ms"),
        "bench.trace_overhead_frac": (overhead, "ratio"),
        "bench.span_coverage_frac": (ratio(layer_self, query_wall), "ratio"),
    }
