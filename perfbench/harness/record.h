#ifndef PERFBENCH_HARNESS_RECORD_H_
#define PERFBENCH_HARNESS_RECORD_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// One query as the harness saw it. The ground-truth check in run.py reads
/// `observed` against the placement and mutation log.
struct QueryRecord {
  int64_t id = 0;  // Harness sequence number (warm-up queries first).
  uint32_t issuer = 0;
  bool warmup = false;
  bool traced = false;     // Issued while spans were recorded.
  bool completed = true;   // False: timed out before every answer arrived.
  double host_ms = 0;      // Host latency (see run.py for the interval).
  double virtual_ms = 0;   // Simulated completion time (sim only).
  uint64_t events = 0;     // Simulator events the query caused (sim only).
  uint64_t wire_bytes = 0; // Simulated wire bytes it caused (sim only).
  uint64_t unique = 0;     // Distinct object ids among the answers.
  /// (responder, answers) per answer event, in arrival order.
  std::vector<std::pair<uint32_t, uint32_t>> observed;
  /// Nodes beyond the issuer's TTL horizon in the overlay at issue time.
  std::vector<uint32_t> unreachable;
};

/// One write to a node's shared store before the query with harness id
/// `before_query` is issued: delta -1 unshares matching `object`, +1
/// shares it back.
struct MutationRecord {
  int64_t before_query = 0;
  uint32_t node = 0;
  uint64_t object = 0;
  int delta = 0;
};

/// Everything one harness run reports to run.py.
struct RunRecord {
  std::string workload;
  uint64_t seed = 0;
  bool trace = false;
  std::vector<double> setup_s;
  /// Per setup: a digest of the warm-up (events, wire bytes, answers per
  /// query) — identical across setups of one seed when deterministic.
  std::vector<std::string> setup_digests;
  /// Matching objects placed per node (the ground truth before
  /// mutations). Objects 0..n-1 of node k are its matches.
  std::map<uint32_t, uint32_t> placement;
  double measure_s = 0;
  std::vector<QueryRecord> queries;
  std::vector<MutationRecord> mutations;
  /// Per-layer work counters (registry deltas over the counted window).
  std::map<std::string, double> counters;
  /// Per-layer host-time samples (probe timings, lags) for percentiles.
  std::map<std::string, std::vector<double>> samples;
  double peak_rss_mb = 0;
  std::string error;  // Non-empty when the harness itself failed.
};

/// Serializes `record` as one JSON object.
std::string ToJson(const RunRecord& record);

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_RECORD_H_
