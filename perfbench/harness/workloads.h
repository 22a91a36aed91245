#ifndef PERFBENCH_HARNESS_WORKLOADS_H_
#define PERFBENCH_HARNESS_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "record.h"

namespace perfbench {

/// Command-line options of one harness run.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  /// Minimum length of the measured phase.
  double seconds = 10;
  /// Record spans and per-layer counters (the traced run).
  bool trace = false;
  /// Where the traced run writes its span file.
  std::string spans_path;
};

/// Measured queries whose counters and span sums make the per-layer
/// numbers. A fixed count, so a count made over it repeats exactly for a
/// given seed. Every run measures at least this many queries, which also
/// leaves ten samples beyond the 90th percentile.
inline constexpr size_t kWindowQueries = 100;

/// Host-time ceiling of a measured phase (the run must end in 180 s).
inline constexpr double kMaxMeasureSeconds = 120;

/// Fleets set up from the same seed per run; setup_s is their median and
/// only the last one is measured.
inline constexpr size_t kSetups = 3;

/// `paper_scan` and `wide_mutate`: a BestPeer fleet in the simulator.
RunRecord RunSimWorkload(const RunOptions& options);

/// `tcp_loopback`: LIGLO plus BestPeer nodes over loopback TCP.
RunRecord RunTcpWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_WORKLOADS_H_
