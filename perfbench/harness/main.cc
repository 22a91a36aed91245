// perfbench_harness: builds one workload's fleet from a seed, runs its
// measured phase and prints one JSON object (a RunRecord) on stdout.
// run.py turns that record into the benchmark's metrics.
//
//   perfbench_harness --workload paper_scan --seed 1 --seconds 10
//                     [--trace 1 --spans out.spans]

#include <cstdio>
#include <cstdlib>
#include <string>

#include "util/logging.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_harness --workload "
               "paper_scan|wide_mutate|tcp_loopback --seed N --seconds S "
               "[--trace 0|1] [--spans PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--spans") {
      options.spans_path = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || !(options.seconds > 0) ||
      (options.trace && options.spans_path.empty())) {
    return Usage();
  }
  bestpeer::SetLogLevel(bestpeer::LogLevel::kError);

  perfbench::RunRecord record;
  if (options.workload == "paper_scan" || options.workload == "wide_mutate") {
    record = perfbench::RunSimWorkload(options);
  } else if (options.workload == "tcp_loopback") {
    record = perfbench::RunTcpWorkload(options);
  } else {
    return Usage();
  }
  const std::string json = perfbench::ToJson(record);
  std::fwrite(json.data(), 1, json.size(), stdout);
  std::fputc('\n', stdout);
  return record.error.empty() ? 0 : 1;
}
