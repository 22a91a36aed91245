// scnlint: validates scenario files and prints each one's resolved
// timeline — classes with their link/CPU/store profiles, the phase
// schedule with expected arrival counts (the exact integral of the
// declared rate function), and churn waves. CI runs it over every
// committed scenarios/*.json; any schema, type, range or unknown-key
// problem is a nonzero exit.
//
//   scnlint <spec.json> [<spec.json> ...]
#include <cstdio>
#include <string>

#include "scenario/arrival.h"
#include "scenario/spec.h"

using namespace bestpeer;
using namespace bestpeer::scenario;

namespace {

int LintOne(const std::string& path) {
  auto spec_result = LoadScenarioFile(path);
  if (!spec_result.ok()) {
    std::fprintf(stderr, "%s: FAIL: %s\n", path.c_str(),
                 spec_result.status().ToString().c_str());
    return 1;
  }
  const ScenarioSpec spec = std::move(spec_result).value();

  std::printf("%s: OK\n", path.c_str());
  std::printf("  scenario '%s' seed=%llu topology=%s nodes=%zu ttl=%u "
              "pool=%zu reconfigure=%s\n",
              spec.name.c_str(),
              static_cast<unsigned long long>(spec.seed),
              spec.topology.kind.c_str(), spec.TotalNodes(),
              spec.node.default_ttl, spec.query_pool,
              spec.reconfigure_each_phase ? "phase" : "off");
  size_t offset = 0;
  for (const NodeClassSpec& cls : spec.classes) {
    std::printf("  class %-10s nodes [%zu, %zu)", cls.name.c_str(), offset,
                offset + cls.count);
    if (cls.bandwidth_mbps > 0) {
      std::printf(" %.0f Mbit/s", cls.bandwidth_mbps);
    }
    if (cls.extra_latency_ms > 0) {
      std::printf(" +%.0fms", cls.extra_latency_ms);
    }
    if (cls.cpu_threads > 0) std::printf(" %d threads", cls.cpu_threads);
    std::printf(" store=%zu matches=%zu%s%s\n", cls.objects_per_node,
                cls.matches_per_node, cls.issues_queries ? "" : " silent",
                cls.free_rider ? " FREE-RIDER" : "");
    offset += cls.count;
  }
  double start_ms = 0;
  double expected_total = 0;
  for (const PhaseSpec& phase : spec.phases) {
    const double expected =
        ExpectedArrivals(phase.arrival, phase.duration_ms);
    expected_total += expected;
    std::printf("  phase %-10s [%7.0fms, %7.0fms) %-8s rate=%.1f/s",
                phase.name.c_str(), start_ms,
                start_ms + phase.duration_ms,
                ArrivalProcessName(phase.arrival.process),
                phase.arrival.rate_per_s);
    if (phase.arrival.process == ArrivalProcess::kFlash) {
      std::printf(" x%.0f in [%.0fms, %.0fms)", phase.arrival.multiplier,
                  start_ms + phase.arrival.spike_start_ms,
                  start_ms + phase.arrival.spike_end_ms);
    }
    if (phase.arrival.process == ArrivalProcess::kDiurnal) {
      std::printf(" amp=%.2f period=%.0fms", phase.arrival.amplitude,
                  phase.arrival.period_ms);
    }
    std::printf(" expect ~%.0f queries\n", expected);
    start_ms += phase.duration_ms;
  }
  for (const ChurnWaveSpec& wave : spec.churn) {
    std::printf("  churn at %.0fms: %.0f%% of '%s' leave, %s\n", wave.at_ms,
                wave.fraction * 100, wave.target_class.c_str(),
                wave.down_for_ms > 0
                    ? ("back after " + std::to_string(
                           static_cast<long long>(wave.down_for_ms)) + "ms")
                          .c_str()
                    : "for good");
  }
  if (spec.fault.message_loss > 0) {
    std::printf("  fault: %.1f%% message loss", spec.fault.message_loss * 100);
    if (spec.node.query_deadline > 0) {
      std::printf(", %.0fms query deadline",
                  ToMillis(spec.node.query_deadline));
    }
    std::printf("\n");
  }
  std::printf("  total: %.0fms, ~%.0f queries expected\n", start_ms,
              expected_total);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: scnlint <spec.json> [<spec.json> ...]\n");
    return 2;
  }
  int failures = 0;
  for (int i = 1; i < argc; ++i) failures += LintOne(argv[i]);
  return failures > 0 ? 1 : 0;
}
