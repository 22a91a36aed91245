// Index-backed search benchmark. Arm A is a single paper-scale StorM
// store (1000 x 1 KB objects, 10 matches): the same needle query answered
// by the full scan (charged 15 us per object examined) and by the keyword
// index (charged 1 us per posting touched), reporting the modeled-cost
// speedup. Arm B is a 9-node star fleet where only two peers hold
// answers, run scan / index / index+summaries at the same seed: the
// index cuts responder CPU, and content summaries additionally stop the
// base from launching agents toward provably-empty peers — fewer agent
// executions and fewer wire bytes at identical recall.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/config.h"
#include "storm/storm.h"
#include "workload/corpus.h"

using namespace bestpeer;
using namespace bestpeer::bench;

namespace {

/// Arm A: one store, one query, two cost models.
void RunSingleStoreArm(BenchReport& report) {
  const BenchScale scale = Scale();
  const size_t kMatches = 10;
  const SimTime kPerObjectCost = Micros(15);  // BestPeerConfig default.
  const SimTime kPerPostingCost = Micros(1);

  storm::StormOptions options;
  options.buffer_frames = 128;
  auto storm = storm::Storm::Open(options).value();
  workload::CorpusGenerator corpus({1024, 500, 0.8}, 7);
  for (size_t i = 0; i < scale.objects_per_node; ++i) {
    storm->Put(i, corpus.MakeObject(i < kMatches)).ok();
  }

  auto scan = storm->ScanSearch(workload::CorpusGenerator::kNeedle).value();
  size_t postings_touched = 0;
  auto indexed =
      storm->IndexSearch(workload::CorpusGenerator::kNeedle,
                         &postings_touched)
          .value();

  const double scan_us =
      ToMillis(static_cast<SimTime>(scan.objects_scanned) * kPerObjectCost) *
      1000.0;
  const double index_us =
      ToMillis(static_cast<SimTime>(postings_touched) * kPerPostingCost) *
      1000.0;
  const double speedup = index_us == 0 ? 0 : scan_us / index_us;

  PrintTitle("Arm A: single store, " +
             std::to_string(scale.objects_per_node) +
             " x 1 KB objects, one needle query");
  const std::vector<std::string> columns = {"arm", "touched", "matches",
                                            "cost us", "speedup", "cost ms"};
  PrintRowHeader(columns);
  // Store rows reuse the report's 5-value schema; the last slot (mean ms
  // in the fleet arm) is the modeled cost in ms here.
  std::vector<double> scan_row = {static_cast<double>(scan.objects_scanned),
                                  static_cast<double>(scan.matches.size()),
                                  scan_us, 1.0, scan_us / 1000.0};
  std::vector<double> index_row = {static_cast<double>(postings_touched),
                                   static_cast<double>(indexed.size()),
                                   index_us, speedup, index_us / 1000.0};
  PrintRow("scan", scan_row);
  PrintRow("index", index_row);
  report.AddRow("store-scan", scan_row);
  report.AddRow("store-index", index_row);

  std::printf(
      "\nExpected: the scan touches every object; the index touches a few "
      "postings per query term, a >= 10x modeled-cost drop at paper "
      "scale.\n");
}

/// Arm B: star fleet where answers live at two of eight peers.
workload::ExperimentOptions FleetWorkload() {
  workload::ExperimentOptions o =
      SearchPhaseOptions(workload::MakeStar(9), workload::Scheme::kBps);
  // Only peers 2 and 3 hold answers; the other six peers (and the base)
  // are chaff a summary can prove empty.
  o.matches_per_node_vec.assign(o.topology.node_count, 0);
  o.matches_per_node_vec[2] = 10;
  o.matches_per_node_vec[3] = 10;
  // Enough repetitions that the one-time summary exchange amortizes: the
  // per-query saving is the agents *not* shipped to provably-empty peers.
  o.queries = 32;
  o.seed = 1;
  return o;
}

struct FleetOutcome {
  double wire_kb = 0;
  double agents = 0;
  double skips = 0;
  double answers = 0;
  double mean_ms = 0;
};

FleetOutcome Summarize(const workload::ExperimentResult& result) {
  FleetOutcome out;
  out.wire_kb = static_cast<double>(result.wire_bytes) / 1024.0;
  out.agents = result.metrics.Value("agent.executed");
  out.skips = result.metrics.Value("core.summary_skips");
  out.answers = static_cast<double>(result.TotalAnswers());
  out.mean_ms = result.MeanCompletionMs();
  return out;
}

void RunFleetArm(BenchReport& report) {
  PrintTitle(
      "Arm B: 9-node star, answers at 2 peers only — scan vs index vs "
      "index+summaries");
  const std::vector<std::string> columns = {"arm",   "wire KB", "agents",
                                            "skips", "answers", "mean ms"};
  PrintRowHeader(columns);

  workload::ExperimentOptions scan = FleetWorkload();
  workload::ExperimentOptions index = scan;
  index.node.use_index_search = true;
  workload::ExperimentOptions pruned = index;
  pruned.node.enable_content_summaries = true;

  for (const auto& [label, options] :
       std::initializer_list<
           std::pair<const char*, const workload::ExperimentOptions*>>{
           {"scan", &scan}, {"index", &index}, {"index+summ", &pruned}}) {
    FleetOutcome out = Summarize(report.Run(*options));
    std::vector<double> values = {out.wire_kb, out.agents, out.skips,
                                  out.answers, out.mean_ms};
    PrintRow(label, values);
    report.AddRow(label, values);
  }

  std::printf(
      "\nExpected: index matches scan's answers with lower completion "
      "time (cheaper responder CPU); summaries additionally skip the six "
      "provably-empty peers, cutting agent executions and wire bytes at "
      "identical recall.\n");
}

}  // namespace

int main() {
  BenchReport report("index_search");
  // Shared 5-value schema: store rows are (touched, matches, cost us,
  // speedup, cost ms); fleet rows are (wire KB, agents, skips, answers,
  // mean ms). EXPERIMENTS.md documents the mapping.
  report.SetColumns(
      {"arm", "touched|wireKB", "matches|agents", "cost_us|skips",
       "speedup|answers", "cost_ms|mean_ms"});
  RunSingleStoreArm(report);
  RunFleetArm(report);
  return report.Close();
}
