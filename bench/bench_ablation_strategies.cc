// Ablation: the two reconfiguration strategies of §3.3 (MaxCount,
// MinHops) against no reconfiguration, on tree and line overlays.
// Reports per-run completion so the learning effect is visible.

#include "bench/bench_common.h"

using namespace bestpeer;
using namespace bestpeer::bench;
using namespace bestpeer::workload;

namespace {

void RunCase(const std::string& label, Topology topology) {
  PrintTitle("Reconfiguration strategies on " + label +
             " — completion time (ms) per run");
  PrintRowHeader({"strategy", "run 1", "run 2", "run 3", "run 4"});
  for (const char* strategy : {"none", "maxcount", "minhops", "fastest"}) {
    ExperimentOptions o = PaperOptions(topology, Scheme::kBpr);
    o.node.strategy = strategy;
    if (std::string(strategy) == "none") o.scheme = Scheme::kBps;
    auto result = MustRun(o);
    std::vector<double> row;
    for (size_t run = 0; run < result.queries.size(); ++run) {
      row.push_back(result.CompletionMs(run));
    }
    PrintRow(strategy, row);
  }
}

}  // namespace

int main() {
  RunCase("tree (31 nodes, fanout 2)", MakeTree(31, 2));
  RunCase("line (16 nodes)", MakeLine(16));
  // Sparse answers far from the base: where the strategies differ most.
  Topology line = MakeLine(16);
  PrintTitle(
      "Strategies with answers only at the 3 farthest nodes (line 16)");
  PrintRowHeader({"strategy", "run 1", "run 2", "run 3", "run 4"});
  for (const char* strategy : {"none", "maxcount", "minhops", "fastest"}) {
    ExperimentOptions o = PaperOptions(line, Scheme::kBpr);
    o.node.strategy = strategy;
    if (std::string(strategy) == "none") o.scheme = Scheme::kBps;
    o.matches_per_node_vec = FarHotPlacement(line, 3, 10);
    auto result = MustRun(o);
    std::vector<double> row;
    for (size_t run = 0; run < result.queries.size(); ++run) {
      row.push_back(result.CompletionMs(run));
    }
    PrintRow(strategy, row);
  }
  std::printf(
      "\nExpected: both strategies beat 'none' after run 1; MinHops "
      "pulls far answerers close, MaxCount favours heavy answerers.\n");
  return 0;
}
