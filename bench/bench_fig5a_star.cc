// Regenerates Figure 5(a): completion time vs number of nodes on the
// Star topology for SCS, MCS, BPS and BPR (paper §4.3).
//
// Paper shape: SCS degrades sharply with network size (one connection at
// a time); MCS and BP-based schemes stay close, with MCS slightly ahead
// (no code-shipping overhead); BPS == BPR on a star.

#include "bench/bench_common.h"

using namespace bestpeer;
using namespace bestpeer::bench;
using namespace bestpeer::workload;

int main() {
  PrintTitle(
      "Figure 5(a): Star topology — completion time (ms) vs number of "
      "nodes");
  const std::vector<size_t> sizes = {2, 4, 8, 16, 24, 32};
  const std::vector<Scheme> schemes = {Scheme::kScs, Scheme::kMcs,
                                       Scheme::kBps, Scheme::kBpr};
  BenchReport report("fig5a_star");
  std::vector<std::string> header = {"nodes"};
  for (auto s : schemes) header.push_back(SchemeName(s));
  report.SetColumns(header);
  PrintRowHeader(header);
  for (size_t n : sizes) {
    std::vector<double> row;
    for (Scheme scheme : schemes) {
      auto options = SearchPhaseOptions(MakeStar(n), scheme);
      // On a star every node is directly connected to the base; the
      // base's peer capacity covers the whole network (paper Fig. 4(a)).
      options.node.max_direct_peers = n;
      auto result = report.Run(options);
      row.push_back(result.MeanCompletionMs());
    }
    PrintRow(std::to_string(n), row);
    report.AddRow(std::to_string(n), row);
  }
  std::printf(
      "\nExpected shape: SCS grows linearly and is worst; MCS <= BPS ~= "
      "BPR.\n");
  return report.Close();
}
