// Regenerates Figure 8(b): BestPeer vs Gnutella — completion time
// (averaged over 4 runs of the query) as the number of direct peers per
// node grows (paper §4.6).
//
// Paper shape: both improve with more peers; BP remains superior
// because Gnutella traverses the same path every time and returns the
// file lists along the query path.

#include "bench/bench_common.h"

using namespace bestpeer;
using namespace bestpeer::bench;
using namespace bestpeer::workload;

int main() {
  PrintTitle(
      "Figure 8(b): BestPeer vs Gnutella — mean completion time (ms) vs "
      "number of direct peers (32 nodes, answers at 3 far nodes)");
  BenchReport report("fig8b_gnutella_peers");
  report.SetColumns({"peers", "BP (ms)", "Gnutella (ms)"});
  PrintRowHeader({"peers", "BP (ms)", "Gnutella (ms)"});
  for (size_t peers = 2; peers <= 8; ++peers) {
    Rng rng(1000 + peers);
    Topology random = MakeRandom(32, peers, rng);
    auto placement = FarHotPlacement(random, 3, 10);

    ExperimentOptions bp = PaperOptions(random, Scheme::kBpr);
    bp.node.max_direct_peers = peers;
    bp.matches_per_node_vec = placement;
    bp.node.answer_mode = core::AnswerMode::kIndicate;
    bp.node.auto_fetch = false;
    auto bp_result = report.Run(bp);

    ExperimentOptions gnut = PaperOptions(random, Scheme::kGnutella);
    gnut.matches_per_node_vec = placement;
    auto gnut_result = report.Run(gnut);

    PrintRow(std::to_string(peers),
             {bp_result.MeanCompletionMs(), gnut_result.MeanCompletionMs()});
    report.AddRow(std::to_string(peers), {bp_result.MeanCompletionMs(),
                                          gnut_result.MeanCompletionMs()});
  }
  std::printf(
      "\nExpected shape: both improve with more peers; BP stays below "
      "Gnutella.\n");
  return report.Close();
}
