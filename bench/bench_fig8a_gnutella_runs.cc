// Regenerates Figure 8(a): BestPeer (BPR, names-only answers) vs
// Gnutella — completion time for each of 4 runs of the same query.
// 32 nodes, up to 8 direct peers each, 1000 text files per node, answers
// restricted to a few (far) nodes (paper §4.6).
//
// Paper shape: Gnutella is flat across runs (same search path every
// time); BP's first run is its slowest (it must route through the
// intermediate peers), subsequent runs drop sharply thanks to
// reconfiguration; BP outperforms Gnutella.

#include "bench/bench_common.h"

using namespace bestpeer;
using namespace bestpeer::bench;
using namespace bestpeer::workload;

int main() {
  PrintTitle(
      "Figure 8(a): BestPeer vs Gnutella — completion time (ms) per run "
      "of the same query (32 nodes, <= 8 peers, answers at 3 far nodes)");
  Rng rng(2002);
  Topology random = MakeRandom(32, 8, rng);
  auto placement = FarHotPlacement(random, 3, 10);

  BenchReport report("fig8a_gnutella_runs");
  ExperimentOptions bp = PaperOptions(random, Scheme::kBpr);
  bp.matches_per_node_vec = placement;
  // Names only, like Gnutella.
  bp.node.answer_mode = core::AnswerMode::kIndicate;
  bp.node.auto_fetch = false;
  auto bp_result = report.Run(bp);

  ExperimentOptions gnut = PaperOptions(random, Scheme::kGnutella);
  gnut.matches_per_node_vec = placement;
  auto gnut_result = report.Run(gnut);

  report.SetColumns({"run", "BP (ms)", "Gnutella (ms)"});
  PrintRowHeader({"run", "BP (ms)", "Gnutella (ms)"});
  for (size_t run = 0; run < bp_result.queries.size(); ++run) {
    PrintRow(std::to_string(run + 1),
             {bp_result.CompletionMs(run), gnut_result.CompletionMs(run)});
    report.AddRow(std::to_string(run + 1),
                  {bp_result.CompletionMs(run), gnut_result.CompletionMs(run)});
  }
  std::printf(
      "\nExpected shape: BP run 1 is its slowest, later runs much "
      "faster; Gnutella flat; BP below Gnutella.\n");
  return report.Close();
}
