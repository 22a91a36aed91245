#include <gtest/gtest.h>

#include "workload/experiment.h"
#include "workload/topology.h"

namespace bestpeer::workload {
namespace {

/// Integration tests asserting the *shape* of the paper's evaluation
/// (Section 4): who wins on which topology, and why. These are the
/// invariants the benchmark harness then reports quantitatively.

ExperimentOptions Base(Topology topology, Scheme scheme) {
  ExperimentOptions o;
  o.topology = std::move(topology);
  o.scheme = scheme;
  o.objects_per_node = 200;  // Scaled-down store, same cost model.
  o.matches_per_node = 5;
  o.queries = 4;
  o.node.max_direct_peers = 8;
  return o;
}

double MeanMs(const ExperimentOptions& o) {
  return RunExperiment(o).value().MeanCompletionMs();
}

// Fig. 5(a): on Star, SCS is by far the worst; MCS is slightly better
// than BP (no code-shipping overhead); BPS == BPR.
TEST(Figure5Shape, StarScsWorstMcsBest) {
  Topology star = MakeStar(16);
  double scs = MeanMs(Base(star, Scheme::kScs));
  double mcs = MeanMs(Base(star, Scheme::kMcs));
  double bps = MeanMs(Base(star, Scheme::kBps));
  double bpr = MeanMs(Base(star, Scheme::kBpr));
  EXPECT_GT(scs, 2 * mcs) << "SCS must degrade badly on a star";
  EXPECT_LT(mcs, bps) << "plain queries beat code shipping on a star";
  EXPECT_NEAR(bps, bpr, bps * 0.25)
      << "reconfiguration cannot help on a star";
}

// Fig. 5(b): on a deep tree, CS degenerates (path-relayed answers) while
// BP returns answers out-of-network; BPR beats BPS.
TEST(Figure5Shape, DeepTreeBpBeatsCs) {
  Topology tree = MakeTree(31, 2);  // 4 levels deep.
  double cs = MeanMs(Base(tree, Scheme::kMcs));
  double bps = MeanMs(Base(tree, Scheme::kBps));
  double bpr = MeanMs(Base(tree, Scheme::kBpr));
  EXPECT_GT(cs, bps) << "CS must degrade with depth";
  EXPECT_LT(bpr, bps) << "reconfiguration must pay off on a tree";
}

// Fig. 5(b) level 1: a flat tree is a star, where CS wins.
TEST(Figure5Shape, ShallowTreeCsWins) {
  Topology tree = MakeTree(9, 8);  // Root + 8 children = 1 level.
  double cs = MeanMs(Base(tree, Scheme::kMcs));
  double bps = MeanMs(Base(tree, Scheme::kBps));
  EXPECT_LT(cs, bps);
}

// Fig. 5(c): on a line, BPR is the best overall.
TEST(Figure5Shape, LineBprBest) {
  Topology line = MakeLine(16);
  double cs = MeanMs(Base(line, Scheme::kMcs));
  double bps = MeanMs(Base(line, Scheme::kBps));
  double bpr = MeanMs(Base(line, Scheme::kBpr));
  EXPECT_LT(bpr, bps);
  EXPECT_LT(bpr, cs);
}

// Fig. 6/7: CS returns its first answers sooner (no code shipping), but
// BP finishes collecting all answers earlier on a deep topology.
TEST(Figure6And7Shape, CsFastStartBpFastFinish) {
  Topology tree = MakeTree(31, 2);
  auto cs = RunExperiment(Base(tree, Scheme::kMcs)).value();
  auto bpr = RunExperiment(Base(tree, Scheme::kBpr)).value();
  ASSERT_FALSE(cs.queries[0].responses.empty());
  ASSERT_FALSE(bpr.queries[0].responses.empty());
  SimTime cs_first = cs.queries[0].responses.front().time;
  SimTime bpr_first = bpr.queries[0].responses.front().time;
  EXPECT_LT(cs_first, bpr_first)
      << "CS first answers arrive before agent-based answers";
  EXPECT_LT(bpr.queries.back().completion, cs.queries.back().completion)
      << "BP must finish collecting all answers first";
}

// Fig. 8(a): BP's first run is its slowest; subsequent runs are much
// faster thanks to reconfiguration; Gnutella is flat across runs and
// slower than reconfigured BP.
TEST(Figure8Shape, BpLearnsGnutellaDoesNot) {
  Rng rng(7);
  Topology random = MakeRandom(24, 8, rng);
  auto matches = FarHotPlacement(random, 3, 10);

  ExperimentOptions bp = Base(random, Scheme::kBpr);
  bp.matches_per_node_vec = matches;
  bp.node.answer_mode = core::AnswerMode::kIndicate;  // Names only, like Fig 8.
  bp.node.auto_fetch = false;
  auto bp_result = RunExperiment(bp).value();

  ExperimentOptions gnut = Base(random, Scheme::kGnutella);
  gnut.matches_per_node_vec = matches;
  gnut.files_per_node = 200;
  auto gnut_result = RunExperiment(gnut).value();

  // Every scheme found all the answers.
  EXPECT_EQ(bp_result.queries[0].total_answers, 30u);
  EXPECT_EQ(gnut_result.queries[0].total_answers, 30u);

  // BP: first run slowest, later runs much faster.
  EXPECT_GT(bp_result.queries[0].completion,
            bp_result.queries[1].completion);
  EXPECT_LT(bp_result.queries[3].completion,
            bp_result.queries[0].completion);

  // Gnutella: flat across runs.
  EXPECT_EQ(gnut_result.queries[0].completion,
            gnut_result.queries[3].completion);

  // Reconfigured BP beats Gnutella.
  EXPECT_LT(bp_result.queries[3].completion,
            gnut_result.queries[3].completion);
}

// BPR must never lose answers relative to BPS (recall preserved).
TEST(ReconfigurationSafety, AnswersPreservedAcrossRuns) {
  Topology tree = MakeTree(15, 2);
  auto bpr = RunExperiment(Base(tree, Scheme::kBpr)).value();
  size_t expected = 14u * 5u;
  for (const auto& q : bpr.queries) {
    EXPECT_EQ(q.total_answers, expected)
        << "reconfiguration lost answers";
  }
}

// MinHops is a valid strategy too: answers preserved, completion helped.
TEST(ReconfigurationSafety, MinHopsWorks) {
  ExperimentOptions o = Base(MakeLine(12), Scheme::kBpr);
  o.node.strategy = "minhops";
  auto result = RunExperiment(o).value();
  for (const auto& q : result.queries) {
    EXPECT_EQ(q.total_answers, 11u * 5u);
  }
  EXPECT_LE(result.queries.back().completion,
            result.queries.front().completion);
}

}  // namespace
}  // namespace bestpeer::workload
