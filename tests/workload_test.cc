#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "bench/bench_common.h"
#include "obs/json_reader.h"
#include "util/hash.h"
#include "util/strings.h"
#include "workload/corpus.h"
#include "workload/experiment.h"
#include "workload/topology.h"

namespace bestpeer::workload {
namespace {

// ---------------------------------------------------------------- topology

TEST(TopologyTest, Star) {
  Topology t = MakeStar(5);
  EXPECT_EQ(t.node_count, 5u);
  EXPECT_EQ(t.edges.size(), 4u);
  EXPECT_EQ(t.Degree(0), 4u);
  EXPECT_EQ(t.Degree(1), 1u);
  EXPECT_TRUE(t.Connected());
}

TEST(TopologyTest, Line) {
  Topology t = MakeLine(4);
  EXPECT_EQ(t.edges.size(), 3u);
  EXPECT_EQ(t.Degree(0), 1u);
  EXPECT_EQ(t.Degree(1), 2u);
  auto dist = t.Distances(0);
  EXPECT_EQ(dist[3], 3u);
  EXPECT_TRUE(t.Connected());
}

TEST(TopologyTest, TreeLevels) {
  EXPECT_EQ(TreeNodeCount(0, 3), 1u);
  EXPECT_EQ(TreeNodeCount(1, 3), 4u);
  EXPECT_EQ(TreeNodeCount(2, 3), 13u);
  EXPECT_EQ(TreeNodeCount(3, 2), 15u);
  Topology t = MakeTree(13, 3);
  EXPECT_TRUE(t.Connected());
  EXPECT_EQ(t.Degree(0), 3u);  // Root has fanout children.
  auto dist = t.Distances(0);
  size_t max_depth = 0;
  for (size_t d : dist) max_depth = std::max(max_depth, d);
  EXPECT_EQ(max_depth, 2u);
}

TEST(TopologyTest, PartialTreeLastLevel) {
  // 48 nodes with fanout 2 (the paper's level-5 tree uses 48 of 63).
  Topology t = MakeTree(48, 2);
  EXPECT_EQ(t.node_count, 48u);
  EXPECT_TRUE(t.Connected());
  auto dist = t.Distances(0);
  size_t max_depth = 0;
  for (size_t d : dist) max_depth = std::max(max_depth, d);
  EXPECT_EQ(max_depth, 5u);
}

TEST(TopologyTest, SingleNodeTopologies) {
  EXPECT_TRUE(MakeStar(1).Connected());
  EXPECT_TRUE(MakeLine(1).Connected());
  EXPECT_TRUE(MakeTree(1, 2).Connected());
  EXPECT_EQ(MakeStar(1).edges.size(), 0u);
}

class RandomTopologyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomTopologyTest, ConnectedAndDegreeBounded) {
  Rng rng(GetParam());
  for (size_t n : {2, 8, 32}) {
    for (size_t deg : {2, 4, 8}) {
      Topology t = MakeRandom(n, deg, rng);
      EXPECT_TRUE(t.Connected()) << "n=" << n << " deg=" << deg;
      // Soft cap: spanning edges may exceed it by a small constant.
      for (size_t i = 0; i < n; ++i) {
        EXPECT_LE(t.Degree(i), deg + 2) << "n=" << n << " deg=" << deg;
      }
      // No self loops or duplicate edges.
      std::set<std::pair<size_t, size_t>> seen;
      for (auto e : t.edges) {
        EXPECT_NE(e.first, e.second);
        EXPECT_TRUE(seen.insert(e).second);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTopologyTest,
                         ::testing::Values(1, 2, 3, 4, 5));

// ---------------------------------------------------------------- corpus

TEST(CorpusTest, MatchingObjectsContainNeedle) {
  CorpusGenerator corpus({1024, 500, 0.8}, 7);
  for (int i = 0; i < 20; ++i) {
    Bytes match = corpus.MakeObject(true);
    EXPECT_EQ(match.size(), 1024u);
    EXPECT_TRUE(ContainsKeyword(ToString(match), CorpusGenerator::kNeedle));
    Bytes plain = corpus.MakeObject(false);
    EXPECT_FALSE(ContainsKeyword(ToString(plain), CorpusGenerator::kNeedle));
  }
}

TEST(CorpusTest, FileNamesFollowMatchFlag) {
  CorpusGenerator corpus({1024, 500, 0.8}, 7);
  EXPECT_TRUE(ContainsKeyword(corpus.MakeFileName(true, 0),
                              CorpusGenerator::kNeedle));
  EXPECT_FALSE(ContainsKeyword(corpus.MakeFileName(false, 0),
                               CorpusGenerator::kNeedle));
}

TEST(CorpusTest, DeterministicPerSeed) {
  CorpusGenerator a({256, 100, 0.8}, 42);
  CorpusGenerator b({256, 100, 0.8}, 42);
  EXPECT_EQ(a.MakeObject(false), b.MakeObject(false));
}

// Digests of every corpus API's output. Every committed bench baseline
// is built from these corpora, so a speed-up of the generator must keep
// its bytes and its order of random draws; any change to either fails
// here.
TEST(CorpusTest, GoldenDigests) {
  struct Golden {
    CorpusOptions options;
    uint64_t objects;  // MakeObject(match)
    uint64_t pooled;   // MakeObject(match, tokens)
    uint64_t names;    // MakeFileName
    uint64_t words;    // RandomWord
  };
  const std::vector<Golden> goldens = {
      {{1024, 500, 0.8}, 0x89CE0F756FDF7BBEULL, 0x2BA67B1700540751ULL,
       0xDD14A28CF54A1808ULL, 0x4A7F58A7296D6EA2ULL},
      {{512, 300, 0.8}, 0x8BBFF563675A98A9ULL, 0x0FC2FDA7A65FE3B7ULL,
       0x4BEABEB5D8E9EF0CULL, 0x05CBBC58B8972FA2ULL},
      {{0, 500, 0.8}, 0xB5046A364DF47125ULL, 0xB5046A364DF47125ULL,
       0xDD14A28CF54A1808ULL, 0x4A7F58A7296D6EA2ULL},
      {{1, 500, 0.8}, 0xAA3DC93727A279A4ULL, 0x875A3347F8325271ULL,
       0xDD14A28CF54A1808ULL, 0x4A7F58A7296D6EA2ULL},
      {{5, 500, 0.8}, 0x23D7B582A2CE9576ULL, 0xDC5C1BF6BA528211ULL,
       0xDD14A28CF54A1808ULL, 0x4A7F58A7296D6EA2ULL},
      {{4096, 500, 0.8}, 0xFBF0C20757D7FE6FULL, 0xDEEF896659E4929AULL,
       0xDD14A28CF54A1808ULL, 0x4A7F58A7296D6EA2ULL},
  };
  const std::vector<std::string> tokens = {"needle0", "needle5", "needle12"};
  for (const Golden& g : goldens) {
    SCOPED_TRACE("object_size " + std::to_string(g.options.object_size) +
                 " vocabulary " + std::to_string(g.options.vocabulary));
    std::string objects, pooled, names, words;
    CorpusGenerator a(g.options, 11);
    for (size_t i = 0; i < 64; ++i) {
      objects += ToString(a.MakeObject(i % 5 == 0)) + "\n";
    }
    CorpusGenerator b(g.options, 11);
    for (size_t i = 0; i < 64; ++i) {
      pooled += ToString(b.MakeObject(i % 3 == 0, tokens)) + "\n";
    }
    CorpusGenerator c(g.options, 11);
    for (size_t i = 0; i < 200; ++i) {
      names += c.MakeFileName(i % 4 == 0, i) + "\n";
    }
    CorpusGenerator d(g.options, 11);
    for (size_t i = 0; i < 2000; ++i) words += d.RandomWord() + "\n";
    EXPECT_EQ(Fnv1a64(objects), g.objects);
    EXPECT_EQ(Fnv1a64(pooled), g.pooled);
    EXPECT_EQ(Fnv1a64(names), g.names);
    EXPECT_EQ(Fnv1a64(words), g.words);
  }
}

// ---------------------------------------------------------------- placement

TEST(PlacementTest, FarHotPlacementPicksDistantNodes) {
  Topology line = MakeLine(6);
  auto matches = FarHotPlacement(line, 2, 10);
  ASSERT_EQ(matches.size(), 6u);
  EXPECT_EQ(matches[5], 10u);
  EXPECT_EQ(matches[4], 10u);
  EXPECT_EQ(matches[0], 0u);  // Base never holds answers.
  size_t total = 0;
  for (size_t m : matches) total += m;
  EXPECT_EQ(total, 20u);
}

// ---------------------------------------------------------------- runner

TEST(ExperimentTest, SmallBestPeerRun) {
  ExperimentOptions options;
  options.topology = MakeLine(4);
  options.scheme = Scheme::kBpr;
  options.objects_per_node = 50;
  options.matches_per_node = 2;
  options.queries = 2;
  options.node.max_direct_peers = 2;
  auto result = RunExperiment(options).value();
  ASSERT_EQ(result.queries.size(), 2u);
  // 3 non-base nodes x 2 matches.
  EXPECT_EQ(result.queries[0].total_answers, 6u);
  EXPECT_GT(result.queries[0].completion, 0);
  // Reconfiguration strictly helps on a line.
  EXPECT_LT(result.queries[1].completion, result.queries[0].completion);
}

TEST(ExperimentTest, SmallCsRun) {
  ExperimentOptions options;
  options.topology = MakeStar(4);
  options.scheme = Scheme::kMcs;
  options.objects_per_node = 50;
  options.matches_per_node = 3;
  options.queries = 1;
  auto result = RunExperiment(options).value();
  EXPECT_EQ(result.queries[0].total_answers, 9u);
  EXPECT_EQ(result.queries[0].responders, 3u);
}

TEST(ExperimentTest, SmallGnutellaRun) {
  ExperimentOptions options;
  options.topology = MakeLine(4);
  options.scheme = Scheme::kGnutella;
  options.files_per_node = 50;
  options.matches_per_node = 2;
  options.queries = 2;
  auto result = RunExperiment(options).value();
  EXPECT_EQ(result.queries[0].total_answers, 6u);
  // Gnutella never reconfigures: identical repeated runs.
  EXPECT_EQ(result.queries[0].completion, result.queries[1].completion);
}

TEST(ExperimentTest, PlacementVectorControlsAnswers) {
  ExperimentOptions options;
  options.topology = MakeLine(4);
  options.scheme = Scheme::kBps;
  options.objects_per_node = 30;
  options.matches_per_node_vec = {0, 0, 0, 5};
  options.queries = 1;
  auto result = RunExperiment(options).value();
  EXPECT_EQ(result.queries[0].total_answers, 5u);
  EXPECT_EQ(result.queries[0].responders, 1u);
}

TEST(ExperimentTest, ValidatesPlacementSize) {
  ExperimentOptions options;
  options.topology = MakeLine(3);
  options.matches_per_node_vec = {1, 2};  // Wrong length.
  EXPECT_FALSE(RunExperiment(options).ok());
}

TEST(ExperimentTest, DeterministicAcrossRuns) {
  ExperimentOptions options;
  options.topology = MakeTree(7, 2);
  options.scheme = Scheme::kBpr;
  options.objects_per_node = 30;
  options.matches_per_node = 1;
  options.queries = 2;
  auto r1 = RunExperiment(options).value();
  auto r2 = RunExperiment(options).value();
  ASSERT_EQ(r1.queries.size(), r2.queries.size());
  for (size_t i = 0; i < r1.queries.size(); ++i) {
    EXPECT_EQ(r1.queries[i].completion, r2.queries[i].completion);
    EXPECT_EQ(r1.queries[i].total_answers, r2.queries[i].total_answers);
  }
}

TEST(ExperimentTest, NodeConfigReachesEveryNode) {
  // per_object_match_cost is a BestPeerConfig field ExperimentOptions
  // never mirrored: doubling it must slow every scan without changing
  // what is found.
  ExperimentOptions options;
  options.topology = MakeStar(5);
  options.scheme = Scheme::kBps;
  options.objects_per_node = 50;
  options.matches_per_node = 2;
  options.queries = 2;
  ExperimentOptions slow = options;
  slow.node.per_object_match_cost = 2 * options.node.per_object_match_cost;
  auto base = RunExperiment(options).value();
  auto slowed = RunExperiment(slow).value();
  EXPECT_GT(slowed.MeanCompletionMs(), base.MeanCompletionMs());
  EXPECT_EQ(slowed.TotalAnswers(), base.TotalAnswers());
  EXPECT_EQ(base.TotalAnswers(), 2u * 4u * 2u);  // queries x peers x matches
}

TEST(ExperimentTest, AveragedWireBytesReportAsSeedTotal) {
  // RunAveraged keeps wire_bytes as a per-seed mean, but its metrics are
  // summed over seeds; a report's summary.wire_bytes must be the total,
  // like its net_messages and metrics block.
  ExperimentOptions options;
  options.topology = MakeStar(4);
  options.scheme = Scheme::kBps;
  options.objects_per_node = 20;
  options.matches_per_node = 1;
  options.queries = 2;
  const std::vector<uint64_t> seeds = {1, 2, 3};
  uint64_t total = 0;
  for (uint64_t seed : seeds) {
    options.seed = seed;
    total += RunExperiment(options).value().wire_bytes;
  }
  ASSERT_GT(total, 0u);
  ExperimentResult averaged = RunAveraged(options, seeds).value();
  EXPECT_EQ(averaged.wire_bytes, total / seeds.size());

  const std::string dir = ::testing::TempDir();
  ASSERT_EQ(setenv("BP_BENCH_OUT_DIR", dir.c_str(), 1), 0);
  {
    bench::BenchReport report("wire_total_test");
    report.Absorb(averaged.metrics);
    ASSERT_EQ(report.Close(), 0);
  }
  unsetenv("BP_BENCH_OUT_DIR");
  const std::string path = dir + "/BENCH_wire_total_test.json";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  std::stringstream text;
  text << in.rdbuf();
  std::remove(path.c_str());
  obs::JsonValue json = obs::ParseJson(text.str()).value();
  const obs::JsonValue* summary = json.Find("summary");
  ASSERT_NE(summary, nullptr);
  const obs::JsonValue* wire = summary->Find("wire_bytes");
  ASSERT_NE(wire, nullptr);
  EXPECT_EQ(wire->AsNumber(), static_cast<double>(total));
  EXPECT_EQ(json.Find("metrics")->Find("net.wire_bytes")->AsNumber(),
            static_cast<double>(total));
}

TEST(ExperimentTest, AveragedRunsMerge) {
  ExperimentOptions options;
  options.topology = MakeLine(3);
  options.scheme = Scheme::kMcs;
  options.objects_per_node = 20;
  options.matches_per_node = 1;
  options.queries = 1;
  auto avg = RunAveraged(options, {1, 2, 3}).value();
  ASSERT_EQ(avg.queries.size(), 1u);
  EXPECT_EQ(avg.queries[0].total_answers, 2u);
  EXPECT_GT(avg.queries[0].completion, 0);
}

}  // namespace
}  // namespace bestpeer::workload
