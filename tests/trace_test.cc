#include "util/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>

#include "workload/experiment.h"
#include "workload/topology.h"

namespace bestpeer::workload {
namespace {

/// Small star-topology BestPeer experiment with tracing on: one base, three
/// leaves, each leaf holding matches, the query issued twice.
ExperimentOptions TracedStar() {
  ExperimentOptions o;
  o.topology = MakeStar(4);
  o.scheme = Scheme::kBps;
  o.objects_per_node = 20;
  o.object_size = 256;
  o.matches_per_node = 2;
  o.queries = 2;
  o.node.max_direct_peers = 4;
  o.node.default_ttl = 4;
  o.obs.trace = true;
  return o;
}

TEST(TraceE2eTest, TracingOffByDefault) {
  ExperimentOptions options = TracedStar();
  options.obs.trace = false;
  auto result = RunExperiment(options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().trace, nullptr);
}

TEST(TraceE2eTest, StarQueryProducesNestedSpans) {
  auto result = RunExperiment(TracedStar());
  ASSERT_TRUE(result.ok());
  const auto& run = result.value();
  ASSERT_NE(run.trace, nullptr);
  const auto spans = run.trace->Spans();
  ASSERT_FALSE(spans.empty());

  // One top-level "query" span per issued query.
  std::vector<const trace::Span*> queries;
  for (const auto& s : spans) {
    if (s.cat == "query") queries.push_back(&s);
  }
  ASSERT_EQ(queries.size(), 2u);

  for (const trace::Span* query : queries) {
    ASSERT_NE(query->flow, 0u);
    // The query's agent migrated to the leaves: at least one wire span
    // and one remote execution (scan) carry the query's flow id.
    std::vector<const trace::Span*> migrations, scans;
    for (const auto& s : spans) {
      if (s.flow != query->flow) continue;
      if (s.name == "agent.migrate" && s.cat == "net") migrations.push_back(&s);
      if (s.name == "agent.execute" && s.cat == "cpu") scans.push_back(&s);
    }
    EXPECT_GE(migrations.size(), 3u);  // Base fans out to 3 leaves.
    ASSERT_FALSE(scans.empty());

    // Nesting: migrations start at/after the query launch, and every
    // remote scan starts only after a migration delivered the agent to
    // that node.
    for (const trace::Span* m : migrations) {
      EXPECT_GE(m->ts, query->ts);
    }
    for (const trace::Span* scan : scans) {
      auto carried = std::find_if(
          migrations.begin(), migrations.end(), [&](const trace::Span* m) {
            return m->tid == scan->tid && m->ts + m->dur <= scan->ts;
          });
      EXPECT_NE(carried, migrations.end())
          << "scan on node " << scan->tid << " has no preceding migration";
    }
    // Answers returned to the base within the measured query window.
    bool answer_seen = false;
    for (const auto& s : spans) {
      if (s.flow == query->flow && s.cat == "net" && s.name == "search.result") {
        answer_seen = true;
        EXPECT_LE(s.ts + s.dur, query->ts + query->dur);
      }
    }
    EXPECT_TRUE(answer_seen);
  }
}

TEST(TraceE2eTest, NetSpansAccountForAllWireBytes) {
  auto result = RunExperiment(TracedStar());
  ASSERT_TRUE(result.ok());
  const auto& run = result.value();
  ASSERT_NE(run.trace, nullptr);
  uint64_t traced_wire = 0;
  for (const auto& s : run.trace->Spans()) {
    if (s.cat != "net") continue;
    for (const auto& [key, value] : s.args) {
      if (key == "wire") traced_wire += value;
    }
  }
  // Every sent message produced exactly one wire span (delivered or
  // dropped), so the spans account for 100% of the wire bytes.
  EXPECT_EQ(traced_wire, run.wire_bytes);
}

TEST(TraceE2eTest, ChromeJsonExportIsLoadable) {
  auto result = RunExperiment(TracedStar());
  ASSERT_TRUE(result.ok());
  ASSERT_NE(result.value().trace, nullptr);
  const std::string json = result.value().trace->ToChromeJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"agent.migrate\""), std::string::npos);
  EXPECT_NE(json.find("\"query\""), std::string::npos);
  // Balanced JSON delimiters (cheap well-formedness check).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));

  const std::string path = ::testing::TempDir() + "bp_trace_test.json";
  ASSERT_TRUE(result.value().trace->WriteChromeJson(path).ok());
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
  std::remove(path.c_str());

  const std::string flat = result.value().trace->ToFlatText();
  EXPECT_NE(flat.find("agent.migrate"), std::string::npos);
}

trace::Span MakeSpan(uint64_t seq) {
  trace::Span s;
  s.name = "s" + std::to_string(seq);
  s.cat = "cpu";
  s.tid = 1;
  s.ts = static_cast<SimTime>(seq);
  s.dur = 1;
  s.flow = seq;
  return s;
}

TEST(TraceRecorderTest, RingOverwritesOldestAndCountsDrops) {
  trace::TraceRecorderOptions options;
  options.ring_capacity = 4;
  trace::TraceRecorder rec(options);
  for (uint64_t i = 0; i < 10; ++i) rec.RecordSpan(MakeSpan(i));

  EXPECT_EQ(rec.capacity(), 4u);
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.recorded(), 10u);
  EXPECT_EQ(rec.spans_dropped(), 6u);

  // The ring holds the newest four spans, oldest first, and every
  // export path sees the same order.
  const auto spans = rec.Spans();
  ASSERT_EQ(spans.size(), 4u);
  for (uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(spans[i].name, "s" + std::to_string(6 + i));
  }
  std::vector<std::string> visited;
  rec.ForEachSpan([&](const trace::Span& s) { visited.push_back(s.name); });
  EXPECT_EQ(visited, (std::vector<std::string>{"s6", "s7", "s8", "s9"}));
  const std::string flat = rec.ToFlatText();
  EXPECT_EQ(flat.find("s5"), std::string::npos);
  EXPECT_LT(flat.find("s6"), flat.find("s9"));
}

TEST(TraceRecorderTest, SpansSinceActsAsDrainCursor) {
  trace::TraceRecorderOptions options;
  options.ring_capacity = 8;
  trace::TraceRecorder rec(options);
  for (uint64_t i = 0; i < 3; ++i) rec.RecordSpan(MakeSpan(i));

  uint64_t cursor = 0;
  auto batch = rec.SpansSince(cursor, &cursor);
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(cursor, 3u);

  // Nothing new: empty batch, cursor unchanged.
  batch = rec.SpansSince(cursor, &cursor);
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(cursor, 3u);

  // Overflow past the cursor: spans that fell out of the ring are
  // silently absent, the cursor still lands at recorded().
  for (uint64_t i = 3; i < 15; ++i) rec.RecordSpan(MakeSpan(i));
  batch = rec.SpansSince(cursor, &cursor);
  ASSERT_EQ(batch.size(), 8u);  // Ring capacity, not 12.
  EXPECT_EQ(batch.front().name, "s7");
  EXPECT_EQ(batch.back().name, "s14");
  EXPECT_EQ(cursor, 15u);
}

TEST(TraceRecorderTest, SamplingIsDeterministicPerFlow) {
  trace::TraceRecorderOptions options;
  options.sample_rate = 0.25;
  trace::TraceRecorder a(options);
  trace::TraceRecorder b(options);

  // Two independent recorders (two "processes") agree on every flow, and
  // a realistic rate samples neither none nor all.
  size_t sampled = 0;
  for (uint64_t flow = 1; flow <= 1000; ++flow) {
    const bool va = a.Sampled(flow);
    EXPECT_EQ(va, b.Sampled(flow)) << "flow " << flow;
    if (va) ++sampled;
  }
  EXPECT_GT(sampled, 100u);
  EXPECT_LT(sampled, 500u);
  EXPECT_EQ(a.flows_sampled(), sampled);

  // The verdict is sticky and first_sighting fires exactly once.
  for (uint64_t flow = 1; flow <= 1000; ++flow) {
    bool first = true;
    const bool verdict = a.Sampled(flow, &first);
    EXPECT_EQ(verdict, b.Sampled(flow));
    EXPECT_FALSE(first);
  }
  EXPECT_EQ(a.flows_sampled(), sampled);
}

TEST(TraceRecorderTest, RateZeroSamplesNothingAndForceSampleOverrides) {
  trace::TraceRecorderOptions options;
  options.sample_rate = 0.0;
  trace::TraceRecorder rec(options);
  EXPECT_FALSE(rec.sample_all());
  for (uint64_t flow = 1; flow <= 100; ++flow) {
    EXPECT_FALSE(rec.Sampled(flow));
  }
  EXPECT_EQ(rec.flows_sampled(), 0u);

  // The wire-propagated decision wins over the local rate.
  EXPECT_TRUE(rec.ForceSample(42));
  EXPECT_FALSE(rec.ForceSample(42));  // Only the first sighting reports.
  EXPECT_TRUE(rec.Sampled(42));
  EXPECT_EQ(rec.flows_sampled(), 1u);
  const auto flows = rec.SampledFlows();
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_EQ(flows[0], 42u);

  // Flow 0 has no identity: never sampled below rate 1.0, never forced.
  EXPECT_FALSE(rec.Sampled(0));
  EXPECT_FALSE(rec.ForceSample(0));
}

TEST(TraceRecorderTest, DefaultRecorderSamplesEverything) {
  trace::TraceRecorder rec;
  EXPECT_TRUE(rec.sample_all());
  EXPECT_EQ(rec.sample_rate(), 1.0);
  EXPECT_TRUE(rec.Sampled(7));
  EXPECT_TRUE(rec.Sampled(0));  // Rate 1.0 covers unaffiliated spans too.
}

}  // namespace
}  // namespace bestpeer::workload
