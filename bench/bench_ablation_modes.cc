// Ablation of BestPeer's transport choices (DESIGN.md §3):
//  - answer mode 1 (ship contents) vs mode 2 (indicate, then fetch) §2;
//  - GZIP-style compression on vs off (§4.2);
//  - cold vs warm agent-class cache (code-shipping cost, §3.1/§4.3).

#include "bench/bench_common.h"

using namespace bestpeer;
using namespace bestpeer::bench;
using namespace bestpeer::workload;

int main() {
  Topology tree = MakeTree(31, 2);

  PrintTitle("Answer modes (tree 31) — completion & traffic");
  PrintRowHeader({"mode", "mean ms", "answers/query", "wire KB"});
  {
    ExperimentOptions mode1 = PaperOptions(tree, Scheme::kBpr);
    auto r1 = MustRun(mode1);
    PrintRow("1 (direct)",
             {r1.MeanCompletionMs(),
              static_cast<double>(r1.queries[0].total_answers),
              static_cast<double>(r1.wire_bytes) / 1024.0});

    ExperimentOptions mode2 = PaperOptions(tree, Scheme::kBpr);
    mode2.node.answer_mode = core::AnswerMode::kIndicate;
    mode2.node.auto_fetch = true;
    auto r2 = MustRun(mode2);
    PrintRow("2 (fetch)",
             {r2.MeanCompletionMs(),
              static_cast<double>(r2.queries[0].total_answers),
              static_cast<double>(r2.wire_bytes) / 1024.0});

    ExperimentOptions names = PaperOptions(tree, Scheme::kBpr);
    names.node.answer_mode = core::AnswerMode::kIndicate;
    names.node.auto_fetch = false;
    auto r3 = MustRun(names);
    PrintRow("2 (names only)",
             {r3.MeanCompletionMs(),
              static_cast<double>(r3.queries[0].total_answers),
              static_cast<double>(r3.wire_bytes) / 1024.0});
  }

  PrintTitle("Compression (tree 31, mode 1)");
  PrintRowHeader({"codec", "mean ms", "wire KB"});
  for (const char* codec : {"lzss", "null"}) {
    ExperimentOptions o = PaperOptions(tree, Scheme::kBpr);
    o.node.codec = codec;
    auto r = MustRun(o);
    PrintRow(codec, {r.MeanCompletionMs(),
                     static_cast<double>(r.wire_bytes) / 1024.0});
  }

  PrintTitle("Agent-class cache (tree 31, BPS) — run 1 pays code shipping");
  PrintRowHeader({"cache", "run 1 ms", "run 2 ms", "run 4 ms", "wire KB"});
  for (bool warm : {false, true}) {
    ExperimentOptions o = PaperOptions(tree, Scheme::kBps);
    o.prewarm_code_cache = warm;
    auto r = MustRun(o);
    PrintRow(warm ? "warm" : "cold",
             {r.CompletionMs(0), r.CompletionMs(1), r.CompletionMs(3),
              static_cast<double>(r.wire_bytes) / 1024.0});
  }
  std::printf(
      "\nExpected: mode 2 saves wire bytes when only names are needed; "
      "compression cuts traffic; a cold cache penalizes only run 1.\n");
  return 0;
}
