// paper_scan and wide_mutate: a BestPeer fleet built from the seed and
// driven one query at a time in the discrete-event simulator. Host time
// is measured around each call the harness makes into a layer.

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/compute.h"
#include "core/node.h"
#include "core/search_agent.h"
#include "net/sim_transport.h"
#include "probes.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "spans.h"
#include "util/result.h"
#include "util/rng.h"
#include "workload/corpus.h"
#include "workload/topology.h"
#include "workloads.h"

namespace perfbench {
namespace {

using bestpeer::NodeId;
using bestpeer::Result;
using bestpeer::Status;
namespace core = bestpeer::core;
namespace metrics = bestpeer::metrics;
namespace workload = bestpeer::workload;

/// What distinguishes the two sim workloads. Matching objects are the
/// first `matches` objects of every `match_stride`-th node; node 0 is the
/// base, which issues every query and does not search its own store.
struct SimSpec {
  size_t nodes = 0;
  bool random_overlay = false;  // MakeRandom(nodes, degree), else MakeTree.
  size_t degree = 0;
  size_t objects = 0;
  size_t matches = 0;
  size_t match_stride = 1;  // Only nodes k with k % match_stride == 0 match.
  size_t buffer_frames = 128;
  core::AnswerMode mode = core::AnswerMode::kDirect;
  uint16_t ttl = 0;
  bool index_search = false;
  bool result_cache = false;
  size_t query_pool = 0;  // 0: every query is the plain needle.
  size_t unshare_every = 0;
  size_t warmup_queries = 0;
};

/// §4.2: 32-node tree, 1000 x 1 KB objects and 10 matches per node,
/// indicate mode, scan search, TTL above the diameter, BPR.
SimSpec PaperScan() {
  SimSpec s;
  s.nodes = 32;
  s.degree = 3;
  s.objects = 1000;
  s.matches = 10;
  s.mode = core::AnswerMode::kIndicate;
  s.ttl = 16;
  s.warmup_queries = 3;
  return s;
}

/// 1024-node random overlay, small stores, index search, result cache,
/// pooled Zipf keywords and a write (share back, unshare) every 8 queries.
SimSpec WideMutate() {
  SimSpec s;
  s.nodes = 1024;
  s.random_overlay = true;
  s.degree = 4;
  s.objects = 20;
  s.matches = 2;
  s.match_stride = 8;
  s.buffer_frames = 16;  // 20 objects fill 7 pages: the store still fits.
  s.mode = core::AnswerMode::kDirect;
  s.ttl = 32;
  s.index_search = true;
  s.result_cache = true;
  s.query_pool = 16;
  s.unshare_every = 8;
  s.warmup_queries = 8;
  return s;
}

constexpr double kQuerySkew = 1.1;
constexpr size_t kObjectSize = 1024;

size_t MatchesAt(const SimSpec& spec, size_t node) {
  return node % spec.match_stride == 0 ? spec.matches : 0;
}

bestpeer::storm::ObjectId ObjectIdOf(size_t node, size_t i) {
  return (static_cast<bestpeer::storm::ObjectId>(node) << 24) | i;
}

/// One fleet: simulator, network, nodes and the query/mutation streams.
/// Members are declared in dependency order so nodes die first.
struct SimFleet {
  explicit SimFleet(uint64_t seed)
      : network(&simulator, NetOptions(&registry)),
        transports(&network),
        query_rng(seed ^ 0x51EE9ULL) {}

  static bestpeer::sim::NetworkOptions NetOptions(metrics::Registry* r) {
    bestpeer::sim::NetworkOptions options;
    options.metrics = r;
    return options;
  }

  metrics::Registry registry;
  bestpeer::sim::Simulator simulator;
  bestpeer::sim::SimNetwork network;
  bestpeer::net::SimTransportFleet transports;
  core::SharedInfra infra;
  std::vector<NodeId> ids;
  std::map<NodeId, size_t> index_of;
  std::vector<std::unique_ptr<core::BestPeerNode>> nodes;

  bestpeer::Rng query_rng;
  std::unique_ptr<bestpeer::ZipfSampler> zipf;
  size_t removed_node = 0;  // Node whose first match is unshared (0: none).
  bestpeer::Bytes removed_content;
};

/// The queries and mutations of one setup (or of the measured phase).
struct QueryLog {
  std::vector<QueryRecord> queries;
  std::vector<MutationRecord> mutations;
};

std::string PoolToken(size_t rank) {
  return std::string(workload::CorpusGenerator::kNeedle) +
         std::to_string(rank);
}

Result<std::unique_ptr<SimFleet>> BuildFleet(const SimSpec& spec,
                                             uint64_t seed,
                                             SpanRecorder& spans) {
  auto fleet = std::make_unique<SimFleet>(seed);
  bestpeer::Rng topology_rng(seed ^ 0x70F0ULL);
  const workload::Topology topology =
      spec.random_overlay
          ? workload::MakeRandom(spec.nodes, spec.degree, topology_rng)
          : workload::MakeTree(spec.nodes, spec.degree);

  core::BestPeerConfig config;
  config.max_direct_peers = 8;
  config.strategy = "maxcount";
  config.answer_mode = spec.mode;
  config.default_ttl = spec.ttl;
  config.use_index_search = spec.index_search;
  config.enable_result_cache = spec.result_cache;
  config.metrics = &fleet->registry;

  bestpeer::storm::StormOptions store;
  store.buffer_frames = spec.buffer_frames;
  store.replacement = "lru";
  store.build_index = spec.index_search;

  std::vector<std::string> tokens;
  for (size_t i = 0; i < spec.query_pool; ++i) tokens.push_back(PoolToken(i));
  workload::CorpusGenerator corpus({kObjectSize, 500, 0.8}, seed);

  for (size_t i = 0; i < spec.nodes; ++i) {
    const NodeId id = fleet->network.AddNode();
    fleet->ids.push_back(id);
    fleet->index_of[id] = i;
  }
  for (size_t i = 0; i < spec.nodes; ++i) {
    BP_ASSIGN_OR_RETURN(
        auto node, core::BestPeerNode::Create(
                       fleet->transports.For(fleet->ids[i]), &fleet->infra,
                       config));
    BP_RETURN_IF_ERROR(node->InitStorage(store));
    for (size_t o = 0; o < spec.objects; ++o) {
      const bool match = o < MatchesAt(spec, i);
      bestpeer::Bytes content;
      {
        ScopedSpan span(spans, "workload.corpus");
        content = tokens.empty() ? corpus.MakeObject(match)
                                 : corpus.MakeObject(match, tokens);
      }
      ScopedSpan span(spans, "core.share");
      BP_RETURN_IF_ERROR(node->ShareObject(ObjectIdOf(i, o), content));
    }
    fleet->nodes.push_back(std::move(node));
  }
  for (const auto& [a, b] : topology.edges) {
    fleet->nodes[a]->AddDirectPeerLocal(fleet->ids[b]);
    fleet->nodes[b]->AddDirectPeerLocal(fleet->ids[a]);
  }
  for (NodeId id : fleet->ids) {
    fleet->infra.code_cache.Load(id, core::kSearchAgentClass);
    fleet->infra.code_cache.Load(id, core::kComputeAgentClass);
  }
  if (spec.query_pool > 0) {
    fleet->zipf =
        std::make_unique<bestpeer::ZipfSampler>(spec.query_pool, kQuerySkew);
  }
  return fleet;
}

/// Nodes (by NodeId) farther than `ttl` overlay hops from `from`.
std::vector<uint32_t> Unreachable(const SimFleet& fleet, size_t from,
                                  uint16_t ttl) {
  std::vector<int> depth(fleet.nodes.size(), -1);
  std::vector<size_t> frontier{from};
  depth[from] = 0;
  for (size_t head = 0; head < frontier.size(); ++head) {
    const size_t at = frontier[head];
    if (depth[at] >= ttl) continue;
    for (NodeId peer : fleet.nodes[at]->DirectPeerNodes()) {
      auto it = fleet.index_of.find(peer);
      if (it == fleet.index_of.end() || depth[it->second] >= 0) continue;
      depth[it->second] = depth[at] + 1;
      frontier.push_back(it->second);
    }
  }
  std::vector<uint32_t> out;
  for (size_t i = 0; i < depth.size(); ++i) {
    if (depth[i] < 0) out.push_back(static_cast<uint32_t>(fleet.ids[i]));
  }
  return out;
}

/// The workload's write, every `unshare_every` queries: shares back the
/// object the previous write removed, then unshares the first match of
/// the next matching node in rotation. One match is missing between
/// writes, so the query mix stays the same however many queries a run
/// gets through. Both writes go to the mutation log for the ground truth.
Status Mutate(SimFleet& fleet, const SimSpec& spec, int64_t before_query,
              SpanRecorder& spans, QueryLog* log) {
  ScopedSpan root(spans, "mutate", before_query);
  size_t node = fleet.removed_node;
  if (node != 0) {
    {
      ScopedSpan span(spans, "core.share", before_query);
      BP_RETURN_IF_ERROR(fleet.nodes[node]->ShareObject(
          ObjectIdOf(node, 0), fleet.removed_content));
    }
    log->mutations.push_back({before_query,
                                static_cast<uint32_t>(fleet.ids[node]),
                                ObjectIdOf(node, 0), +1});
  }
  do {
    node = (node + 1) % spec.nodes;
  } while (node == 0 || MatchesAt(spec, node) == 0);
  BP_ASSIGN_OR_RETURN(fleet.removed_content,
                      fleet.nodes[node]->storage()->Get(ObjectIdOf(node, 0)));
  {
    ScopedSpan span(spans, "core.unshare", before_query);
    BP_RETURN_IF_ERROR(fleet.nodes[node]->UnshareObject(ObjectIdOf(node, 0)));
  }
  {
    ScopedSpan span(spans, "sim.run", before_query);
    fleet.simulator.RunUntilIdle();
  }
  fleet.removed_node = node;
  log->mutations.push_back({before_query,
                              static_cast<uint32_t>(fleet.ids[node]),
                              ObjectIdOf(node, 0), -1});
  return Status::OK();
}

/// One closed-loop query from the base: issue, run to idle, reconfigure
/// and run to idle again (the BPR step). Host latency covers exactly that.
Status RunQuery(SimFleet& fleet, const SimSpec& spec, int64_t id,
                bool warmup, SpanRecorder& spans, QueryLog* log) {
  if (spec.unshare_every > 0 && id > 0 &&
      static_cast<size_t>(id) % spec.unshare_every == 0) {
    BP_RETURN_IF_ERROR(Mutate(fleet, spec, id, spans, log));
  }
  QueryRecord q;
  q.id = id;
  q.issuer = static_cast<uint32_t>(fleet.ids[0]);
  q.warmup = warmup;
  q.traced = spans.enabled();
  q.unreachable = Unreachable(fleet, 0, spec.ttl);
  const std::string keyword =
      fleet.zipf == nullptr ? workload::CorpusGenerator::kNeedle
                            : PoolToken(fleet.zipf->Sample(fleet.query_rng));

  core::BestPeerNode& base = *fleet.nodes[0];
  const uint64_t events0 = fleet.simulator.events_processed();
  const uint64_t wire0 = fleet.network.total_wire_bytes();
  const int64_t t0 = NowNs();
  uint64_t query_id = 0;
  {
    ScopedSpan root(spans, "query", id);
    {
      ScopedSpan span(spans, "core.issue", id);
      BP_ASSIGN_OR_RETURN(query_id, base.IssueSearch(keyword));
    }
    {
      ScopedSpan span(spans, "sim.run", id);
      fleet.simulator.RunUntilIdle();
    }
    {
      ScopedSpan span(spans, "core.reconfigure", id);
      BP_RETURN_IF_ERROR(base.Reconfigure(query_id));
    }
    ScopedSpan span(spans, "sim.run", id);
    fleet.simulator.RunUntilIdle();
  }
  q.host_ms = static_cast<double>(NowNs() - t0) / 1e6;
  q.events = fleet.simulator.events_processed() - events0;
  q.wire_bytes = fleet.network.total_wire_bytes() - wire0;

  const core::QuerySession* session = base.FindSession(query_id);
  if (session == nullptr) return Status::Internal("query session lost");
  q.virtual_ms = static_cast<double>(session->completion_time()) / 1e3;
  q.unique = session->unique_answers();
  const auto& events = spec.mode == core::AnswerMode::kIndicate
                           ? session->fetches()
                           : session->responses();
  for (const core::ResponseEvent& e : events) {
    q.observed.emplace_back(static_cast<uint32_t>(e.node),
                            static_cast<uint32_t>(e.answers));
  }
  log->queries.push_back(std::move(q));
  return Status::OK();
}

/// Warm-up fingerprint: equal for every setup of one seed when the
/// simulated run is deterministic.
std::string Digest(const SimFleet& fleet, const QueryLog& warmup) {
  std::string digest =
      "events=" + std::to_string(fleet.simulator.events_processed()) +
      " wire=" + std::to_string(fleet.network.total_wire_bytes()) +
      " answers=";
  for (const QueryRecord& q : warmup.queries) {
    size_t answers = 0;
    for (const auto& [node, n] : q.observed) answers += n;
    digest += std::to_string(answers) + ",";
  }
  return digest;
}

/// The counters the traced run reports per layer.
const std::vector<std::string>& LayerCounters() {
  static const std::vector<std::string> names = {
      "core.answers_received", "core.reconfigurations", "storm.pool_hits",
      "storm.pool_misses",     "agent.migrations",      "agent.executed",
      "agent.received",        "agent.serialize_bytes", "cache.hits",
      "cache.misses",          "cache.invalidations"};
  return names;
}

Status RunSim(const RunOptions& options, const SimSpec& spec,
              RunRecord* record) {
  SpanRecorder spans;
  std::unique_ptr<SimFleet> fleet;
  QueryLog log;
  // Only the last of the kSetups fleets is traced and measured.
  for (size_t s = 0; s < kSetups; ++s) {
    fleet.reset();
    log = QueryLog{};
    spans.set_enabled(options.trace && s + 1 == kSetups);
    const int64_t t0 = NowNs();
    {
      ScopedSpan root(spans, "setup");
      BP_ASSIGN_OR_RETURN(fleet, BuildFleet(spec, options.seed, spans));
      for (size_t q = 0; q < spec.warmup_queries; ++q) {
        BP_RETURN_IF_ERROR(RunQuery(*fleet, spec, static_cast<int64_t>(q),
                                    /*warmup=*/true, spans, &log));
      }
    }
    record->setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    record->setup_digests.push_back(Digest(*fleet, log));
  }
  for (size_t i = 0; i < spec.nodes; ++i) {
    record->placement[static_cast<uint32_t>(fleet->ids[i])] =
        static_cast<uint32_t>(MatchesAt(spec, i));
  }
  record->counters["workload.corpus_objects"] =
      static_cast<double>(spec.nodes * spec.objects);

  // Measured phase: closed loop until both the time and the query floor
  // are met. The traced run alternates untraced and traced queries.
  const metrics::Snapshot before = fleet->registry.TakeSnapshot();
  const int64_t start = NowNs();
  size_t measured = 0;
  int64_t id = static_cast<int64_t>(spec.warmup_queries);
  for (;;) {
    const double elapsed = static_cast<double>(NowNs() - start) / 1e9;
    if (elapsed >= kMaxMeasureSeconds) break;
    if (elapsed >= options.seconds && measured >= kWindowQueries) break;
    spans.set_enabled(options.trace && measured % 2 == 0);
    BP_RETURN_IF_ERROR(
        RunQuery(*fleet, spec, id++, /*warmup=*/false, spans, &log));
    ++measured;
    if (options.trace && measured == kWindowQueries) {
      AddCounterDeltas(before, fleet->registry.TakeSnapshot(),
                       LayerCounters(), record);
    }
  }
  record->measure_s = static_cast<double>(NowNs() - start) / 1e9;
  record->queries = std::move(log.queries);
  record->mutations = std::move(log.mutations);

  if (options.trace) {
    spans.set_enabled(true);
    const std::string keyword =
        spec.query_pool > 0 ? PoolToken(0)
                            : workload::CorpusGenerator::kNeedle;
    RunStoreProbes(fleet->nodes[0]->storage(), keyword, spans, record);
    if (!spans.Write(options.spans_path)) {
      return Status::Internal("cannot write " + options.spans_path);
    }
  }
  return Status::OK();
}

}  // namespace

RunRecord RunSimWorkload(const RunOptions& options) {
  RunRecord record;
  record.workload = options.workload;
  record.seed = options.seed;
  record.trace = options.trace;
  const SimSpec spec =
      options.workload == "paper_scan" ? PaperScan() : WideMutate();
  Status status = RunSim(options, spec, &record);
  if (!status.ok()) record.error = status.ToString();
  record.peak_rss_mb = PeakRssMb();
  return record;
}

}  // namespace perfbench
