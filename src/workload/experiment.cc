#include "workload/experiment.h"

#include <algorithm>
#include <memory>
#include <numeric>

#include "baseline/cs_node.h"
#include "baseline/gnutella.h"
#include "core/node.h"
#include "core/search_agent.h"

namespace bestpeer::workload {

std::string SchemeName(Scheme scheme) {
  switch (scheme) {
    case Scheme::kScs:
      return "SCS";
    case Scheme::kMcs:
      return "MCS";
    case Scheme::kBps:
      return "BPS";
    case Scheme::kBpr:
      return "BPR";
    case Scheme::kGnutella:
      return "Gnutella";
  }
  return "?";
}

double ExperimentResult::MeanCompletionMs() const {
  if (queries.empty()) return 0;
  double sum = 0;
  for (const auto& q : queries) sum += ToMillis(q.completion);
  return sum / static_cast<double>(queries.size());
}

double ExperimentResult::CompletionMs(size_t query_index) const {
  if (query_index >= queries.size()) return 0;
  return ToMillis(queries[query_index].completion);
}

double ExperimentResult::LastCompletionMs() const {
  if (queries.empty()) return 0;
  return ToMillis(queries.back().completion);
}

size_t ExperimentResult::TotalAnswers() const {
  size_t n = 0;
  for (const auto& q : queries) n += q.total_answers;
  return n;
}

std::vector<size_t> FarHotPlacement(const Topology& topology,
                                    size_t hot_count, size_t matches_each) {
  std::vector<size_t> matches(topology.node_count, 0);
  auto dist = topology.Distances(topology.base);
  std::vector<size_t> order(topology.node_count);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&dist](size_t a, size_t b) {
    return dist[a] > dist[b];
  });
  size_t placed = 0;
  for (size_t node : order) {
    if (node == topology.base) continue;
    matches[node] = matches_each;
    if (++placed >= hot_count) break;
  }
  return matches;
}

namespace {

storm::ObjectId GlobalObjectId(size_t node, size_t i) {
  return (static_cast<storm::ObjectId>(node) << 24) | i;
}

/// The pooled query keywords of the Zipf-repeat mode ("needle0"...).
std::vector<std::string> PoolTokens(const ExperimentOptions& options) {
  std::vector<std::string> tokens;
  tokens.reserve(options.query_pool);
  for (size_t i = 0; i < options.query_pool; ++i) {
    tokens.push_back(std::string(CorpusGenerator::kNeedle) +
                     std::to_string(i));
  }
  return tokens;
}

/// Populates one storm store with the experiment corpus.
Status PopulateStore(const ExperimentOptions& options, size_t node,
                     CorpusGenerator& corpus,
                     const std::function<Status(storm::ObjectId,
                                                const Bytes&)>& put) {
  size_t matches = options.MatchesAt(node);
  if (options.query_pool > 0) {
    const std::vector<std::string> tokens = PoolTokens(options);
    for (size_t i = 0; i < options.objects_per_node; ++i) {
      bool match = i < matches;
      BP_RETURN_IF_ERROR(
          put(GlobalObjectId(node, i), corpus.MakeObject(match, tokens)));
    }
    return Status::OK();
  }
  for (size_t i = 0; i < options.objects_per_node; ++i) {
    bool match = i < matches;
    BP_RETURN_IF_ERROR(put(GlobalObjectId(node, i), corpus.MakeObject(match)));
  }
  return Status::OK();
}

storm::StormOptions StoreOptions(const ExperimentOptions& options) {
  storm::StormOptions s;
  s.buffer_frames = 128;
  s.replacement = "lru";
  // Default experiments use the scan path (the StorM agent); the index
  // is built only when a path actually reads it.
  s.build_index =
      options.node.use_index_search || options.node.enable_content_summaries;
  return s;
}

// ------------------------------------------------------------------ BestPeer

Result<ExperimentResult> RunBestPeer(const ExperimentOptions& options) {
  SimRun run(options.obs, options.fault, options.seed, options.net);
  core::SharedInfra infra;

  const Topology& topo = options.topology;
  std::vector<NodeId> ids;
  ids.reserve(topo.node_count);
  for (size_t i = 0; i < topo.node_count; ++i) {
    ids.push_back(run.network().AddNode());
  }

  core::BestPeerConfig config = options.node;
  if (options.scheme != Scheme::kBpr) config.strategy = "none";
  config.gossip_seed = options.seed;
  config.metrics = run.registry();

  std::vector<std::unique_ptr<core::BestPeerNode>> nodes;
  nodes.reserve(topo.node_count);
  CorpusGenerator corpus({options.object_size, 500, 0.8}, options.seed);
  for (size_t i = 0; i < topo.node_count; ++i) {
    BP_ASSIGN_OR_RETURN(
        auto node,
        core::BestPeerNode::Create(run.fleet().For(ids[i]), &infra, config));
    BP_RETURN_IF_ERROR(node->InitStorage(StoreOptions(options)));
    BP_RETURN_IF_ERROR(PopulateStore(
        options, i, corpus,
        [&node](storm::ObjectId id, const Bytes& content) {
          return node->ShareObject(id, content);
        }));
    nodes.push_back(std::move(node));
  }
  for (const auto& [a, b] : topo.edges) {
    nodes[a]->AddDirectPeerLocal(ids[b]);
    nodes[b]->AddDirectPeerLocal(ids[a]);
  }
  if (config.enable_content_summaries) {
    // Store population scheduled debounced summary pushes; edges are
    // wired now, so draining here delivers every digest before query 1.
    run.simulator().RunUntilIdle();
  }
  if (options.prewarm_code_cache) {
    for (NodeId id : ids) {
      infra.code_cache.Load(id, core::kSearchAgentClass);
      infra.code_cache.Load(id, core::kComputeAgentClass);
    }
  }

  core::BestPeerNode& base = *nodes[topo.base];
  // Zipf-repeat mode draws keywords from a dedicated rng so enabling the
  // pool never perturbs the corpus stream (cache-off single-keyword runs
  // stay bit-identical).
  std::unique_ptr<Rng> query_rng;
  std::unique_ptr<ZipfSampler> query_zipf;
  if (options.query_pool > 0) {
    query_rng = std::make_unique<Rng>(options.seed ^ 0x51EE9ULL);
    query_zipf = std::make_unique<ZipfSampler>(options.query_pool,
                                               options.query_zipf_skew);
  }
  size_t mutation_cursor = 0;
  std::vector<size_t> mutated(topo.node_count, 0);
  ExperimentResult result;
  for (size_t q = 0; q < options.queries; ++q) {
    std::string keyword = CorpusGenerator::kNeedle;
    if (query_zipf != nullptr) {
      keyword = std::string(CorpusGenerator::kNeedle) +
                std::to_string(query_zipf->Sample(*query_rng));
    }
    BP_ASSIGN_OR_RETURN(uint64_t query_id, base.IssueSearch(keyword));
    run.ArmSampler();
    run.simulator().RunUntilIdle();
    const core::QuerySession* session = base.FindSession(query_id);
    if (session == nullptr) {
      return Status::Internal("query session lost");
    }
    const bool content_fetched =
        config.answer_mode != core::AnswerMode::kIndicate || config.auto_fetch;
    QueryMetrics metrics;
    metrics.completion = session->completion_time();
    metrics.total_answers = content_fetched ? session->total_answers()
                                            : session->total_indicated();
    metrics.unique_answers = session->unique_answers();
    metrics.responders = session->responder_count();
    metrics.responses =
        content_fetched && config.answer_mode == core::AnswerMode::kIndicate
            ? session->fetches()
            : session->responses();
    for (auto& e : metrics.responses) e.time -= session->start_time();
    run.RecordQuerySpan(ids[topo.base], query_id, session->start_time(),
                        session->completion_time());
    result.queries.push_back(std::move(metrics));

    if (options.scheme == Scheme::kBpr) {
      BP_RETURN_IF_ERROR(base.Reconfigure(query_id));
      // Let connect/disconnect notices land.
      run.simulator().RunUntilIdle();
    }

    if (options.mutate_every > 0 && (q + 1) % options.mutate_every == 0) {
      // Mid-workload StorM mutation: unshare one still-present matching
      // object at the next non-base node in rotation. Every cached result
      // naming that responder must be invalidated by the epoch bump.
      for (size_t attempt = 0; attempt < topo.node_count; ++attempt) {
        size_t node = (mutation_cursor + attempt) % topo.node_count;
        if (node == topo.base) continue;
        if (mutated[node] >= options.MatchesAt(node)) continue;
        size_t obj = mutated[node]++;
        BP_RETURN_IF_ERROR(
            nodes[node]->UnshareObject(GlobalObjectId(node, obj)));
        mutation_cursor = node + 1;
        break;
      }
      run.simulator().RunUntilIdle();
    }
  }
  run.Finish(&result);
  return result;
}

// ------------------------------------------------------------------ CS

Result<ExperimentResult> RunCs(const ExperimentOptions& options) {
  SimRun run(options.obs, options.fault, options.seed, options.net);

  const Topology& topo = options.topology;
  std::vector<NodeId> ids;
  for (size_t i = 0; i < topo.node_count; ++i) {
    ids.push_back(run.network().AddNode());
  }

  baseline::CsConfig config;
  config.single_thread = options.scheme == Scheme::kScs;
  config.codec = options.node.codec;
  config.ship_content = options.node.answer_mode == core::AnswerMode::kDirect;
  config.use_index_search = options.node.use_index_search;

  std::vector<std::unique_ptr<baseline::CsNode>> nodes;
  CorpusGenerator corpus({options.object_size, 500, 0.8}, options.seed);
  for (size_t i = 0; i < topo.node_count; ++i) {
    BP_ASSIGN_OR_RETURN(
        auto node, baseline::CsNode::Create(run.fleet().For(ids[i]), config));
    storm::StormOptions store = StoreOptions(options);
    store.metrics = run.registry();
    store.metrics_label = std::to_string(ids[i]);
    BP_RETURN_IF_ERROR(node->InitStorage(store));
    BP_RETURN_IF_ERROR(PopulateStore(
        options, i, corpus,
        [&node](storm::ObjectId id, const Bytes& content) {
          return node->ShareObject(id, content);
        }));
    nodes.push_back(std::move(node));
  }
  for (const auto& [a, b] : topo.edges) {
    nodes[a]->AddNeighborLocal(ids[b]);
    nodes[b]->AddNeighborLocal(ids[a]);
  }

  baseline::CsNode& base = *nodes[topo.base];
  ExperimentResult result;
  for (size_t q = 0; q < options.queries; ++q) {
    BP_ASSIGN_OR_RETURN(uint64_t query_id,
                        base.IssueQuery(CorpusGenerator::kNeedle));
    run.ArmSampler();
    run.simulator().RunUntilIdle();
    const baseline::CsSession* session = base.FindSession(query_id);
    if (session == nullptr) return Status::Internal("cs session lost");
    QueryMetrics metrics;
    metrics.completion = session->completion_time();
    metrics.total_answers = session->total_answers();
    metrics.responders = session->responder_count();
    metrics.responses = session->answers();
    for (auto& e : metrics.responses) e.time -= session->start_time();
    run.RecordQuerySpan(ids[topo.base], query_id, session->start_time(),
                        session->completion_time());
    result.queries.push_back(std::move(metrics));
  }
  run.Finish(&result);
  return result;
}

// ------------------------------------------------------------------ Gnutella

Result<ExperimentResult> RunGnutella(const ExperimentOptions& options) {
  SimRun run(options.obs, options.fault, options.seed, options.net);

  const Topology& topo = options.topology;
  std::vector<NodeId> ids;
  for (size_t i = 0; i < topo.node_count; ++i) {
    ids.push_back(run.network().AddNode());
  }

  baseline::GnutellaConfig config;
  config.default_ttl = static_cast<uint8_t>(
      std::min<uint16_t>(options.node.default_ttl, 255));

  std::vector<std::unique_ptr<baseline::GnutellaNode>> nodes;
  CorpusGenerator corpus({options.object_size, 500, 0.8}, options.seed);
  for (size_t i = 0; i < topo.node_count; ++i) {
    BP_ASSIGN_OR_RETURN(
        auto node,
        baseline::GnutellaNode::Create(run.fleet().For(ids[i]), config));
    size_t matches = options.MatchesAt(i);
    for (size_t f = 0; f < options.files_per_node; ++f) {
      node->ShareFile(corpus.MakeFileName(f < matches, f),
                      static_cast<uint32_t>(options.object_size));
    }
    nodes.push_back(std::move(node));
  }
  for (const auto& [a, b] : topo.edges) {
    nodes[a]->AddNeighborLocal(ids[b]);
    nodes[b]->AddNeighborLocal(ids[a]);
  }

  baseline::GnutellaNode& base = *nodes[topo.base];
  ExperimentResult result;
  for (size_t q = 0; q < options.queries; ++q) {
    BP_ASSIGN_OR_RETURN(uint64_t key,
                        base.IssueQuery(CorpusGenerator::kNeedle));
    run.ArmSampler();
    run.simulator().RunUntilIdle();
    const baseline::GnutellaSession* session = base.FindSession(key);
    if (session == nullptr) return Status::Internal("gnutella session lost");
    QueryMetrics metrics;
    metrics.completion = session->completion_time();
    metrics.total_answers = session->total_files();
    metrics.responders = session->responder_count();
    metrics.responses = session->hits();
    for (auto& e : metrics.responses) e.time -= session->start_time();
    run.RecordQuerySpan(ids[topo.base], key, session->start_time(),
                        session->completion_time());
    result.queries.push_back(std::move(metrics));
  }
  run.Finish(&result);
  return result;
}

}  // namespace

Result<ExperimentResult> RunExperiment(const ExperimentOptions& options) {
  if (options.topology.node_count == 0) {
    return Status::InvalidArgument("empty topology");
  }
  if (!options.matches_per_node_vec.empty() &&
      options.matches_per_node_vec.size() != options.topology.node_count) {
    return Status::InvalidArgument("placement size != node count");
  }
  switch (options.scheme) {
    case Scheme::kScs:
    case Scheme::kMcs:
      return RunCs(options);
    case Scheme::kBps:
    case Scheme::kBpr:
      return RunBestPeer(options);
    case Scheme::kGnutella:
      return RunGnutella(options);
  }
  return Status::InvalidArgument("unknown scheme");
}

Result<ExperimentResult> RunAveraged(ExperimentOptions options,
                                     const std::vector<uint64_t>& seeds) {
  if (seeds.empty()) return Status::InvalidArgument("no seeds");
  ExperimentResult merged;
  for (uint64_t seed : seeds) {
    options.seed = seed;
    BP_ASSIGN_OR_RETURN(ExperimentResult one, RunExperiment(options));
    if (merged.queries.empty()) {
      merged.queries.resize(one.queries.size());
    }
    merged.wire_bytes += one.wire_bytes;
    merged.metrics.Merge(one.metrics);
    if (merged.trace == nullptr) merged.trace = one.trace;
    if (merged.flight == nullptr) merged.flight = one.flight;
    if (merged.timeseries.empty()) merged.timeseries = std::move(one.timeseries);
    for (size_t q = 0; q < one.queries.size(); ++q) {
      merged.queries[q].completion += one.queries[q].completion;
      merged.queries[q].total_answers += one.queries[q].total_answers;
      merged.queries[q].unique_answers += one.queries[q].unique_answers;
      merged.queries[q].responders += one.queries[q].responders;
      // Response curves: keep the first seed's curve as representative.
      if (merged.queries[q].responses.empty()) {
        merged.queries[q].responses = one.queries[q].responses;
      }
    }
  }
  merged.wire_bytes /= seeds.size();
  for (auto& q : merged.queries) {
    q.completion /= static_cast<SimTime>(seeds.size());
    q.total_answers /= seeds.size();
    q.unique_answers /= seeds.size();
    q.responders /= seeds.size();
  }
  return merged;
}

}  // namespace bestpeer::workload
