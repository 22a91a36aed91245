// tcp_loopback: one process hosting a LIGLO server and a small BestPeer
// fleet over real loopback TCP (net::TcpNet, one shared reactor thread).
// Nodes join through LIGLO; an open loop then issues queries at a fixed
// rate from rotating nodes. Completion is detected on the reactor thread
// the moment the issuer's session holds every expected answer.

#include <pthread.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/node.h"
#include "core/search_agent.h"
#include "liglo/liglo_server.h"
#include "net/dispatcher.h"
#include "net/tcp_transport.h"
#include "probes.h"
#include "spans.h"
#include "util/result.h"
#include "workload/corpus.h"
#include "workloads.h"

namespace perfbench {
namespace {

using bestpeer::NodeId;
using bestpeer::Result;
using bestpeer::SimTime;
using bestpeer::Status;
namespace core = bestpeer::core;
namespace metrics = bestpeer::metrics;
namespace net = bestpeer::net;

constexpr size_t kNodes = 8;
/// 400 x 1 KB objects fill ~134 pages: more than the 128-frame pool, so
/// every scan reads through the pager as in paper_scan.
constexpr size_t kObjects = 400;
constexpr size_t kMatches = 4;
constexpr size_t kBufferFrames = 128;
constexpr uint16_t kTtl = kNodes;
constexpr size_t kWarmupQueries = 8;
/// Offered load of the open loop (queries per second).
constexpr double kRatePerSecond = 14;
/// A query still missing answers this long after it was due has failed.
constexpr int64_t kQueryTimeoutUs = 5'000'000;
constexpr int64_t kJoinTimeoutUs = 5'000'000;

/// Forwards everything to the node's TcpTransport and calls `after` on
/// the reactor thread once each delivered message or finished CPU task
/// has been handled: the hook that sees a session complete.
class ObservedTransport final : public net::Transport {
 public:
  explicit ObservedTransport(net::Transport* inner) : inner_(inner) {}

  void set_after(std::function<void()> after) { after_ = std::move(after); }

  NodeId local() const override { return inner_->local(); }
  void Send(NodeId dst, uint32_t type, bestpeer::Bytes payload,
            size_t extra_wire_bytes, bestpeer::FlowId flow) override {
    inner_->Send(dst, type, std::move(payload), extra_wire_bytes, flow);
  }
  void SetHandler(Handler handler) override {
    inner_->SetHandler(
        [this, handler = std::move(handler)](const net::Message& msg) {
          handler(msg);
          if (after_) after_();
        });
  }
  net::Clock& clock() override { return inner_->clock(); }
  void RunCpu(SimTime cost, std::function<void()> done, const char* name,
              bestpeer::FlowId flow, CpuArgs args) override {
    inner_->RunCpu(
        cost,
        [this, done = std::move(done)]() {
          done();
          if (after_) after_();
        },
        name, flow, std::move(args));
  }
  void RegisterTypeName(uint32_t type, std::string name) override {
    inner_->RegisterTypeName(type, std::move(name));
  }
  bool IsOnline(NodeId node) const override { return inner_->IsOnline(node); }
  net::LinkProfile link() const override { return inner_->link(); }
  bestpeer::trace::TraceRecorder* trace() const override {
    return inner_->trace();
  }
  bestpeer::obs::FlightRecorder* flight() const override {
    return inner_->flight();
  }

 private:
  net::Transport* inner_;
  std::function<void()> after_;
};

/// A query the reactor thread is watching for completion.
struct Pending {
  uint64_t query_id = 0;
  size_t record = 0;  // Index into TcpFleet::queries.
  size_t expected = 0;
};

/// When and where one query was issued, and when it completed.
struct Issue {
  size_t issuer = 0;  // Node index.
  uint64_t query_id = 0;
  int64_t due_us = 0;
  int64_t done_us = 0;  // 0 until every expected answer is in.
};

/// One fleet on its own TcpNet. `queries`, `pending` and the registry
/// belong to the reactor thread; the harness reads them through Run() or
/// after Stop(). `completed` is shared under `mu`.
struct TcpFleet {
  TcpFleet() : tcpnet(Options(&registry)) {}
  ~TcpFleet() { tcpnet.Stop(); }
  TcpFleet(const TcpFleet&) = delete;
  TcpFleet& operator=(const TcpFleet&) = delete;

  static net::TcpOptions Options(metrics::Registry* registry) {
    net::TcpOptions options;
    options.metrics = registry;
    return options;
  }

  metrics::Registry registry;
  net::TcpNet tcpnet;
  core::SharedInfra infra;
  net::TcpTransport* server_transport = nullptr;
  std::unique_ptr<net::Dispatcher> server_dispatcher;
  std::unique_ptr<bestpeer::liglo::LigloServer> server;
  std::vector<std::unique_ptr<ObservedTransport>> transports;
  std::vector<std::unique_ptr<core::BestPeerNode>> nodes;

  std::vector<std::vector<Pending>> pending;  // Per node index.
  std::vector<QueryRecord> queries;
  std::vector<Issue> issues;  // Parallel to `queries`.
  std::vector<double> issue_us;  // IssueSearch host time, measured queries.

  std::mutex mu;
  std::condition_variable cv;
  size_t completed = 0;  // Guarded by mu.
};

/// Reactor thread: retires every pending query of node `i` whose session
/// now holds all expected answers.
void CheckCompletions(TcpFleet& fleet, size_t i) {
  std::vector<Pending>& list = fleet.pending[i];
  size_t finished = 0;
  for (size_t p = 0; p < list.size();) {
    const core::QuerySession* session =
        fleet.nodes[i]->FindSession(list[p].query_id);
    if (session == nullptr || session->total_answers() < list[p].expected) {
      ++p;
      continue;
    }
    fleet.issues[list[p].record].done_us = fleet.tcpnet.reactor().now_us();
    list[p] = list.back();
    list.pop_back();
    ++finished;
  }
  if (finished > 0) {
    std::lock_guard<std::mutex> lock(fleet.mu);
    fleet.completed += finished;
    fleet.cv.notify_all();
  }
}

/// Reactor thread: issues one query from node `i` and starts watching it.
/// The expected answers are the matches at every other node within the
/// TTL horizon of the overlay as it stands now.
void IssueOnReactor(TcpFleet& fleet, size_t i, size_t record) {
  QueryRecord& q = fleet.queries[record];
  std::vector<int> depth(fleet.nodes.size(), -1);
  std::vector<size_t> frontier{i};
  depth[i] = 0;
  for (size_t head = 0; head < frontier.size(); ++head) {
    const size_t at = frontier[head];
    if (depth[at] >= kTtl) continue;
    for (NodeId peer : fleet.nodes[at]->DirectPeerNodes()) {
      for (size_t j = 0; j < fleet.nodes.size(); ++j) {
        if (fleet.nodes[j]->node() != peer || depth[j] >= 0) continue;
        depth[j] = depth[at] + 1;
        frontier.push_back(j);
      }
    }
  }
  size_t expected = 0;
  for (size_t j = 0; j < fleet.nodes.size(); ++j) {
    if (depth[j] < 0) {
      q.unreachable.push_back(static_cast<uint32_t>(fleet.nodes[j]->node()));
    } else if (j != i) {
      expected += kMatches;
    }
  }
  const int64_t t0 = NowNs();
  auto query_id =
      fleet.nodes[i]->IssueSearch(bestpeer::workload::CorpusGenerator::kNeedle);
  if (!q.warmup) {
    fleet.issue_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
  }
  if (!query_id.ok()) return;  // Never completes: counted as timed out.
  fleet.issues[record].query_id = query_id.value();
  fleet.pending[i].push_back({query_id.value(), record, expected});
  CheckCompletions(fleet, i);
}

/// Harness thread: waits until `count` queries have completed or the
/// reactor clock passes `deadline_us`. Returns true on completion.
bool WaitCompleted(TcpFleet& fleet, size_t count, int64_t deadline_us) {
  std::unique_lock<std::mutex> lock(fleet.mu);
  for (;;) {
    if (fleet.completed >= count) return true;
    const int64_t left = deadline_us - fleet.tcpnet.reactor().now_us();
    if (left <= 0) return false;
    fleet.cv.wait_for(lock, std::chrono::microseconds(left));
  }
}

/// Reactor thread: adds a query record and returns its index.
size_t NewQuery(TcpFleet& fleet, size_t issuer, bool warmup, int64_t due) {
  QueryRecord q;
  q.id = static_cast<int64_t>(fleet.queries.size());
  q.issuer = static_cast<uint32_t>(fleet.nodes[issuer]->node());
  q.warmup = warmup;
  fleet.queries.push_back(std::move(q));
  Issue issue;
  issue.issuer = issuer;
  issue.due_us = due;
  fleet.issues.push_back(issue);
  return fleet.queries.size() - 1;
}

/// Reactor thread: true when every direct-peer link is listed at both
/// of its ends.
bool OverlaySymmetric(const TcpFleet& fleet) {
  for (const auto& node : fleet.nodes) {
    for (NodeId peer : node->DirectPeerNodes()) {
      for (const auto& other : fleet.nodes) {
        if (other->node() != peer) continue;
        const std::vector<NodeId> back = other->DirectPeerNodes();
        if (std::find(back.begin(), back.end(), node->node()) == back.end()) {
          return false;
        }
      }
    }
  }
  return true;
}

Status BuildAndJoin(uint64_t seed, TcpFleet& fleet, SpanRecorder& spans,
                    RunRecord* record, bool keep_join_samples) {
  BP_ASSIGN_OR_RETURN(fleet.server_transport, fleet.tcpnet.AddNode());
  fleet.server_dispatcher =
      std::make_unique<net::Dispatcher>(fleet.server_transport);
  bestpeer::liglo::LigloServerOptions server_options;
  server_options.initial_peer_count = 4;
  server_options.sample_seed = seed ^ 0x5EEDULL;
  fleet.server = std::make_unique<bestpeer::liglo::LigloServer>(
      fleet.server_transport, fleet.server_dispatcher.get(),
      &fleet.infra.ip_directory, server_options);

  core::BestPeerConfig config;
  config.max_direct_peers = 4;
  config.strategy = "none";
  config.default_ttl = kTtl;
  config.metrics = &fleet.registry;
  bestpeer::storm::StormOptions store;
  store.buffer_frames = kBufferFrames;
  store.build_index = false;

  bestpeer::workload::CorpusGenerator corpus({1024, 500, 0.8}, seed);
  for (size_t i = 0; i < kNodes; ++i) {
    BP_ASSIGN_OR_RETURN(net::TcpTransport * tcp, fleet.tcpnet.AddNode());
    fleet.transports.push_back(std::make_unique<ObservedTransport>(tcp));
    ObservedTransport* transport = fleet.transports.back().get();
    BP_ASSIGN_OR_RETURN(auto node, core::BestPeerNode::Create(
                                       transport, &fleet.infra, config));
    BP_RETURN_IF_ERROR(node->InitStorage(store));
    for (size_t o = 0; o < kObjects; ++o) {
      bestpeer::Bytes content;
      {
        ScopedSpan span(spans, "workload.corpus");
        content = corpus.MakeObject(o < kMatches);
      }
      ScopedSpan span(spans, "core.share");
      BP_RETURN_IF_ERROR(node->ShareObject(
          (static_cast<uint64_t>(i) << 24) | o, content));
    }
    fleet.infra.code_cache.Load(node->node(), core::kSearchAgentClass);
    transport->set_after([&fleet, i]() { CheckCompletions(fleet, i); });
    fleet.nodes.push_back(std::move(node));
  }
  fleet.pending.resize(kNodes);
  fleet.tcpnet.Start();

  // Join one node at a time, timing JoinNetwork -> callback. The wait
  // state is shared with the callback, which may outlive a timed-out wait.
  struct JoinWait {
    std::mutex mu;
    std::condition_variable cv;
    int64_t joined_us = 0;  // Guarded by mu.
    bool ok = false;        // Guarded by mu.
  };
  for (size_t i = 0; i < kNodes; ++i) {
    ScopedSpan span(spans, "liglo.join");
    auto wait = std::make_shared<JoinWait>();
    int64_t start_us = 0;
    fleet.tcpnet.Run([&fleet, &start_us, wait, i]() {
      core::BestPeerNode* node = fleet.nodes[i].get();
      const auto ip = fleet.infra.ip_directory.AssignFresh(node->node());
      start_us = fleet.tcpnet.reactor().now_us();
      node->JoinNetwork(fleet.server_transport->local(), ip,
                        [&fleet, wait](auto outcome) {
                          std::lock_guard<std::mutex> lock(wait->mu);
                          wait->joined_us = fleet.tcpnet.reactor().now_us();
                          wait->ok = outcome.ok();
                          wait->cv.notify_all();
                        });
    });
    std::unique_lock<std::mutex> lock(wait->mu);
    const bool done =
        wait->cv.wait_for(lock, std::chrono::microseconds(kJoinTimeoutUs),
                          [&wait]() { return wait->joined_us != 0; });
    if (!done || !wait->ok) return Status::Internal("LIGLO join failed");
    if (keep_join_samples) {
      record->samples["liglo.join_ms"].push_back(
          static_cast<double>(wait->joined_us - start_us) / 1e3);
    }
  }

  // A joiner's connect notices are still in flight when its callback
  // fires. Wait until every peer link is known at both ends, so the
  // overlay the ground truth is computed from is the one agents travel.
  const int64_t settle_deadline =
      fleet.tcpnet.reactor().now_us() + kJoinTimeoutUs;
  for (;;) {
    bool settled = false;
    fleet.tcpnet.Run([&]() { settled = OverlaySymmetric(fleet); });
    if (settled) break;
    if (fleet.tcpnet.reactor().now_us() > settle_deadline) {
      return Status::Internal("overlay did not settle after the joins");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Closed-loop warm-up from every node in turn: dials the connections
  // and loads the agent class everywhere.
  for (size_t w = 0; w < kWarmupQueries; ++w) {
    ScopedSpan span(spans, "query", static_cast<int64_t>(w));
    const size_t issuer = w % kNodes;
    size_t index = 0;
    fleet.tcpnet.Run([&]() {
      index = NewQuery(fleet, issuer, true, fleet.tcpnet.reactor().now_us());
      IssueOnReactor(fleet, issuer, index);
    });
    if (!WaitCompleted(fleet, w + 1,
                       fleet.issues[index].due_us + kQueryTimeoutUs)) {
      return Status::Internal("warm-up query timed out");
    }
  }
  return Status::OK();
}

/// Reactor thread CPU time, read from any thread.
double ThreadCpuSeconds(clockid_t clock) {
  struct timespec ts {};
  if (clock_gettime(clock, &ts) != 0) return 0;
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

const std::vector<std::string>& LayerCounters() {
  static const std::vector<std::string> names = {
      "net.tx_msgs",          "net.tx_bytes",     "net.tx_dropped",
      "net.reconnects",       "net.frame_errors", "core.answers_received",
      "agent.migrations",     "agent.executed",   "agent.received",
      "agent.serialize_bytes", "storm.pool_hits", "storm.pool_misses"};
  return names;
}

Status RunTcp(const RunOptions& options, RunRecord* record) {
  SpanRecorder spans;
  std::unique_ptr<TcpFleet> fleet;
  for (size_t s = 0; s < kSetups; ++s) {
    const bool last = s + 1 == kSetups;
    fleet.reset();
    spans.set_enabled(options.trace && last);
    const int64_t t0 = NowNs();
    {
      ScopedSpan root(spans, "setup");
      fleet = std::make_unique<TcpFleet>();
      BP_RETURN_IF_ERROR(BuildAndJoin(options.seed, *fleet, spans, record,
                                      options.trace && last));
    }
    record->setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  TcpFleet& f = *fleet;
  for (const auto& node : f.nodes) {
    record->placement[static_cast<uint32_t>(node->node())] = kMatches;
  }
  record->counters["workload.corpus_objects"] =
      static_cast<double>(kNodes * kObjects);

  metrics::Snapshot before;
  clockid_t reactor_clock{};
  bool have_clock = false;
  f.tcpnet.Run([&]() {
    before = f.registry.TakeSnapshot();
    have_clock = pthread_getcpuclockid(pthread_self(), &reactor_clock) == 0;
  });
  const double cpu0 = have_clock ? ThreadCpuSeconds(reactor_clock) : 0;

  // Open loop: query k is due at start + k / rate, issued from node
  // k mod N. The generator sleeps to each due time and posts the issue.
  std::vector<double>& gen_lag = record->samples["bench.gen_lag_ms"];
  std::vector<double>& reactor_lag = record->samples["net.reactor_lag_us"];
  const int64_t period_us = static_cast<int64_t>(1e6 / kRatePerSecond);
  const int64_t start_us = f.tcpnet.reactor().now_us() + period_us;
  const size_t warmups = f.queries.size();
  size_t issued = 0;
  auto sleep_until = [&](int64_t t_us) {
    const int64_t left = t_us - f.tcpnet.reactor().now_us();
    if (left > 0) std::this_thread::sleep_for(std::chrono::microseconds(left));
  };
  for (;;) {
    const int64_t due = start_us + static_cast<int64_t>(issued) * period_us;
    const double offset_s = static_cast<double>(due - start_us) / 1e6;
    if (offset_s >= kMaxMeasureSeconds) break;
    if (offset_s >= options.seconds && issued >= kWindowQueries) break;
    sleep_until(due);
    gen_lag.push_back(
        static_cast<double>(f.tcpnet.reactor().now_us() - due) / 1e3);
    const size_t issuer = issued % kNodes;
    const bool traced = options.trace && issued % 2 == 0;
    f.tcpnet.reactor().Post([&f, issuer, due, traced]() {
      const size_t index = NewQuery(f, issuer, false, due);
      f.queries[index].traced = traced;
      IssueOnReactor(f, issuer, index);
    });
    ++issued;
    // Reactor lag: how long a no-op posted mid-period waits for the
    // shared thread. Two per traced query, so the p90 has ten samples
    // beyond it once the window is complete.
    for (int64_t quarter = 1; traced && quarter <= 3; quarter += 2) {
      sleep_until(due + period_us * quarter / 4);
      const int64_t posted = f.tcpnet.reactor().now_us();
      f.tcpnet.reactor().Post([&f, &reactor_lag, posted]() {
        reactor_lag.push_back(
            static_cast<double>(f.tcpnet.reactor().now_us() - posted));
      });
    }
  }
  const int64_t last_due = start_us + static_cast<int64_t>(issued - 1) *
                                          period_us;
  WaitCompleted(f, warmups + issued, last_due + kQueryTimeoutUs);
  const double cpu1 = have_clock ? ThreadCpuSeconds(reactor_clock) : 0;
  const int64_t end_us = f.tcpnet.reactor().now_us();
  record->measure_s = static_cast<double>(end_us - start_us) / 1e6;

  // Snapshot answers and counters on the reactor, then stop it.
  f.tcpnet.Run([&]() {
    for (size_t k = 0; k < f.queries.size(); ++k) {
      QueryRecord& q = f.queries[k];
      const Issue& issue = f.issues[k];
      q.completed = issue.done_us != 0;
      q.host_ms = static_cast<double>(
                      (q.completed ? issue.done_us : end_us) - issue.due_us) /
                  1e3;
      const core::QuerySession* session =
          f.nodes[issue.issuer]->FindSession(issue.query_id);
      if (session == nullptr) continue;
      q.unique = session->unique_answers();
      for (const core::ResponseEvent& e : session->responses()) {
        q.observed.emplace_back(static_cast<uint32_t>(e.node),
                                static_cast<uint32_t>(e.answers));
      }
    }
    if (options.trace) {
      record->samples["core.issue_us"] = f.issue_us;
      AddCounterDeltas(before, f.registry.TakeSnapshot(), LayerCounters(),
                       record);
      record->counters["liglo.retries"] =
          f.registry.TakeSnapshot().Value("liglo.retries");
      record->counters["net.reactor_busy_s"] = cpu1 - cpu0;
    }
  });
  f.tcpnet.Stop();
  record->queries = std::move(f.queries);

  if (options.trace) {
    spans.set_enabled(true);
    RunStoreProbes(f.nodes[0]->storage(),
                   bestpeer::workload::CorpusGenerator::kNeedle, spans,
                   record);
    if (!spans.Write(options.spans_path)) {
      return Status::Internal("cannot write " + options.spans_path);
    }
  }
  return Status::OK();
}

}  // namespace

RunRecord RunTcpWorkload(const RunOptions& options) {
  RunRecord record;
  record.workload = options.workload;
  record.seed = options.seed;
  record.trace = options.trace;
  Status status = RunTcp(options, &record);
  if (!status.ok()) record.error = status.ToString();
  record.peak_rss_mb = PeakRssMb();
  return record;
}

}  // namespace perfbench
