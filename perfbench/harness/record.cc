#include "record.h"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>

#include "obs/json_writer.h"

namespace perfbench {
namespace {

void AppendNumber(std::string* out, double v) {
  if (!std::isfinite(v)) {
    *out += "null";
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  *out += buf;
}

void AppendKey(std::string* out, const std::string& key) {
  *out += bestpeer::obs::JsonQuoted(key);
  *out += ':';
}

template <typename T>
void AppendNumberArray(std::string* out, const std::vector<T>& values) {
  *out += '[';
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) *out += ',';
    AppendNumber(out, static_cast<double>(values[i]));
  }
  *out += ']';
}

void AppendQuery(std::string* out, const QueryRecord& q) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"id\":%lld,\"issuer\":%u,\"warmup\":%s,\"traced\":%s,"
                "\"completed\":%s,\"events\":%llu,\"wire_bytes\":%llu,"
                "\"unique\":%llu,\"host_ms\":",
                static_cast<long long>(q.id), q.issuer,
                q.warmup ? "true" : "false", q.traced ? "true" : "false",
                q.completed ? "true" : "false",
                static_cast<unsigned long long>(q.events),
                static_cast<unsigned long long>(q.wire_bytes),
                static_cast<unsigned long long>(q.unique));
  *out += buf;
  AppendNumber(out, q.host_ms);
  *out += ",\"virtual_ms\":";
  AppendNumber(out, q.virtual_ms);
  *out += ",\"observed\":[";
  for (size_t i = 0; i < q.observed.size(); ++i) {
    if (i > 0) *out += ',';
    std::snprintf(buf, sizeof(buf), "[%u,%u]", q.observed[i].first,
                  q.observed[i].second);
    *out += buf;
  }
  *out += "],\"unreachable\":";
  AppendNumberArray(out, q.unreachable);
  *out += '}';
}

}  // namespace

std::string ToJson(const RunRecord& r) {
  std::string out = "{";
  AppendKey(&out, "workload");
  out += bestpeer::obs::JsonQuoted(r.workload);
  out += ",\"seed\":" + std::to_string(r.seed);
  out += ",\"trace\":" + std::string(r.trace ? "true" : "false");
  out += ",\"error\":" + bestpeer::obs::JsonQuoted(r.error);
  out += ",\"setup_s\":";
  AppendNumberArray(&out, r.setup_s);
  out += ",\"setup_digests\":[";
  for (size_t i = 0; i < r.setup_digests.size(); ++i) {
    if (i > 0) out += ',';
    out += bestpeer::obs::JsonQuoted(r.setup_digests[i]);
  }
  out += "],\"placement\":{";
  bool first = true;
  for (const auto& [node, matches] : r.placement) {
    if (!first) out += ',';
    first = false;
    char buf[48];
    std::snprintf(buf, sizeof(buf), "\"%u\":%u", node, matches);
    out += buf;
  }
  out += "},\"measure_s\":";
  AppendNumber(&out, r.measure_s);
  out += ",\"queries\":[";
  for (size_t i = 0; i < r.queries.size(); ++i) {
    if (i > 0) out += ',';
    AppendQuery(&out, r.queries[i]);
  }
  out += "],\"mutations\":[";
  for (size_t i = 0; i < r.mutations.size(); ++i) {
    if (i > 0) out += ',';
    const MutationRecord& m = r.mutations[i];
    char buf[80];
    std::snprintf(buf, sizeof(buf), "[%lld,%u,%llu,%d]",
                  static_cast<long long>(m.before_query), m.node,
                  static_cast<unsigned long long>(m.object), m.delta);
    out += buf;
  }
  out += "],\"counters\":{";
  first = true;
  for (const auto& [name, value] : r.counters) {
    if (!first) out += ',';
    first = false;
    AppendKey(&out, name);
    AppendNumber(&out, value);
  }
  out += "},\"samples\":{";
  first = true;
  for (const auto& [name, values] : r.samples) {
    if (!first) out += ',';
    first = false;
    AppendKey(&out, name);
    AppendNumberArray(&out, values);
  }
  out += "},\"peak_rss_mb\":";
  AppendNumber(&out, r.peak_rss_mb);
  out += "}";
  return out;
}

double PeakRssMb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB.
}

}  // namespace perfbench
