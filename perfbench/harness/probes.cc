#include "probes.h"

#include "compress/lzss_codec.h"

namespace perfbench {
namespace {

constexpr int kScanRepeats = 5;
constexpr int kIndexRepeats = 200;
constexpr int kLzssRepeats = 5;
constexpr size_t kLzssObjects = 64;

}  // namespace

void RunStoreProbes(bestpeer::storm::Storm* store, const std::string& keyword,
                    SpanRecorder& spans, RunRecord* record) {
  ScopedSpan probe(spans, "probe");
  std::vector<double>& scan_ms = record->samples["storm.scan_ms"];
  for (int r = 0; r < kScanRepeats; ++r) {
    ScopedSpan span(spans, "storm.scan");
    const int64_t t0 = NowNs();
    auto result = store->ScanSearch(keyword);
    scan_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
    if (!result.ok()) record->error = "scan probe failed";
  }

  // IndexSearch answers only on an indexed store; the scan workloads
  // build none, so the probe is skipped there.
  if (store->index().document_count() > 0) {
    std::vector<double>& index_us = record->samples["storm.index_search_us"];
    for (int r = 0; r < kIndexRepeats; ++r) {
      ScopedSpan span(spans, "storm.index_search");
      const int64_t t0 = NowNs();
      auto result = store->IndexSearch(keyword);
      index_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
      if (!result.ok()) record->error = "index probe failed";
    }
  }

  std::vector<bestpeer::Bytes> objects;
  for (bestpeer::storm::ObjectId id : store->ListIds()) {
    if (objects.size() >= kLzssObjects) break;
    auto content = store->Get(id);
    if (content.ok()) objects.push_back(std::move(content).value());
  }
  const bestpeer::LzssCodec codec;
  std::vector<double>& mb_per_s = record->samples["compress.lzss_mb_per_s"];
  for (int r = 0; r < kLzssRepeats && !objects.empty(); ++r) {
    ScopedSpan span(spans, "compress.lzss");
    size_t bytes = 0;
    const int64_t t0 = NowNs();
    for (const bestpeer::Bytes& raw : objects) {
      auto packed = codec.Compress(raw);
      if (!packed.ok()) continue;
      auto unpacked = codec.Decompress(packed.value());
      if (!unpacked.ok() || unpacked.value() != raw) {
        record->error = "lzss probe did not round-trip";
      }
      bytes += raw.size();
    }
    const double seconds = static_cast<double>(NowNs() - t0) / 1e9;
    mb_per_s.push_back(static_cast<double>(bytes) / 1e6 / seconds);
  }
}

void AddCounterDeltas(const bestpeer::metrics::Snapshot& before,
                      const bestpeer::metrics::Snapshot& after,
                      const std::vector<std::string>& names,
                      RunRecord* record) {
  for (const std::string& name : names) {
    record->counters[name] = after.Value(name) - before.Value(name);
  }
}

}  // namespace perfbench
