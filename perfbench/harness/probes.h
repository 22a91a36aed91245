#ifndef PERFBENCH_HARNESS_PROBES_H_
#define PERFBENCH_HARNESS_PROBES_H_

#include <string>
#include <vector>

#include "record.h"
#include "spans.h"
#include "storm/storm.h"
#include "util/metrics.h"

namespace perfbench {

/// Layer probes run after the measured phase of a traced run, against
/// the base node's own store. Each probe is a span of its layer and adds
/// its timings to `record->samples`.
///
/// storm.scan_ms: Storm::ScanSearch(keyword) over the whole store.
/// storm.index_search_us: Storm::IndexSearch(keyword), when indexed.
/// compress.lzss_mb_per_s: LzssCodec round trips over the stored objects.
void RunStoreProbes(bestpeer::storm::Storm* store, const std::string& keyword,
                    SpanRecorder& spans, RunRecord* record);

/// Adds `after - before` for each counter name to `record->counters`
/// (summed across label sets).
void AddCounterDeltas(const bestpeer::metrics::Snapshot& before,
                      const bestpeer::metrics::Snapshot& after,
                      const std::vector<std::string>& names,
                      RunRecord* record);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_PROBES_H_
