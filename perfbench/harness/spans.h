#ifndef PERFBENCH_HARNESS_SPANS_H_
#define PERFBENCH_HARNESS_SPANS_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

/// Nanoseconds on the host's steady clock.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Host-time spans recorded around the harness's calls into the
/// program's layers. Spans nest by call order: the span open when another
/// begins is its parent. Everything stays in memory until Write().
///
/// Single-threaded: only the harness thread records.
class SpanRecorder {
 public:
  struct Span {
    const char* name = nullptr;  // Static string: "<layer>.<call>".
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int32_t parent = -1;  // Index into spans(), -1 for a root.
    int64_t query = -1;   // Query id, -1 outside a query.
  };

  /// When disabled, Begin/End cost one branch and record nothing.
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  /// Opens a span and returns its handle (-1 when disabled).
  int32_t Begin(const char* name, int64_t query = -1) {
    if (!enabled_) return -1;
    Span span;
    span.name = name;
    span.parent = open_.empty() ? -1 : open_.back();
    span.query = query;
    spans_.push_back(span);
    const int32_t id = static_cast<int32_t>(spans_.size() - 1);
    open_.push_back(id);
    spans_[id].start_ns = NowNs();
    return id;
  }

  void End(int32_t id) {
    if (id < 0) return;
    spans_[id].end_ns = NowNs();
    // Spans close in LIFO order; pop through any the caller left open.
    while (!open_.empty()) {
      const int32_t top = open_.back();
      open_.pop_back();
      if (top == id) break;
    }
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes one JSON array per line: [name, start_ns, end_ns, parent,
  /// query], times relative to the first span. Returns false on I/O error.
  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    for (const Span& s : spans_) {
      std::fprintf(f, "[\"%s\",%lld,%lld,%d,%lld]\n", s.name,
                   static_cast<long long>(s.start_ns - origin),
                   static_cast<long long>(s.end_ns - origin), s.parent,
                   static_cast<long long>(s.query));
    }
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, const char* name, int64_t query = -1)
      : recorder_(recorder), id_(recorder.Begin(name, query)) {}
  ~ScopedSpan() { recorder_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& recorder_;
  int32_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_SPANS_H_
