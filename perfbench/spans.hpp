// In-memory span log for the traced benchmark run. Spans are recorded from
// the benchmark's own code around its calls into each layer (the program
// itself is not instrumented), kept in memory while the run measures, and
// written to a tab-separated file when it ends. Per-layer self time is a
// span's duration minus the part of it its children cover.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::uint32_t id{0};
  std::uint32_t parent{0};  ///< 0: a root span
  std::uint64_t op{0};      ///< spans of one op share this id
  std::uint64_t start_ns{0};
  std::uint64_t end_ns{0};
  std::string name;

  [[nodiscard]] std::uint64_t duration_ns() const {
    return end_ns > start_ns ? end_ns - start_ns : 0;
  }
  friend bool operator==(const Span&, const Span&) = default;
};

/// Thread-safe append-only span log. Ids are handed out before a span ends
/// so children (which finish first) can name their parent.
class SpanLog {
 public:
  [[nodiscard]] std::uint32_t reserve_id() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void record(Span span);
  [[nodiscard]] std::vector<Span> spans() const;

 private:
  std::atomic<std::uint32_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Self time of every span (same order as `spans`): its duration minus the
/// union of its direct children's intervals clipped to it. Overlapping
/// children (concurrent work under one parent) are counted once.
[[nodiscard]] std::vector<std::uint64_t> self_times_ns(const std::vector<Span>& spans);

/// Serialize to the span file format: a header line, then one line per span,
/// `id parent op start_ns end_ns name` separated by tabs. Names must not
/// contain tabs or newlines (rejected: returns false).
[[nodiscard]] bool write_spans(const std::string& path, const std::vector<Span>& spans,
                               std::string* error);
/// Parse a span file written by write_spans; false on any malformed line.
[[nodiscard]] bool read_spans(const std::string& path, std::vector<Span>* spans,
                              std::string* error);

/// String forms of the two functions above (the file I/O wraps these).
[[nodiscard]] bool format_spans(const std::vector<Span>& spans, std::string* text,
                                std::string* error);
[[nodiscard]] bool parse_spans(const std::string& text, std::vector<Span>* spans,
                               std::string* error);

}  // namespace perfbench
