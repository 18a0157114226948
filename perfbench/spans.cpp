#include "spans.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <sstream>
#include <string_view>
#include <unordered_map>
#include <utility>

namespace perfbench {

namespace {

constexpr const char* kHeader = "# perfbench spans v1: id parent op start_ns end_ns name";

template <typename T>
[[nodiscard]] bool parse_field(std::string_view text, T* out) {
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), *out);
  return ec == std::errc() && ptr == text.data() + text.size();
}

}  // namespace

void SpanLog::record(Span span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

std::vector<Span> SpanLog::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::vector<std::uint64_t> self_times_ns(const std::vector<Span>& spans) {
  std::unordered_map<std::uint32_t, std::vector<std::size_t>> children;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent != 0) {
      children[spans[i].parent].push_back(i);
    }
  }
  std::vector<std::uint64_t> self(spans.size());
  std::vector<std::pair<std::uint64_t, std::uint64_t>> intervals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    intervals.clear();
    if (const auto it = children.find(span.id); it != children.end()) {
      for (const std::size_t c : it->second) {
        const std::uint64_t lo = std::max(spans[c].start_ns, span.start_ns);
        const std::uint64_t hi = std::min(spans[c].end_ns, span.end_ns);
        if (hi > lo) {
          intervals.emplace_back(lo, hi);
        }
      }
    }
    std::sort(intervals.begin(), intervals.end());
    std::uint64_t covered = 0;
    std::uint64_t run_lo = 0;
    std::uint64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : intervals) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) {
        covered += run_hi - run_lo;
      }
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) {
      covered += run_hi - run_lo;
    }
    self[i] = span.duration_ns() - covered;
  }
  return self;
}

bool format_spans(const std::vector<Span>& spans, std::string* text, std::string* error) {
  std::ostringstream out;
  out << kHeader << '\n';
  for (const Span& span : spans) {
    if (span.name.empty() || span.name.find_first_of("\t\n\r") != std::string::npos) {
      *error = "span name is empty or holds a tab or newline: '" + span.name + "'";
      return false;
    }
    out << span.id << '\t' << span.parent << '\t' << span.op << '\t' << span.start_ns << '\t'
        << span.end_ns << '\t' << span.name << '\n';
  }
  *text = out.str();
  return true;
}

bool parse_spans(const std::string& text, std::vector<Span>* spans, std::string* error) {
  spans->clear();
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != kHeader) {
    *error = "missing span file header";
    return false;
  }
  std::size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    std::vector<std::string_view> fields;
    std::string_view rest(line);
    for (int f = 0; f < 5; ++f) {
      const std::size_t tab = rest.find('\t');
      if (tab == std::string_view::npos) {
        break;
      }
      fields.push_back(rest.substr(0, tab));
      rest.remove_prefix(tab + 1);
    }
    Span span;
    if (fields.size() != 5 || rest.empty() || rest.find('\t') != std::string_view::npos ||
        !parse_field(fields[0], &span.id) || !parse_field(fields[1], &span.parent) ||
        !parse_field(fields[2], &span.op) || !parse_field(fields[3], &span.start_ns) ||
        !parse_field(fields[4], &span.end_ns)) {
      *error = "malformed span line " + std::to_string(line_no);
      return false;
    }
    span.name = std::string(rest);
    spans->push_back(std::move(span));
  }
  return true;
}

bool write_spans(const std::string& path, const std::vector<Span>& spans, std::string* error) {
  std::string text;
  if (!format_spans(spans, &text, error)) {
    return false;
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  out.close();
  if (!out) {
    *error = "cannot write " + path;
    return false;
  }
  return true;
}

bool read_spans(const std::string& path, std::vector<Span>* spans, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *error = "cannot read " + path;
    return false;
  }
  std::ostringstream text;
  text << in.rdbuf();
  return parse_spans(text.str(), spans, error);
}

}  // namespace perfbench
