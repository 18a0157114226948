// Tests for the benchmark's own arithmetic: the tail-percentile rule,
// quartiles (checked against values Python's statistics.quantiles gives),
// self time under overlapping child spans, ladder and paired differences and
// the span file round trip. Exit code 0 when every check holds.
//
//   perfbench_selftest [scratch-dir]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "spans.hpp"
#include "stats.hpp"

namespace {

int g_failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "FAIL line %d: %s\n", line, what);
    ++g_failures;
  }
}

#define CHECK(expr) check((expr), #expr, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) <= 1e-12 * std::max(1.0, std::fabs(b)); }

std::vector<double> iota(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) {
    v.push_back(static_cast<double>(i));
  }
  return v;
}

void test_tail_percentile_rule() {
  using perfbench::samples_beyond;
  using perfbench::tail_percentile;
  CHECK(perfbench::nearest_rank(100, 90) == 90);
  CHECK(perfbench::nearest_rank(101, 90) == 91);
  CHECK(perfbench::nearest_rank(1, 50) == 1);
  CHECK(samples_beyond(100, 90) == 10);
  CHECK(samples_beyond(99, 90) == 9);
  CHECK(samples_beyond(0, 90) == 0);
  CHECK(perfbench::min_samples_for(90) == 100);
  CHECK(perfbench::min_samples_for(99) == 1000);
  // 99 samples: only 9 beyond the p90, so it is withheld.
  CHECK(!tail_percentile(iota(99), 90).has_value());
  // 100 samples 1..100: p90 is the 90th smallest; order does not matter.
  std::vector<double> shuffled = iota(100);
  std::swap(shuffled[0], shuffled[99]);
  std::swap(shuffled[10], shuffled[50]);
  const auto p90 = tail_percentile(shuffled, 90);
  CHECK(p90.has_value() && *p90 == 90.0);
  CHECK(tail_percentile(iota(5), 50, 2).value_or(-1) == 3.0);
  CHECK(!tail_percentile({}, 50, 0).has_value());
}

void test_median_and_quartiles() {
  CHECK(perfbench::median({3, 1, 2}) == 2.0);
  CHECK(perfbench::median({4, 1, 3, 2}) == 2.5);
  CHECK(perfbench::median({}) == 0.0);
  CHECK(!perfbench::quartiles({1.0}).has_value());
  // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
  auto q = perfbench::quartiles(iota(10));
  CHECK(q && near((*q)[0], 2.75) && near((*q)[1], 5.5) && near((*q)[2], 8.25));
  // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
  q = perfbench::quartiles({4, 3, 2, 1});
  CHECK(q && near((*q)[0], 1.25) && near((*q)[1], 2.5) && near((*q)[2], 3.75));
  // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25] (extrapolates)
  q = perfbench::quartiles({1, 2});
  CHECK(q && near((*q)[0], 0.75) && near((*q)[1], 1.5) && near((*q)[2], 2.25));
  // statistics.quantiles([1.0, 2.0, 4.0, 8.0, 16.0], n=4) == [1.5, 4.0, 12.0]
  q = perfbench::quartiles({16, 8, 4, 2, 1});
  CHECK(q && near((*q)[0], 1.5) && near((*q)[1], 4.0) && near((*q)[2], 12.0));
}

void test_ladder() {
  const std::vector<double> steps = perfbench::ladder_steps({10.0, 25.0, 60.0, 64.0});
  CHECK(steps.size() == 4);
  CHECK(steps[0] == 10.0 && steps[1] == 15.0 && steps[2] == 35.0 && steps[3] == 4.0);
  double sum = 0;
  for (const double s : steps) {
    sum += s;
  }
  CHECK(sum == 64.0);
  // A rung cheaper than the one below it yields a negative step, kept as is.
  const std::vector<double> noisy = perfbench::ladder_steps({10.0, 9.5});
  CHECK(noisy[1] == -0.5);
  CHECK(perfbench::ladder_steps({}).empty());
  CHECK(perfbench::ratio(1, 0) == 0.0 && perfbench::ratio(1, 4) == 0.25);
}

void test_paired_differences() {
  // Only keys on both sides pair up, in key order, however many other
  // samples either side holds.
  const std::map<std::uint64_t, double> checked = {{3, 30.0}, {7, 12.0}, {11, 50.0}, {15, 9.0}};
  const std::map<std::uint64_t, double> vanilla = {{3, 10.0}, {11, 45.0}, {15, 10.0}, {19, 1.0}};
  const std::vector<double> d = perfbench::paired_differences(checked, vanilla);
  CHECK(d.size() == 3 && d[0] == 20.0 && d[1] == 5.0 && d[2] == -1.0);
  CHECK(perfbench::median(d) == 5.0);
  CHECK(perfbench::paired_differences(checked, {}).empty());
}

perfbench::Span make(std::uint32_t id, std::uint32_t parent, std::uint64_t start, std::uint64_t end,
                     const char* name) {
  perfbench::Span s;
  s.id = id;
  s.parent = parent;
  s.op = 7;
  s.start_ns = start;
  s.end_ns = end;
  s.name = name;
  return s;
}

void test_self_time() {
  // op [0,100) with children a [10,40), b [30,60) overlapping, c [80,120)
  // sticking out past the parent; a has a grandchild [15,20).
  const std::vector<perfbench::Span> spans = {
      make(1, 0, 0, 100, "op"),      make(2, 1, 10, 40, "a"), make(3, 1, 30, 60, "b"),
      make(4, 1, 80, 120, "c"),      make(5, 2, 15, 20, "g"), make(6, 0, 200, 210, "other"),
  };
  const std::vector<std::uint64_t> self = perfbench::self_times_ns(spans);
  // Covered: [10,60) union [80,100) = 70 -> self 30.
  CHECK(self[0] == 30);
  CHECK(self[1] == 25);  // a: 30 minus grandchild 5
  CHECK(self[2] == 30);
  CHECK(self[3] == 40);  // c's own children: none
  CHECK(self[4] == 5);
  CHECK(self[5] == 10);
  // Identical children count once.
  const std::vector<perfbench::Span> twins = {make(1, 0, 0, 10, "op"), make(2, 1, 2, 6, "x"),
                                              make(3, 1, 2, 6, "y")};
  CHECK(perfbench::self_times_ns(twins)[0] == 6);
  // A child that lies wholly outside its parent covers none of it.
  const std::vector<perfbench::Span> outside = {make(1, 0, 0, 10, "op"),
                                                make(2, 1, 20, 30, "late")};
  CHECK(perfbench::self_times_ns(outside)[0] == 10);
}

void test_span_round_trip(const std::filesystem::path& dir) {
  std::vector<perfbench::Span> spans = {make(1, 0, 5, 9, "op"), make(2, 1, 6, 8, "svc.queue"),
                                        make(3, 1, 18446744073709551000ULL,
                                             18446744073709551615ULL, "capi.setup")};
  spans[1].op = 0;
  const std::filesystem::path path = dir / ("perfbench_selftest_" + std::to_string(::getpid()));
  std::string error;
  CHECK(perfbench::write_spans(path.string(), spans, &error));
  std::vector<perfbench::Span> back;
  CHECK(perfbench::read_spans(path.string(), &back, &error));
  CHECK(back == spans);
  std::filesystem::remove(path);
  // Empty log round-trips too.
  std::string text;
  CHECK(perfbench::format_spans({}, &text, &error));
  CHECK(perfbench::parse_spans(text, &back, &error) && back.empty());
  // Names with a tab cannot be written; malformed lines are rejected.
  CHECK(!perfbench::format_spans({make(1, 0, 0, 1, "bad\tname")}, &text, &error));
  CHECK(perfbench::format_spans(spans, &text, &error));
  CHECK(!perfbench::parse_spans(text + "1\t0\t0\tx\t2\tname\n", &back, &error));
  CHECK(!perfbench::parse_spans(text + "1\t0\t0\t1\n", &back, &error));
  CHECK(!perfbench::parse_spans("no header\n", &back, &error));
}

}  // namespace

int main(int argc, char** argv) {
  // The round-trip file goes to the directory named by argv[1] (default: the
  // working directory) and is removed again.
  const std::filesystem::path dir = argc > 1 ? argv[1] : ".";
  test_tail_percentile_rule();
  test_median_and_quartiles();
  test_ladder();
  test_paired_differences();
  test_self_time();
  test_span_round_trip(dir);
  if (g_failures != 0) {
    std::fprintf(stderr, "perfbench_selftest: %d check(s) failed\n", g_failures);
    return 1;
  }
  std::fprintf(stderr, "perfbench_selftest: all checks passed\n");
  return 0;
}
