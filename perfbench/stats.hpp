// The benchmark's own arithmetic: medians, gated tail percentiles, quartiles
// and flavor-ladder differences. Header-only and free of checker
// dependencies so perfbench_selftest can pin every rule with exact values.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <vector>

namespace perfbench {

/// Median (mean of the two middle samples for an even count); 0 when empty.
[[nodiscard]] inline double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

/// 1-based nearest rank of the `percent`-th percentile among `n` samples:
/// the smallest rank with at least `percent`% of the samples at or below it.
/// Integer arithmetic, so 90% of 100 is exactly rank 90.
[[nodiscard]] inline std::size_t nearest_rank(std::size_t n, unsigned percent) {
  const std::size_t rank = (n * percent + 99) / 100;
  return std::max<std::size_t>(rank, 1);
}

/// Samples ranked strictly above the nearest-rank percentile.
[[nodiscard]] inline std::size_t samples_beyond(std::size_t n, unsigned percent) {
  return n == 0 ? 0 : n - nearest_rank(n, percent);
}

/// Minimum samples beyond a tail percentile before it is reported.
inline constexpr std::size_t kMinTailSamples = 10;

/// Nearest-rank percentile, reported only when at least `min_beyond` samples
/// lie beyond it (the p90 of 99 samples has 9 beyond and is withheld).
[[nodiscard]] inline std::optional<double> tail_percentile(std::vector<double> values,
                                                           unsigned percent,
                                                           std::size_t min_beyond = kMinTailSamples) {
  if (values.empty() || samples_beyond(values.size(), percent) < min_beyond) {
    return std::nullopt;
  }
  std::sort(values.begin(), values.end());
  return values[nearest_rank(values.size(), percent) - 1];
}

/// Smallest sample count whose `percent`-th percentile has `min_beyond`
/// samples beyond it (100 for p90 with the default rule).
[[nodiscard]] inline std::size_t min_samples_for(unsigned percent,
                                                 std::size_t min_beyond = kMinTailSamples) {
  std::size_t n = 1;
  while (samples_beyond(n, percent) < min_beyond) {
    ++n;
  }
  return n;
}

/// Quartiles exactly as Python's statistics.quantiles(values, n=4) with its
/// default "exclusive" method. Requires at least two samples.
[[nodiscard]] inline std::optional<std::array<double, 3>> quartiles(std::vector<double> values) {
  if (values.size() < 2) {
    return std::nullopt;
  }
  std::sort(values.begin(), values.end());
  const long long ld = static_cast<long long>(values.size());
  const long long m = ld + 1;
  std::array<double, 3> out{};
  for (long long i = 1; i <= 3; ++i) {
    // Python clamps j to [1, ld-1] before computing delta, so for tiny
    // samples delta may leave [0, 4] and the result extrapolates; mirror it.
    const long long j = std::clamp(i * m / 4, 1LL, ld - 1);
    const long long delta = i * m - j * 4;
    const auto lo = static_cast<std::size_t>(j - 1);
    const auto hi = static_cast<std::size_t>(j);
    out[static_cast<std::size_t>(i - 1)] =
        (values[lo] * static_cast<double>(4 - delta) + values[hi] * static_cast<double>(delta)) /
        4.0;
  }
  return out;
}

/// Per-layer times from a flavor ladder: given each rung's median time,
/// cheapest first, the first entry is the base rung itself and entry k is
/// rung k minus rung k-1. The entries sum to the top rung by construction.
[[nodiscard]] inline std::vector<double> ladder_steps(const std::vector<double>& rung_medians) {
  std::vector<double> steps;
  steps.reserve(rung_medians.size());
  for (std::size_t i = 0; i < rung_medians.size(); ++i) {
    steps.push_back(i == 0 ? rung_medians[0] : rung_medians[i] - rung_medians[i - 1]);
  }
  return steps;
}

/// `checked[k] - vanilla[k]` for every key in both maps, in key order: the
/// paired samples whose median is tool_ms. Pairing each vanilla session with
/// the checked op of the same config or scenario keeps the two sides the same
/// mix of sessions however many samples each op contributes.
[[nodiscard]] inline std::vector<double> paired_differences(
    const std::map<std::uint64_t, double>& checked, const std::map<std::uint64_t, double>& vanilla) {
  std::vector<double> out;
  for (const auto& [key, ms] : checked) {
    if (const auto it = vanilla.find(key); it != vanilla.end()) {
      out.push_back(ms - it->second);
    }
  }
  return out;
}

/// `numerator / denominator`, or 0 when nothing was attempted.
[[nodiscard]] inline double ratio(double numerator, double denominator) {
  return denominator == 0.0 ? 0.0 : numerator / denominator;
}

}  // namespace perfbench
