// Percentile summaries for the pipeline benchmark. Every percentile states
// the sample count it came from, and a high percentile is refused unless at
// least kMinBeyond samples lie beyond it: a p99 over 200 samples is the
// second-largest value, not a latency distribution.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// Samples that must lie strictly above a reported percentile's rank.
constexpr std::size_t kMinBeyond = 10;

struct Percentile {
  double value = 0.0;
  std::size_t n = 0;      ///< samples the percentile was taken over
  bool ok = false;        ///< false: refused (too few samples beyond it)
};

/// Nearest-rank percentile @p q in (0, 1) over @p samples. The median
/// (q = 0.5) interpolates between the two middle samples of an even count
/// and needs only one sample; any other q is refused when fewer than
/// kMinBeyond samples rank above it.
inline Percentile TakePercentile(std::vector<double> samples, double q) {
  Percentile p;
  p.n = samples.size();
  if (samples.empty()) return p;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  if (q == 0.5) {
    p.value = n % 2 == 1 ? samples[n / 2]
                         : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
    p.ok = true;
    return p;
  }
  // Nearest rank: the smallest rank r (1-based) with r >= q * n.
  std::size_t rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  p.value = samples[rank - 1];
  p.ok = n - rank >= kMinBeyond;
  return p;
}

inline Percentile Median(std::vector<double> samples) {
  return TakePercentile(std::move(samples), 0.5);
}

}  // namespace perfbench
