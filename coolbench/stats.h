// Percentiles the way the benchmark reports them: nearest rank over every
// attempted request, where a failed or refused request is a miss (+inf) at
// every percentile, and each value carries the sample count behind it.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

namespace coolbench {

struct Percentile {
  double value = 0.0;  ///< +inf when the rank lands on a miss
  size_t samples = 0;  ///< OK samples plus misses
  size_t beyond = 0;   ///< samples ranked above the reported one
};

/// Nearest-rank percentile p (0 < p <= 100) of `ok` plus `misses` requests
/// that count as slower than any OK one. `ok` is sorted in place. With no
/// samples at all the value is 0 and `samples` says so.
inline Percentile percentile(std::vector<double>& ok, size_t misses, double p) {
  Percentile out;
  out.samples = ok.size() + misses;
  if (out.samples == 0) return out;
  std::sort(ok.begin(), ok.end());
  const double exact = p / 100.0 * static_cast<double>(out.samples);
  size_t rank = static_cast<size_t>(std::ceil(exact - 1e-9));
  rank = std::clamp<size_t>(rank, 1, out.samples);
  out.beyond = out.samples - rank;
  out.value = rank <= ok.size() ? ok[rank - 1]
                                : std::numeric_limits<double>::infinity();
  return out;
}

inline double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

}  // namespace coolbench
