#include "stats.h"

#include <algorithm>

namespace gaia::bench {

namespace {

// Tail levels in per mille, highest first.
constexpr int kTailLevels[] = {999, 990, 950, 900};

/// Nearest rank of the `per_mille` / 1000 quantile among n samples; integer
/// arithmetic keeps it exact.
int64_t Rank(int64_t n, int per_mille) {
  return (static_cast<int64_t>(per_mille) * n + 999) / 1000;
}

}  // namespace

Tail TailQuantile(std::vector<double> samples, int64_t min_beyond,
                  int max_per_mille) {
  Tail tail;
  std::sort(samples.begin(), samples.end());
  const auto n = static_cast<int64_t>(samples.size());
  for (int per_mille : kTailLevels) {
    if (per_mille > max_per_mille) continue;
    const int64_t rank = Rank(n, per_mille);
    if (n == 0 || n - rank < min_beyond) continue;
    tail.level = per_mille / 1000.0;
    tail.value = samples[static_cast<size_t>(std::max<int64_t>(rank, 1) - 1)];
    tail.beyond = n - rank;
    return tail;
  }
  return tail;
}

}  // namespace gaia::bench
