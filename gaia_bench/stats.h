#ifndef GAIA_BENCH_STATS_H_
#define GAIA_BENCH_STATS_H_

#include <cstdint>
#include <vector>

namespace gaia::bench {

/// A tail quantile together with the samples that support it.
struct Tail {
  /// Quantile level (0.999, 0.99, 0.95 or 0.9); 0 when no level has enough
  /// samples beyond it.
  double level = 0.0;
  double value = 0.0;
  /// Samples ranked after the quantile (n - rank).
  int64_t beyond = 0;

  bool supported() const { return level > 0.0; }
};

/// The highest of p99.9 / p99 / p95 / p90 that is at most `max_per_mille`
/// and has at least `min_beyond` samples ranked after it, with that count.
/// The value is the nearest-rank sample (rank ceil(q * n)), so `beyond`
/// counts real samples. A timing is only reported at a percentile the sample
/// supports; an unsupported result (level 0) must not be printed as a tail.
Tail TailQuantile(std::vector<double> samples, int64_t min_beyond = 10,
                  int max_per_mille = 999);

}  // namespace gaia::bench

#endif  // GAIA_BENCH_STATS_H_
