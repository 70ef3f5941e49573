#ifndef GAIA_BENCH_SPANS_H_
#define GAIA_BENCH_SPANS_H_

#include <chrono>
#include <cstdint>

#include "obs/trace.h"

namespace gaia::bench {

/// Nanoseconds on the steady clock.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// \brief Times one public call for the report and, while observability is
/// on, records it as an obs::TraceSpan nested under whatever span is open on
/// this thread (the program's own spans nest under it in turn). Bench spans
/// are named `bench.*` so a trace tells them from the program's.
class Timed {
 public:
  explicit Timed(const char* name) : span_(name) {}

  /// Microseconds since construction; the span itself ends with the scope.
  double Us() const { return static_cast<double>(NowNs() - start_ns_) * 1e-3; }

 private:
  obs::TraceSpan span_;
  int64_t start_ns_ = NowNs();
};

}  // namespace gaia::bench

#endif  // GAIA_BENCH_SPANS_H_
