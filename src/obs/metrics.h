#ifndef GAIA_OBS_METRICS_H_
#define GAIA_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace gaia::obs {

/// \brief Runtime observability level for the whole process.
///
/// kOff (default) keeps every instrumentation site down to a single relaxed
/// atomic load; kOn records phase-level spans and metrics; kDetail adds the
/// per-node/per-edge spans (CAU attends, pool chunks) that make Chrome
/// traces dense but cost a ring-buffer write per event.
enum class Level : int { kOff = 0, kOn = 1, kDetail = 2 };

/// Current level. Initialized once from the GAIA_OBS environment variable
/// ("" or "0" = off, "1"/"on" = on, "2"/"detail" = detail); overridable at
/// runtime with SetLevel. The load is relaxed — flipping the level while
/// parallel work is in flight is safe but takes effect per-site.
Level CurrentLevel();
void SetLevel(Level level);

/// True when phase-level instrumentation should record (level >= kOn).
inline bool Enabled() { return CurrentLevel() >= Level::kOn; }
/// True when high-frequency instrumentation should record (level >= kDetail).
inline bool DetailEnabled() { return CurrentLevel() >= Level::kDetail; }

/// \brief Monotonically increasing event count. Lock-free; safe to bump
/// from any thread, including ParallelFor bodies.
class Counter {
 public:
  void Increment(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// \brief Last-write-wins instantaneous value (doubles). Add() is a CAS loop
/// so concurrent adders never lose updates.
class Gauge {
 public:
  void Set(double v) { bits_.store(Encode(v), std::memory_order_relaxed); }
  void Add(double delta);
  double value() const { return Decode(bits_.load(std::memory_order_relaxed)); }
  void Reset() { Set(0.0); }

 private:
  static uint64_t Encode(double v);
  static double Decode(uint64_t bits);
  std::atomic<uint64_t> bits_{0};
};

/// \brief Fixed-bucket histogram (Prometheus classic layout): cumulative
/// counts per upper bound plus a +Inf overflow bucket, total count and sum.
/// Observe() is lock-free: one binary search over the immutable bounds and
/// two relaxed atomic adds, so it is safe inside ParallelFor bodies and
/// cannot perturb the deterministic kernels it measures.
class Histogram {
 public:
  /// `bounds` are strictly increasing upper bounds; an implicit +Inf bucket
  /// is appended. The default layout suits latencies in seconds.
  explicit Histogram(std::vector<double> bounds);

  void Observe(double v);

  /// 2^k-style layout: start, start*factor, ... (count bounds).
  static std::vector<double> ExponentialBuckets(double start, double factor,
                                                int count);
  /// Default latency layout: 1us .. ~8.6s in x2 steps (24 buckets).
  static std::vector<double> DefaultLatencyBuckets();

  const std::vector<double>& bounds() const { return bounds_; }
  /// Non-cumulative count of bucket i (i == bounds().size() is +Inf).
  uint64_t bucket_count(size_t i) const {
    return counts_[i].load(std::memory_order_relaxed);
  }
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const;
  void Reset();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<uint64_t>[]> counts_;  // bounds_.size() + 1
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_bits_{0};  // double, CAS-accumulated
};

/// \brief Process-wide registry mapping metric names to instances.
///
/// Registration takes a mutex; hot paths should hold the returned reference
/// (references are stable for the registry's lifetime — metrics are
/// heap-allocated and never removed). Names follow the Prometheus
/// convention documented in docs/OBSERVABILITY.md:
/// `gaia_<area>_<what>[_<unit>][_total]`.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  /// Returns the named counter, creating it on first use. `help` is kept
  /// from the first registration.
  Counter& GetCounter(const std::string& name, const std::string& help = "");
  Gauge& GetGauge(const std::string& name, const std::string& help = "");
  /// On first use creates the histogram with `bounds` (empty = default
  /// latency buckets); later calls ignore `bounds` and return the original.
  Histogram& GetHistogram(const std::string& name,
                          std::vector<double> bounds = {},
                          const std::string& help = "");

  /// Prometheus text exposition format (# HELP / # TYPE / samples), metrics
  /// sorted by name; histograms emit cumulative `_bucket{le=...}`, `_sum`,
  /// `_count` series.
  std::string ExportPrometheus() const;
  /// JSON object: {"counters": {...}, "gauges": {...}, "histograms":
  /// {name: {"bounds": [...], "counts": [...], "count": n, "sum": s}}}.
  std::string ExportJson() const;

  /// Read-only snapshot of a counter's current value without creating it:
  /// returns 0 when `name` is unregistered. The bench harness uses this to
  /// attribute pool/allocation counters to a case without registering
  /// instruments the workload itself never touched.
  uint64_t CounterValue(const std::string& name) const;

  /// Read-only snapshot of a gauge's current value without creating it;
  /// returns 0.0 when `name` is unregistered. /statusz uses this to report
  /// the drift gauges without registering them itself.
  double GaugeValue(const std::string& name) const;

  /// Zeroes every registered metric (tools and tests isolate runs with
  /// this); registrations themselves are kept.
  void ResetAll();

 private:
  struct Entry {
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
    std::string help;
  };

  mutable std::mutex mu_;
  std::map<std::string, Entry> metrics_;  // ordered => sorted exports
};

}  // namespace gaia::obs

#endif  // GAIA_OBS_METRICS_H_
