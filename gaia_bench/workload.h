#ifndef GAIA_BENCH_WORKLOAD_H_
#define GAIA_BENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

namespace gaia::bench {

/// The four workloads of record (see README.md for why each exists).
enum class Workload { kOnlineSkewed, kOnlineChurn, kBatchSweep, kMonthlyCycle };

const std::vector<Workload>& AllWorkloads();
const char* WorkloadName(Workload workload);
/// False when `name` is not a workload.
bool ParseWorkload(const std::string& name, Workload* out);

/// One run's settings, all from the command line.
struct RunOptions {
  Workload workload = Workload::kOnlineSkewed;
  uint64_t seed = 1;
  /// Wall time the measured phase runs for (whole passes, sweeps or cycles;
  /// at least one of each).
  double seconds = 10.0;
  /// 60 shops, 200-request passes, 2-epoch cycles, one set-up: the quick
  /// configuration the smoke test runs.
  bool smoke = false;
  /// Non-empty: take a traced run and write its Chrome trace here.
  std::string trace_path;
  /// Directory for checkpoint stores; created and removed by the run.
  std::string workdir = "gaia_bench_work";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one workload run reports.
struct RunReport {
  std::string workload;
  bool correct = true;
  /// Forecasts the measured phase asked for, and how many of them failed a
  /// check (not full-horizon, not finite, negative, or not byte-equal to the
  /// reference of a live generation).
  int64_t attempted = 0;
  int64_t failed = 0;
  /// FNV-1a digest of the generated request stream and fault seed: equal
  /// seeds must give equal digests.
  uint64_t stream_digest = 0;
  /// End-to-end metrics, then (traced runs) per-layer metrics.
  std::vector<Metric> metrics;
  /// Why the run is not correct, one line each.
  std::vector<std::string> errors;
};

/// Runs one workload in this process: set-up, the measured phase, output
/// checks and, when tracing, the traced phase and the replays.
RunReport RunWorkload(const RunOptions& options);

}  // namespace gaia::bench

#endif  // GAIA_BENCH_WORKLOAD_H_
