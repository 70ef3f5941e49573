#ifndef GAIA_BENCH_HARNESS_SUITES_H_
#define GAIA_BENCH_HARNESS_SUITES_H_

#include <vector>

#include "bench/harness/harness.h"

namespace gaia::bench::harness {

/// The five measured suites of the perf trajectory (docs/BENCHMARKING.md).
/// Each Register* call appends its cases to `harness`; drivers pick the
/// subset they care about, bench/perf_suite registers all of them.

/// Hot tensor/graph kernels: MatMul, Conv1d, SoftmaxRows, the CAU attention,
/// ego-subgraph extraction and single-shop inference. Tag: "tensor".
void RegisterTensorCases(Harness& harness);

/// Fixed Gaia workloads (full-graph forward, training step, 256x256 MatMul)
/// swept over pool sizes. Leaves the global pool at
/// the last swept size. Tag: "scaling".
void RegisterScalingCases(Harness& harness,
                          std::vector<int> thread_counts = {1, 2, 4, 8});

/// End-to-end serving: single predictions, a 32-shop batch and the
/// checkpoint save/hot-swap round trip through ModelServer. Tag:
/// "deployment".
void RegisterDeploymentCases(Harness& harness);

/// Deadline-budgeted serving: cooperative mid-flight abort vs the legacy
/// check-after-forward path at three deadline levels; the per-pair gap is
/// the wall clock the cancellation tentpole saves. Tag: "cancel".
void RegisterCancelCases(Harness& harness);

/// Sharded serving tier: concurrent-client QPS at 1/2/4 shards, the
/// coalesced batch path and tier spin-up. items_per_rep carries the request
/// count so the JSON reports throughput. Tag: "serve_throughput".
void RegisterServeThroughputCases(Harness& harness);

/// Prevents the optimizer from discarding a benchmark result.
template <typename T>
inline void KeepAlive(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

}  // namespace gaia::bench::harness

#endif  // GAIA_BENCH_HARNESS_SUITES_H_
