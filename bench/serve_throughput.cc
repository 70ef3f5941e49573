// Sharded serving throughput driver: QPS and tail wall time vs shard count
// through serving::ShardedServer, with the standard harness flags.
//
//   ./build/bench/serve_throughput --json BENCH_serve.json
//   ./build/bench/serve_throughput --reps 5
//
// The gaia.bench/1 JSON is the same document bench/perf_suite embeds, so
// tools/bench_compare gates these cases in CI like every other layer.

#include "bench/harness/suites.h"

int main(int argc, char** argv) {
  using namespace gaia::bench::harness;
  DriverOptions options;
  if (!ParseDriverFlags(argc, argv, &options)) return 2;
  Harness harness(options.run);
  RegisterServeThroughputCases(harness);
  return RunDriver(harness, options);
}
