#include "graph/hash_shard.h"

#include "util/check.h"

namespace gaia::graph {

namespace {

/// splitmix64 finalizer (Steele et al.): a full-avalanche mix so dense shop
/// ids land on uncorrelated shards.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

int HashShard(int32_t node, int num_shards) {
  GAIA_CHECK_GE(num_shards, 1);
  if (num_shards == 1) return 0;
  return static_cast<int>(Mix64(static_cast<uint64_t>(
                              static_cast<uint32_t>(node))) %
                          static_cast<uint64_t>(num_shards));
}

}  // namespace gaia::graph
