#ifndef GAIA_GRAPH_HASH_SHARD_H_
#define GAIA_GRAPH_HASH_SHARD_H_

#include <cstdint>

namespace gaia::graph {

/// \brief Serving shard of e-seller `node`: splitmix64(node) % num_shards.
///
/// The sharded serving tier counts and logs each request under this shard,
/// so the assignment is a pure function of the node id — stable across
/// processes and restarts, independent of request order. The id is mixed
/// before the modulo so contiguous shop ids (the simulator allocates them
/// densely) spread across shards instead of striping. Pre: num_shards >= 1.
int HashShard(int32_t node, int num_shards);

}  // namespace gaia::graph

#endif  // GAIA_GRAPH_HASH_SHARD_H_
