#include "graph/eseller_graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "graph/hash_shard.h"

namespace gaia::graph {
namespace {

TEST(EsellerGraphTest, EmptyGraph) {
  auto g = EsellerGraph::Create(0, {});
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g.value().num_nodes(), 0);
  EXPECT_EQ(g.value().num_edges(), 0);
}

TEST(EsellerGraphTest, CsrInNeighbors) {
  std::vector<Edge> edges = {
      {0, 2, EdgeType::kSupplyChain},
      {1, 2, EdgeType::kSameOwner},
      {2, 0, EdgeType::kSupplyChain},
  };
  auto g = EsellerGraph::Create(3, edges);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g.value().InDegree(2), 2);
  EXPECT_EQ(g.value().InDegree(1), 0);
  auto neighbors = g.value().InNeighbors(2);
  std::set<int32_t> sources;
  for (const auto& nb : neighbors) sources.insert(nb.node);
  EXPECT_EQ(sources, (std::set<int32_t>{0, 1}));
}

TEST(EsellerGraphTest, EdgeTypePreserved) {
  auto g = EsellerGraph::Create(
      2, {{0, 1, EdgeType::kSameOwner}});
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g.value().InNeighbors(1)[0].type, EdgeType::kSameOwner);
}

TEST(EsellerGraphTest, RejectsOutOfRangeEndpoints) {
  EXPECT_FALSE(EsellerGraph::Create(2, {{0, 2, EdgeType::kSameOwner}}).ok());
  EXPECT_FALSE(EsellerGraph::Create(2, {{-1, 0, EdgeType::kSameOwner}}).ok());
  EXPECT_FALSE(EsellerGraph::Create(-1, {}).ok());
}

TEST(EsellerGraphTest, RejectsSelfLoops) {
  auto g = EsellerGraph::Create(2, {{1, 1, EdgeType::kSupplyChain}});
  EXPECT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kInvalidArgument);
}

TEST(EsellerGraphTest, SampleNeighborsBoundsAndSubset) {
  std::vector<Edge> edges;
  for (int32_t v = 1; v < 20; ++v) {
    edges.push_back({v, 0, EdgeType::kSupplyChain});
  }
  auto g = EsellerGraph::Create(20, edges);
  ASSERT_TRUE(g.ok());
  Rng rng(3);
  auto sample = g.value().SampleInNeighbors(0, 5, &rng);
  EXPECT_EQ(sample.size(), 5u);
  std::set<int32_t> unique;
  for (const auto& nb : sample) {
    EXPECT_GE(nb.node, 1);
    EXPECT_LT(nb.node, 20);
    unique.insert(nb.node);
  }
  EXPECT_EQ(unique.size(), 5u);  // without replacement
  // Sampling fewer than degree returns all.
  auto all = g.value().SampleInNeighbors(0, 50, &rng);
  EXPECT_EQ(all.size(), 19u);
}

TEST(EsellerGraphTest, StatsAreConsistent) {
  GraphBuilder builder(5);
  builder.AddSupplyChain(0, 1).AddSameOwner(2, 3);
  auto g = builder.Build();
  ASSERT_TRUE(g.ok());
  GraphStats stats = g.value().ComputeStats();
  EXPECT_EQ(stats.num_nodes, 5);
  EXPECT_EQ(stats.num_edges, 4);  // two bidirectional relations
  EXPECT_EQ(stats.supply_chain_edges, 2);
  EXPECT_EQ(stats.same_owner_edges, 2);
  EXPECT_EQ(stats.isolated_nodes, 1);  // node 4
  EXPECT_EQ(stats.max_in_degree, 1);
  EXPECT_NE(g.value().ToString().find("nodes=5"), std::string::npos);
}

TEST(GraphBuilderTest, RelationsAreBidirectional) {
  GraphBuilder builder(3);
  builder.AddSupplyChain(0, 1);
  auto g = builder.Build();
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g.value().InDegree(0), 1);
  EXPECT_EQ(g.value().InDegree(1), 1);
}

TEST(GraphBuilderTest, DeduplicatesRepeatedEdges) {
  GraphBuilder builder(3);
  builder.AddSameOwner(0, 1).AddSameOwner(0, 1).AddSameOwner(1, 0);
  auto g = builder.Build();
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g.value().num_edges(), 2);
}

TEST(GraphBuilderTest, SameEndpointsDifferentTypesKept) {
  GraphBuilder builder(2);
  builder.AddDirected(0, 1, EdgeType::kSupplyChain);
  builder.AddDirected(0, 1, EdgeType::kSameOwner);
  auto g = builder.Build();
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g.value().num_edges(), 2);
}

// ---------------------------------------------------------------------------
// Ego subgraph extraction
// ---------------------------------------------------------------------------

class EgoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Chain 0 <- 1 <- 2 <- 3 plus a hub feeding node 0.
    GraphBuilder builder(8);
    builder.AddDirected(1, 0, EdgeType::kSupplyChain);
    builder.AddDirected(2, 1, EdgeType::kSupplyChain);
    builder.AddDirected(3, 2, EdgeType::kSupplyChain);
    for (int32_t v = 4; v < 8; ++v) {
      builder.AddDirected(v, 0, EdgeType::kSameOwner);
    }
    auto g = builder.Build();
    ASSERT_TRUE(g.ok());
    graph_ = std::make_unique<EsellerGraph>(std::move(g).value());
  }
  std::unique_ptr<EsellerGraph> graph_;
};

TEST_F(EgoTest, CenterIsLocalZero) {
  Rng rng(1);
  EgoSubgraph ego = ExtractEgoSubgraph(*graph_, 2, 1, 0, &rng);
  EXPECT_EQ(ego.nodes[0], 2);
}

TEST_F(EgoTest, HopLimitRespected) {
  Rng rng(2);
  EgoSubgraph one_hop = ExtractEgoSubgraph(*graph_, 0, 1, 0, &rng);
  std::set<int32_t> nodes(one_hop.nodes.begin(), one_hop.nodes.end());
  EXPECT_TRUE(nodes.count(1));
  EXPECT_FALSE(nodes.count(2));  // 2 hops away
  EgoSubgraph two_hop = ExtractEgoSubgraph(*graph_, 0, 2, 0, &rng);
  std::set<int32_t> nodes2(two_hop.nodes.begin(), two_hop.nodes.end());
  EXPECT_TRUE(nodes2.count(2));
  EXPECT_FALSE(nodes2.count(3));
}

TEST_F(EgoTest, ZeroHopsIsJustCenter) {
  Rng rng(3);
  EgoSubgraph ego = ExtractEgoSubgraph(*graph_, 0, 0, 0, &rng);
  EXPECT_EQ(ego.num_nodes(), 1);
  EXPECT_TRUE(ego.edges.empty());
}

TEST_F(EgoTest, FanoutCapLimitsNeighbors) {
  Rng rng(4);
  EgoSubgraph ego = ExtractEgoSubgraph(*graph_, 0, 1, 2, &rng);
  EXPECT_LE(ego.num_nodes(), 3);  // center + at most 2 sampled
}

TEST_F(EgoTest, LocalEdgesAreValidAndTyped) {
  Rng rng(5);
  EgoSubgraph ego = ExtractEgoSubgraph(*graph_, 0, 2, 0, &rng);
  for (const Edge& e : ego.edges) {
    EXPECT_GE(e.src, 0);
    EXPECT_LT(e.src, ego.num_nodes());
    EXPECT_GE(e.dst, 0);
    EXPECT_LT(e.dst, ego.num_nodes());
  }
  // Local subgraph must be constructible as a graph.
  EXPECT_TRUE(EsellerGraph::Create(ego.num_nodes(), ego.edges).ok());
}

TEST_F(EgoTest, IsolatedCenterYieldsSingleton) {
  GraphBuilder builder(2);
  builder.AddSameOwner(0, 1);
  auto g = builder.Build();
  ASSERT_TRUE(g.ok());
  Rng rng(6);
  // Node with no in-neighbours in a fresh 3-node graph.
  auto g2 = EsellerGraph::Create(3, {{0, 1, EdgeType::kSameOwner}});
  EgoSubgraph ego = ExtractEgoSubgraph(g2.value(), 2, 2, 0, &rng);
  EXPECT_EQ(ego.num_nodes(), 1);
}

// ---------------------------------------------------------------------------
// HashShard (the sharded serving tier's shop -> shard map)
// ---------------------------------------------------------------------------

TEST(PartitionerTest, ShardAssignmentIsStableAndInRange) {
  for (int32_t node = 0; node < 1000; ++node) {
    const int shard = HashShard(node, 4);
    EXPECT_GE(shard, 0);
    EXPECT_LT(shard, 4);
    // Pure function of the node id: the routing contract the sharded
    // server (and any future cross-process router) relies on.
    EXPECT_EQ(shard, HashShard(node, 4));
  }
}

TEST(PartitionerTest, SingleShardMapsEverythingToZero) {
  for (int32_t node : {0, 1, 63, 100000}) {
    EXPECT_EQ(HashShard(node, 1), 0);
  }
}

TEST(PartitionerTest, HashSpreadsDenseIdsRoughlyEvenly) {
  // Dense sequential shop ids (the common case: shops are numbered 0..N)
  // must not pile onto few shards; the splitmix64 mix should keep every
  // shard within a loose factor of the ideal share.
  constexpr int kShards = 8;
  constexpr int32_t kNodes = 8000;
  std::vector<int64_t> sizes(kShards, 0);
  for (int32_t v = 0; v < kNodes; ++v) {
    ++sizes[static_cast<size_t>(HashShard(v, kShards))];
  }
  const int64_t ideal = kNodes / kShards;
  int64_t total = 0;
  for (int64_t size : sizes) {
    total += size;
    EXPECT_GT(size, ideal / 2) << "shard starved";
    EXPECT_LT(size, ideal * 2) << "shard overloaded";
  }
  EXPECT_EQ(total, kNodes);  // a partition: every node in exactly one shard
}

TEST(PartitionerTest, AssignmentIsPinned) {
  // Shards of nodes 0..255, one digit per node, as the tier has always
  // routed them. A change to the hash would silently move shops between
  // shards and change what every per-shard metric series counts.
  const std::string kThreeShards =
      "1210122011100122201001210011122010202202101101002001210021200201"
      "1000100000101012022102002211102100022000121220022100101211211211"
      "2011121001101222010221201122212000122121100102201122001121211000"
      "0220002211120102101001011101201002120211012212100122012012200012";
  const std::string kFourShards =
      "3121220320213321332003220122002210133300211032313030221031203121"
      "3110233323302103310120123222333011130300232002312010121322031230"
      "2130302213231013031030012030120302100331112202103103011322032111"
      "0101312110021003001312110331033213102332331230312012110302012110";
  ASSERT_EQ(kThreeShards.size(), 256u);
  ASSERT_EQ(kFourShards.size(), 256u);
  for (int32_t node = 0; node < 256; ++node) {
    const auto i = static_cast<size_t>(node);
    EXPECT_EQ(HashShard(node, 3), kThreeShards[i] - '0') << "node " << node;
    EXPECT_EQ(HashShard(node, 4), kFourShards[i] - '0') << "node " << node;
  }
}

}  // namespace
}  // namespace gaia::graph
