// Forward gate: pins the exact bytes of every Gaia forecast on a fixed
// market. Each case hashes (FNV-1a, 64-bit) the raw float bytes of
//   - every full-graph PredictNodes row, in node order;
//   - every PredictEgo row on the unsampled 2-hop ego (fanout 0);
//   - every PredictEgo row on the fanout-10 2-hop ego (the serving
//     default), sampled with the serving tier's per-request seed mix;
//   - the same at fanout 3. No shop of this market has more than 10
//     in-neighbours, so only this case exercises sampled egos, whose local
//     node order differs from the global one;
//   - every CollectAttention record (ids, attention maps, alphas), in the
//     probe's node-then-edge order.
// The expected digests are literals, so any change to forward arithmetic,
// summation order or kernel dispatch fails here, whatever the thread count.
// A deliberate numeric change re-derives them by running this test and
// copying the printed digests (the failure message shows each one).

#include <gtest/gtest.h>

#include <array>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <numeric>
#include <vector>

#include "core/gaia_model.h"
#include "data/dataset.h"
#include "data/market_simulator.h"
#include "graph/eseller_graph.h"
#include "util/thread_pool.h"

namespace gaia {
namespace {

/// 64-bit FNV-1a over a byte stream.
class Fnv1a {
 public:
  void AddBytes(const void* data, size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      hash_ ^= bytes[i];
      hash_ *= 0x100000001b3ULL;
    }
  }
  void Add(const Tensor& t) {
    AddBytes(t.data(), sizeof(float) * static_cast<size_t>(t.size()));
  }
  void Add(int32_t id) { AddBytes(&id, sizeof(id)); }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// The serving tier's per-request ego-sampling seed (ServerConfig::seed
/// mixed with the shop id, splitmix64-style), copied so the sampled egos
/// here are the ones `ModelServer` serves at its default seed.
uint64_t RequestSeed(uint64_t seed, int32_t shop) {
  uint64_t x = seed ^ (static_cast<uint64_t>(static_cast<uint32_t>(shop)) *
                       0x9e3779b97f4a7c15ULL);
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}
constexpr uint64_t kServerSeed = 5;  // ServerConfig::seed default

/// Ego fanouts hashed after the full-graph rows (0 = unsampled).
constexpr int64_t kFanouts[] = {0, 10, 3};

/// {full graph, ego at each of kFanouts, attention probe}.
using Digests = std::array<uint64_t, 5>;

struct DigestCase {
  const char* name;
  void (*configure)(core::GaiaConfig*);
  Digests expected;
};

class ForwardDigestTest : public ::testing::TestWithParam<int> {
 protected:
  static void SetUpTestSuite() {
    data::MarketConfig cfg;
    cfg.num_shops = 70;
    cfg.history_months = 14;
    cfg.seed = 13;
    auto market = data::MarketSimulator(cfg).Generate();
    ASSERT_TRUE(market.ok());
    auto ds = data::ForecastDataset::Create(market.value(),
                                            data::DatasetOptions{});
    ASSERT_TRUE(ds.ok());
    dataset_ = new data::ForecastDataset(std::move(ds).value());
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }
  void SetUp() override {
    saved_threads_ = util::ThreadPool::GlobalThreads();
    util::ThreadPool::SetGlobalThreads(GetParam());
  }
  void TearDown() override {
    util::ThreadPool::SetGlobalThreads(saved_threads_);
  }

  /// Default-shaped model (C=16, K=4, L=2: every conv shape the model
  /// runs) with every parameter nudged off its initialiser, so zero-init
  /// biases and the edge-type bias take part in the arithmetic.
  static std::unique_ptr<core::GaiaModel> MakeModel(const DigestCase& c) {
    core::GaiaConfig cfg;
    c.configure(&cfg);
    auto model = core::GaiaModel::Create(cfg, dataset_->history_len(),
                                         dataset_->horizon(),
                                         dataset_->temporal_dim(),
                                         dataset_->static_dim());
    EXPECT_TRUE(model.ok()) << model.status().ToString();
    Rng rng(99);
    for (const autograd::Var& p : model.value()->Parameters()) {
      for (int64_t i = 0; i < p->value.size(); ++i) {
        p->value.data()[i] += static_cast<float>(rng.Uniform(-0.1, 0.1));
      }
    }
    return std::move(model).value();
  }

  static Digests Compute(core::GaiaModel& model) {
    const auto n = static_cast<int32_t>(dataset_->num_nodes());
    Digests d;
    std::vector<int32_t> nodes(static_cast<size_t>(n));
    std::iota(nodes.begin(), nodes.end(), 0);
    Fnv1a full;
    for (const autograd::Var& row :
         model.PredictNodes(*dataset_, nodes, /*training=*/false, nullptr)) {
      full.Add(row->value);
    }
    d[0] = full.value();
    for (size_t f = 0; f < std::size(kFanouts); ++f) {
      Fnv1a ego_hash;
      for (int32_t shop = 0; shop < n; ++shop) {
        Rng rng(RequestSeed(kServerSeed, shop));
        const graph::EgoSubgraph ego = graph::ExtractEgoSubgraph(
            dataset_->graph(), shop, /*num_hops=*/2, kFanouts[f], &rng);
        Result<Tensor> pred = model.PredictEgo(*dataset_, ego);
        EXPECT_TRUE(pred.ok()) << pred.status().ToString();
        if (pred.ok()) ego_hash.Add(pred.value());
      }
      d[f + 1] = ego_hash.value();
    }
    const core::ItaProbe probe = model.CollectAttention(*dataset_);
    Fnv1a probe_hash;
    for (const auto* records : {&probe.inter, &probe.intra}) {
      for (const core::EdgeAttentionRecord& r : *records) {
        probe_hash.Add(r.u);
        probe_hash.Add(r.v);
        probe_hash.Add(r.attention);
      }
    }
    for (const core::NeighborAlphaRecord& r : probe.alphas) {
      probe_hash.Add(r.u);
      for (int32_t v : r.neighbors) probe_hash.Add(v);
      probe_hash.Add(r.alpha);
    }
    d[4] = probe_hash.value();
    return d;
  }

  static data::ForecastDataset* dataset_;
  int saved_threads_ = 1;
};

data::ForecastDataset* ForwardDigestTest::dataset_ = nullptr;

// Digests of the per-node forward that the node-batched one replaced,
// computed on that tree at 1 and 4 threads (identical at both).
const DigestCase kCases[] = {
    {"gaia", [](core::GaiaConfig*) {},
     {0x8d1aa2aca4d73d40ULL, 0x8d1aa2aca4d73d40ULL, 0x8d1aa2aca4d73d40ULL,
      0x1e2ec516fa8ded05ULL, 0x93ba51b6d58651dcULL}},
    {"no_ita", [](core::GaiaConfig* c) { c->use_ita = false; },
     {0xe1f55cda5b7e896aULL, 0xe1f55cda5b7e896aULL, 0xe1f55cda5b7e896aULL,
      0xf2dda15021c6e8f6ULL, 0xe306e1709a4c482dULL}},
    {"no_ffl", [](core::GaiaConfig* c) { c->use_ffl = false; },
     {0x8cef6312c28451f7ULL, 0x8cef6312c28451f7ULL, 0x8cef6312c28451f7ULL,
      0xd3eec7ba22246281ULL, 0x431d074707486e6cULL}},
    {"no_tel", [](core::GaiaConfig* c) { c->use_tel = false; },
     {0xf92bedd7ca68ffc3ULL, 0xf92bedd7ca68ffc3ULL, 0xf92bedd7ca68ffc3ULL,
      0xc3f4b7ac63a8ffedULL, 0x3b0da6a726fd0aabULL}},
    {"no_causal_mask", [](core::GaiaConfig* c) { c->causal_mask = false; },
     {0x6bb8e715cca4e6a3ULL, 0x6bb8e715cca4e6a3ULL, 0x6bb8e715cca4e6a3ULL,
      0xa0f5e0552b47bdd8ULL, 0xa2777714fa4fe3a0ULL}},
    {"two_cau_heads", [](core::GaiaConfig* c) { c->cau_heads = 2; },
     {0x054de2bc75ab132bULL, 0x054de2bc75ab132bULL, 0x054de2bc75ab132bULL,
      0xf3fa8a97f22b7386ULL, 0xe72c45c42d664241ULL}},
};

TEST_P(ForwardDigestTest, EveryForecastMatchesPinnedBytes) {
  for (const DigestCase& c : kCases) {
    SCOPED_TRACE(c.name);
    const Digests got = Compute(*MakeModel(c));
    char printed[160];
    std::snprintf(printed, sizeof(printed),
                  "{0x%016" PRIx64 "ULL, 0x%016" PRIx64 "ULL, 0x%016" PRIx64
                  "ULL, 0x%016" PRIx64 "ULL, 0x%016" PRIx64 "ULL}",
                  got[0], got[1], got[2], got[3], got[4]);
    EXPECT_EQ(got, c.expected) << c.name << " got " << printed;
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ForwardDigestTest, ::testing::Values(1, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "threads" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace gaia
