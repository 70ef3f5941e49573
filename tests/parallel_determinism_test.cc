// Two test families guarding the thread-pool tentpole:
//  1. ThreadPool semantics — full coverage, inline fallbacks, nesting,
//     exception propagation — hammered enough to surface races under TSan.
//  2. Bitwise determinism — the whole point of the design: Gaia forward,
//     training and the ego path produce *identical* floats at 1, 2 and 8
//     threads, so thread count is a pure performance knob.

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/variable.h"
#include "core/gaia_model.h"
#include "core/trainer.h"
#include "data/dataset.h"
#include "data/market_simulator.h"
#include "util/thread_pool.h"

namespace gaia {
namespace {

using core::GaiaConfig;
using core::GaiaModel;
using core::TrainConfig;
using core::Trainer;
using util::ThreadPool;

// ---------------------------------------------------------------------------
// ThreadPool semantics
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, EveryIndexVisitedExactlyOnce) {
  ThreadPool pool(4);
  constexpr int64_t kN = 4321;
  std::vector<std::atomic<int>> visits(kN);
  pool.ParallelFor(kN, [&](int64_t i) { visits[i].fetch_add(1); });
  for (int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, GrainStillCoversEveryIndex) {
  ThreadPool pool(3);
  constexpr int64_t kN = 1000;  // not a multiple of the grain
  std::vector<std::atomic<int>> visits(kN);
  pool.ParallelFor(kN, [&](int64_t i) { visits[i].fetch_add(1); },
                   /*grain=*/64);
  for (int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, EmptyAndNegativeRangesAreNoOps) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.ParallelFor(0, [&](int64_t) { calls.fetch_add(1); });
  pool.ParallelFor(-5, [&](int64_t) { calls.fetch_add(1); });
  pool.ParallelForRange(0, 8, [&](int64_t, int64_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPoolTest, SingleThreadPoolRunsInlineOnCaller) {
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  int64_t sum = 0;  // no atomics needed: everything runs on this thread
  pool.ParallelFor(100, [&](int64_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    sum += i;
  });
  EXPECT_EQ(sum, 4950);
}

TEST(ThreadPoolTest, SmallRangeRunsInlineEvenOnBigPool) {
  ThreadPool pool(8);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> calls{0};
  // n <= grain short-circuits to the caller: no dispatch overhead for the
  // sub-threshold kernels in tensor_ops.
  pool.ParallelFor(5, [&](int64_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    calls.fetch_add(1);
  }, /*grain=*/16);
  EXPECT_EQ(calls.load(), 5);
}

TEST(ThreadPoolTest, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool pool(4);
  constexpr int64_t kOuter = 32, kInner = 17;
  std::atomic<int64_t> inner_calls{0};
  pool.ParallelFor(kOuter, [&](int64_t) {
    EXPECT_TRUE(ThreadPool::InParallelRegion());
    // The nested call must run inline on the worker: re-entering the pool
    // from a pool thread would deadlock a fixed-size pool.
    util::ParallelFor(kInner, [&](int64_t) { inner_calls.fetch_add(1); });
  });
  EXPECT_EQ(inner_calls.load(), kOuter * kInner);
  EXPECT_FALSE(ThreadPool::InParallelRegion());
}

TEST(ThreadPoolTest, ExceptionPropagatesAndPoolSurvives) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(500,
                       [&](int64_t i) {
                         if (i == 137) throw std::runtime_error("body failed");
                       }),
      std::runtime_error);
  // The pool must stay fully usable after a failed loop.
  std::atomic<int64_t> visits{0};
  pool.ParallelFor(500, [&](int64_t) { visits.fetch_add(1); });
  EXPECT_EQ(visits.load(), 500);
}

TEST(ThreadPoolTest, ParallelForRangeChunksAreDisjointAndComplete) {
  ThreadPool pool(4);
  constexpr int64_t kN = 1003, kGrain = 64;
  std::mutex mu;
  std::vector<std::pair<int64_t, int64_t>> chunks;
  pool.ParallelForRange(kN, kGrain, [&](int64_t begin, int64_t end) {
    std::lock_guard<std::mutex> lock(mu);
    chunks.emplace_back(begin, end);
  });
  std::sort(chunks.begin(), chunks.end());
  int64_t covered = 0;
  for (const auto& [begin, end] : chunks) {
    EXPECT_EQ(begin, covered);  // contiguous, no gap, no overlap
    EXPECT_LE(end - begin, kGrain);
    EXPECT_GT(end, begin);
    covered = end;
  }
  EXPECT_EQ(covered, kN);
}

TEST(ThreadPoolTest, HammerManySmallLoops) {
  // Repeated dispatch through the same pool: shakes out wake-up and job
  // handoff races that a single big loop never hits.
  ThreadPool pool(4);
  for (int iter = 0; iter < 2000; ++iter) {
    std::atomic<int64_t> sum{0};
    pool.ParallelFor(37, [&](int64_t i) { sum.fetch_add(i); });
    ASSERT_EQ(sum.load(), 37 * 36 / 2);
  }
}

TEST(ThreadPoolTest, GlobalPoolResizeRoundTrips) {
  const int before = ThreadPool::GlobalThreads();
  ThreadPool::SetGlobalThreads(3);
  EXPECT_EQ(ThreadPool::GlobalThreads(), 3);
  std::atomic<int64_t> visits{0};
  util::ParallelFor(256, [&](int64_t) { visits.fetch_add(1); });
  EXPECT_EQ(visits.load(), 256);
  ThreadPool::SetGlobalThreads(before);
  EXPECT_EQ(ThreadPool::GlobalThreads(), before);
}

// ---------------------------------------------------------------------------
// Bitwise determinism across thread counts
// ---------------------------------------------------------------------------

data::ForecastDataset MakeDataset() {
  data::MarketConfig cfg;
  cfg.num_shops = 60;
  cfg.seed = 21;
  auto market = data::MarketSimulator(cfg).Generate();
  return std::move(data::ForecastDataset::Create(market.value(),
                                                 data::DatasetOptions{}))
      .value();
}

std::unique_ptr<GaiaModel> MakeModel(const data::ForecastDataset& dataset) {
  GaiaConfig cfg;
  cfg.channels = 8;
  cfg.tel_groups = 2;
  cfg.num_layers = 2;
  cfg.seed = 3;
  return std::move(GaiaModel::Create(cfg, dataset.history_len(),
                                     dataset.horizon(), dataset.temporal_dim(),
                                     dataset.static_dim()))
      .value();
}

std::vector<int32_t> AllNodes(const data::ForecastDataset& dataset) {
  std::vector<int32_t> nodes(dataset.num_nodes());
  std::iota(nodes.begin(), nodes.end(), 0);
  return nodes;
}

std::vector<float> Flatten(const std::vector<autograd::Var>& preds) {
  std::vector<float> flat;
  for (const autograd::Var& p : preds) {
    const float* data = p->value.data();
    flat.insert(flat.end(), data, data + p->value.size());
  }
  return flat;
}

// EXPECT_EQ on floats is deliberate: the acceptance bar is bit-identical,
// not close.
void ExpectBitwiseEqual(const std::vector<float>& a,
                        const std::vector<float>& b, int threads) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "element " << i << " differs at " << threads
                          << " threads";
  }
}

class DeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_threads_ = ThreadPool::GlobalThreads(); }
  void TearDown() override { ThreadPool::SetGlobalThreads(saved_threads_); }
  int saved_threads_ = 1;
};

TEST_F(DeterminismTest, FullGraphForwardIsBitwiseIdenticalAcrossThreadCounts) {
  data::ForecastDataset dataset = MakeDataset();
  const std::vector<int32_t> nodes = AllNodes(dataset);
  std::vector<float> reference;
  for (int threads : {1, 2, 8}) {
    ThreadPool::SetGlobalThreads(threads);
    std::unique_ptr<GaiaModel> model = MakeModel(dataset);
    std::vector<float> got = Flatten(
        model->PredictNodes(dataset, nodes, /*training=*/false, nullptr));
    ASSERT_FALSE(got.empty());
    if (threads == 1) {
      reference = std::move(got);
    } else {
      ExpectBitwiseEqual(reference, got, threads);
    }
  }
}

TEST_F(DeterminismTest, TrainingIsBitwiseIdenticalAcrossThreadCounts) {
  data::ForecastDataset dataset = MakeDataset();
  const std::vector<int32_t> nodes = AllNodes(dataset);
  TrainConfig train_cfg;
  train_cfg.max_epochs = 4;
  train_cfg.eval_every = 2;
  train_cfg.patience = 10;

  std::vector<double> ref_train_losses, ref_val_losses;
  std::vector<float> ref_preds;
  for (int threads : {1, 2, 8}) {
    ThreadPool::SetGlobalThreads(threads);
    std::unique_ptr<GaiaModel> model = MakeModel(dataset);
    core::TrainResult result = Trainer(train_cfg).Fit(model.get(), dataset);
    std::vector<float> preds = Flatten(
        model->PredictNodes(dataset, nodes, /*training=*/false, nullptr));
    if (threads == 1) {
      ref_train_losses = result.train_loss_history;
      ref_val_losses = result.val_loss_history;
      ref_preds = std::move(preds);
      ASSERT_EQ(ref_train_losses.size(), 4u);
      continue;
    }
    ASSERT_EQ(result.train_loss_history.size(), ref_train_losses.size());
    for (size_t e = 0; e < ref_train_losses.size(); ++e) {
      // Losses are doubles reduced serially in index order: exact match.
      ASSERT_EQ(result.train_loss_history[e], ref_train_losses[e])
          << "train loss, epoch " << e << ", " << threads << " threads";
    }
    ASSERT_EQ(result.val_loss_history.size(), ref_val_losses.size());
    for (size_t e = 0; e < ref_val_losses.size(); ++e) {
      ASSERT_EQ(result.val_loss_history[e], ref_val_losses[e])
          << "val loss, eval " << e << ", " << threads << " threads";
    }
    ExpectBitwiseEqual(ref_preds, preds, threads);
  }
}

}  // namespace
}  // namespace gaia
