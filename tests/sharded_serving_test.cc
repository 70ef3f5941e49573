// Sharded serving tier: exactly-once delivery under a multi-threaded
// hammer, bitwise equality with the unsharded server at any shard/thread
// count, caller cancellation, RCU checkpoint swap (readers and whole batches
// observe old or new weights, never a torn mix), checkpoint-store manifest
// adoption/rollback and the cross-process publish lock. Registered under
// the ctest label "shard"; CI runs the suite under both ASan and TSan.
//
// Tests that arm the process-global FaultInjector reset it on exit; ctest
// runs each test in its own process, so armed faults never leak.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "core/gaia_model.h"
#include "data/market_simulator.h"
#include "obs/obs.h"
#include "serving/checkpoint_store.h"
#include "serving/model_server.h"
#include "serving/sharded_server.h"
#include "util/cancel.h"
#include "util/fault_injector.h"
#include "util/thread_pool.h"

namespace gaia {
namespace {

using serving::ModelServer;
using serving::ShardedServer;
using serving::ShardedServerConfig;

class ShardedServingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data::MarketConfig cfg;
    cfg.num_shops = 60;
    cfg.history_months = 14;
    cfg.seed = 31;
    auto market = data::MarketSimulator(cfg).Generate();
    ASSERT_TRUE(market.ok());
    auto ds = data::ForecastDataset::Create(market.value(),
                                            data::DatasetOptions{});
    ASSERT_TRUE(ds.ok());
    dataset_ = std::make_shared<data::ForecastDataset>(std::move(ds).value());
  }

  /// Fresh small model; different `seed` -> different weights, so two seeds
  /// give two distinguishable generations for swap/torn-read tests.
  std::shared_ptr<core::GaiaModel> MakeModel(uint64_t seed = 1) {
    core::GaiaConfig cfg;
    cfg.channels = 8;
    cfg.tel_groups = 2;
    cfg.num_layers = 1;
    cfg.seed = seed;
    auto model = core::GaiaModel::Create(
        cfg, dataset_->history_len(), dataset_->horizon(),
        dataset_->temporal_dim(), dataset_->static_dim());
    EXPECT_TRUE(model.ok());
    return std::shared_ptr<core::GaiaModel>(std::move(model).value());
  }

  std::vector<int32_t> AllShops() const {
    std::vector<int32_t> shops;
    for (int32_t s = 0; s < 60; ++s) shops.push_back(s);
    return shops;
  }

  static void ExpectBitwise(const ModelServer::Prediction& got,
                            const ModelServer::Prediction& want) {
    EXPECT_EQ(got.shop, want.shop);
    EXPECT_EQ(got.served_by, want.served_by);
    ASSERT_EQ(got.gmv.size(), want.gmv.size());
    for (size_t h = 0; h < got.gmv.size(); ++h) {
      // memcmp, not ==: bitwise identity is the contract (catches -0.0).
      EXPECT_EQ(std::memcmp(&got.gmv[h], &want.gmv[h], sizeof(double)), 0)
          << "shop " << got.shop << " horizon " << h << ": " << got.gmv[h]
          << " vs " << want.gmv[h];
    }
  }

  static std::string TempDir(const std::string& stem) {
    std::string dir = "/tmp/gaia_shard_" + stem + "_" +
                      std::to_string(::getpid());
    std::filesystem::remove_all(dir);
    return dir;
  }

  std::shared_ptr<data::ForecastDataset> dataset_;
};

// ---------------------------------------------------------------------------
// Bitwise equality with the unsharded server
// ---------------------------------------------------------------------------

TEST_F(ShardedServingTest, PredictMatchesUnshardedServer) {
  ModelServer reference(MakeModel(), dataset_, serving::ServerConfig{});
  ShardedServerConfig cfg;
  cfg.num_shards = 2;
  ShardedServer sharded(MakeModel(), dataset_, cfg);
  for (int32_t shop : {0, 3, 17, 42, 59}) {
    ExpectBitwise(sharded.Predict(shop), reference.Predict(shop));
  }
}

TEST_F(ShardedServingTest, PredictBatchBitwiseEqualAtAnyShardAndThreadCount) {
  const std::vector<int32_t> shops = AllShops();
  ModelServer reference(MakeModel(), dataset_, serving::ServerConfig{});
  const std::vector<ModelServer::Prediction> want =
      reference.PredictBatch(shops);
  for (int num_shards : {1, 2, 4}) {
    for (int num_threads : {1, 2, 8}) {
      util::ThreadPool::SetGlobalThreads(num_threads);
      ShardedServerConfig cfg;
      cfg.num_shards = num_shards;
      ShardedServer sharded(MakeModel(), dataset_, cfg);
      const std::vector<ModelServer::Prediction> got =
          sharded.PredictBatch(shops);
      ASSERT_EQ(got.size(), want.size());
      for (size_t i = 0; i < got.size(); ++i) {
        SCOPED_TRACE("shards=" + std::to_string(num_shards) +
                     " threads=" + std::to_string(num_threads));
        ExpectBitwise(got[i], want[i]);
      }
    }
  }
  util::ThreadPool::SetGlobalThreads(1);
}

TEST_F(ShardedServingTest, RandomizedInterleavingsStayBitwiseIdentical) {
  // Property test: whatever order concurrent clients issue requests in,
  // every answer equals the single-shard, single-caller reference for that
  // shop.
  const std::vector<int32_t> shops = AllShops();
  ModelServer reference(MakeModel(), dataset_, serving::ServerConfig{});
  const std::vector<ModelServer::Prediction> want =
      reference.PredictBatch(shops);
  ShardedServerConfig cfg;
  cfg.num_shards = 4;
  ShardedServer sharded(MakeModel(), dataset_, cfg);
  constexpr int kClients = 4;
  std::vector<std::thread> clients;
  std::atomic<int> mismatches{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::vector<int32_t> order = shops;
      std::mt19937 rng(static_cast<uint32_t>(977 + c));
      std::shuffle(order.begin(), order.end(), rng);
      for (int32_t shop : order) {
        const ModelServer::Prediction got = sharded.Predict(shop);
        const ModelServer::Prediction& ref =
            want[static_cast<size_t>(shop)];
        if (got.gmv.size() != ref.gmv.size() ||
            std::memcmp(got.gmv.data(), ref.gmv.data(),
                        got.gmv.size() * sizeof(double)) != 0) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(sharded.total_requests(),
            static_cast<int64_t>(kClients * shops.size()));
}

// ---------------------------------------------------------------------------
// Hammer: exactly-once delivery
// ---------------------------------------------------------------------------

TEST_F(ShardedServingTest, HammerAnswersEveryRequestExactlyOnce) {
  ShardedServerConfig cfg;
  cfg.num_shards = 4;
  ShardedServer sharded(MakeModel(), dataset_, cfg);
  constexpr int kClients = 8;
  constexpr int kPerClient = 40;
  std::atomic<int64_t> answered{0};
  std::atomic<int64_t> wrong_shop{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        const int32_t shop = static_cast<int32_t>((c * 13 + i * 7) % 60);
        const ModelServer::Prediction p = sharded.Predict(shop);
        if (p.shop != shop || p.gmv.empty()) wrong_shop.fetch_add(1);
        answered.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  // Every request answered exactly once: each blocking Predict returned,
  // and the tier's own count agrees (no duplicates, no drops).
  EXPECT_EQ(answered.load(), kClients * kPerClient);
  EXPECT_EQ(wrong_shop.load(), 0);
  EXPECT_EQ(sharded.total_requests(), kClients * kPerClient);
}

// ---------------------------------------------------------------------------
// Caller cancellation
// ---------------------------------------------------------------------------

TEST_F(ShardedServingTest, CancelledWhileQueuedIsDroppedBeforeForward) {
  // A token that fired before Predict degrades that request alone: it is
  // answered by the fallback, counted once as an observed cancel, and the
  // concurrent callers' answers stay bitwise equal to the unsharded server.
  const std::vector<int32_t> shops = {3, 17, 42};
  ModelServer reference(MakeModel(), dataset_, serving::ServerConfig{});
  std::vector<ModelServer::Prediction> want;
  for (int32_t shop : shops) want.push_back(reference.Predict(shop));
  ShardedServerConfig cfg;
  cfg.num_shards = 2;
  ShardedServer sharded(MakeModel(), dataset_, cfg);
  const uint64_t observed_before = obs::MetricsRegistry::Global().CounterValue(
      "gaia_cancel_observed_total");
  util::CancelToken token;
  token.Cancel();
  std::vector<ModelServer::Prediction> got(shops.size());
  ModelServer::Prediction cancelled;
  std::vector<std::thread> callers;
  for (size_t i = 0; i < shops.size(); ++i) {
    callers.emplace_back([&, i] { got[i] = sharded.Predict(shops[i]); });
  }
  callers.emplace_back([&] { cancelled = sharded.Predict(7, 0.0, &token); });
  for (auto& t : callers) t.join();

  EXPECT_EQ(cancelled.served_by, ModelServer::ServePath::kFallback);
  EXPECT_EQ(cancelled.degraded_reason, "cancelled by caller");
  ASSERT_EQ(static_cast<int64_t>(cancelled.gmv.size()), dataset_->horizon());
  EXPECT_EQ(obs::MetricsRegistry::Global().CounterValue(
                "gaia_cancel_observed_total"),
            observed_before + 1);
  for (size_t i = 0; i < shops.size(); ++i) ExpectBitwise(got[i], want[i]);
  // The token belonged to that one call: the same shop served without it is
  // answered by the model again.
  ExpectBitwise(sharded.Predict(7), reference.Predict(7));
}

TEST_F(ShardedServingTest, TinyDeadlineDegradesToFallback) {
  // The per-request budget reaches Serve's deadline token: 100 ns cannot
  // cover ego extraction + forward, so the request degrades.
  ShardedServerConfig cfg;
  cfg.num_shards = 1;
  ShardedServer sharded(MakeModel(), dataset_, cfg);
  const ModelServer::Prediction p = sharded.Predict(5, /*deadline_ms=*/1e-4);
  EXPECT_EQ(p.served_by, ModelServer::ServePath::kFallback);
  EXPECT_NE(p.degraded_reason.find("deadline_exceeded"), std::string::npos)
      << p.degraded_reason;
  ASSERT_EQ(static_cast<int64_t>(p.gmv.size()), dataset_->horizon());
  EXPECT_EQ(sharded.fallback_requests(), 1);
}

// ---------------------------------------------------------------------------
// RCU checkpoint swap
// ---------------------------------------------------------------------------

TEST_F(ShardedServingTest, CheckpointSwapNeverTearsConcurrentReads) {
  const std::string dir = TempDir("swap");
  std::filesystem::create_directories(dir);
  const std::string ckpt_b = dir + "/gen_b.bin";
  std::shared_ptr<core::GaiaModel> model_a = MakeModel(1);
  std::shared_ptr<core::GaiaModel> model_b = MakeModel(99);
  ASSERT_TRUE(model_b->Save(ckpt_b).ok());

  // Per-shop references under each generation: serving is per-request
  // deterministic, so "old or new, never torn" is checkable bitwise.
  const std::vector<int32_t> shops = AllShops();
  ModelServer ref_a(model_a, dataset_, serving::ServerConfig{});
  ModelServer ref_b(model_b, dataset_, serving::ServerConfig{});
  const auto want_a = ref_a.PredictBatch(shops);
  const auto want_b = ref_b.PredictBatch(shops);

  ShardedServerConfig cfg;
  cfg.num_shards = 2;
  ShardedServer sharded(MakeModel(1), dataset_, cfg);
  EXPECT_EQ(sharded.epoch(), 0);

  std::atomic<bool> stop{false};
  std::atomic<int64_t> torn{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&, c] {
      std::mt19937 rng(static_cast<uint32_t>(41 + c));
      while (!stop.load(std::memory_order_relaxed)) {
        const int32_t shop =
            static_cast<int32_t>(rng() % shops.size());
        const ModelServer::Prediction got = sharded.Predict(shop);
        const auto& a = want_a[static_cast<size_t>(shop)].gmv;
        const auto& b = want_b[static_cast<size_t>(shop)].gmv;
        const bool is_a = got.gmv.size() == a.size() &&
                          std::memcmp(got.gmv.data(), a.data(),
                                      a.size() * sizeof(double)) == 0;
        const bool is_b = got.gmv.size() == b.size() &&
                          std::memcmp(got.gmv.data(), b.data(),
                                      b.size() * sizeof(double)) == 0;
        if (!is_a && !is_b) torn.fetch_add(1);
      }
    });
  }
  // Publish the swap while the hammer runs: readers must keep answering
  // (old generation) until the flip, then answer with the new one.
  ASSERT_TRUE(sharded.LoadCheckpoint(ckpt_b).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  stop.store(true);
  for (auto& t : clients) t.join();
  EXPECT_EQ(torn.load(), 0) << "a reader observed a torn generation";
  EXPECT_EQ(sharded.epoch(), 1);
  // Steady state after the flip: everything serves generation B.
  for (int32_t shop : {2, 21, 47}) {
    ExpectBitwise(sharded.Predict(shop),
                  want_b[static_cast<size_t>(shop)]);
  }
  std::filesystem::remove_all(dir);
}

TEST_F(ShardedServingTest, PredictBatchAnswersFromOneGenerationPerBatch) {
  // PredictBatch pins one generation for the whole batch: while a publisher
  // flips A <-> B in a loop, each batch's answers all byte-equal one
  // generation's reference answers, never a mix of the two.
  const std::string dir = TempDir("batch_swap");
  std::filesystem::create_directories(dir);
  const std::string ckpt_a = dir + "/gen_a.bin";
  const std::string ckpt_b = dir + "/gen_b.bin";
  std::shared_ptr<core::GaiaModel> model_a = MakeModel(1);
  std::shared_ptr<core::GaiaModel> model_b = MakeModel(99);
  ASSERT_TRUE(model_a->Save(ckpt_a).ok());
  ASSERT_TRUE(model_b->Save(ckpt_b).ok());

  const std::vector<int32_t> shops = AllShops();
  ModelServer ref_a(model_a, dataset_, serving::ServerConfig{});
  ModelServer ref_b(model_b, dataset_, serving::ServerConfig{});
  const auto want_a = ref_a.PredictBatch(shops);
  const auto want_b = ref_b.PredictBatch(shops);
  const auto matches = [](const std::vector<ModelServer::Prediction>& got,
                          const std::vector<ModelServer::Prediction>& want) {
    for (size_t i = 0; i < want.size(); ++i) {
      if (got[i].gmv.size() != want[i].gmv.size() ||
          std::memcmp(got[i].gmv.data(), want[i].gmv.data(),
                      want[i].gmv.size() * sizeof(double)) != 0) {
        return false;
      }
    }
    return true;
  };

  ShardedServerConfig cfg;
  cfg.num_shards = 4;
  ShardedServer sharded(MakeModel(1), dataset_, cfg);
  std::atomic<bool> stop{false};
  std::atomic<int64_t> failed_loads{0};
  std::thread publisher([&] {
    for (int round = 0; !stop.load(std::memory_order_relaxed); ++round) {
      if (!sharded.LoadCheckpoint(round % 2 == 0 ? ckpt_b : ckpt_a).ok()) {
        failed_loads.fetch_add(1);
      }
    }
  });
  int batches_a = 0;
  int batches_b = 0;
  int mixed = 0;
  for (int batch = 0; batch < 200 && (batches_a < 4 || batches_b < 4);
       ++batch) {
    const std::vector<ModelServer::Prediction> got =
        sharded.PredictBatch(shops);
    ASSERT_EQ(got.size(), shops.size());
    if (matches(got, want_a)) {
      ++batches_a;
    } else if (matches(got, want_b)) {
      ++batches_b;
    } else {
      ++mixed;
    }
  }
  stop.store(true);
  publisher.join();
  EXPECT_EQ(mixed, 0) << "a batch mixed answers from two generations ("
                      << batches_a << " batches on A, " << batches_b
                      << " on B)";
  EXPECT_EQ(failed_loads.load(), 0);
  EXPECT_GT(sharded.epoch(), 0) << "the publisher never flipped";
  std::filesystem::remove_all(dir);
}

TEST_F(ShardedServingTest, ChaosPublishServeStormOnlyServesRealGenerations) {
  // Randomized-seed chaos leg: checkpoint.read faults fire during a
  // concurrent publish+serve storm. Readers must only ever observe
  // generation A or generation B — and the robust counters stay monotonic.
  uint64_t chaos_seed = 7;
  if (const char* env = std::getenv("GAIA_FAULTS_SEED")) {
    chaos_seed = static_cast<uint64_t>(std::strtoull(env, nullptr, 10));
  }
  const std::string dir = TempDir("chaos");
  serving::CheckpointStoreConfig store_cfg;
  store_cfg.dir = dir;
  store_cfg.keep_last = 3;
  serving::CheckpointStore store(store_cfg);
  std::shared_ptr<core::GaiaModel> model_a = MakeModel(1);
  std::shared_ptr<core::GaiaModel> model_b = MakeModel(99);
  ASSERT_TRUE(store.Publish(*model_a).ok());
  ASSERT_TRUE(store.Publish(*model_b).ok());

  const std::vector<int32_t> shops = AllShops();
  ModelServer ref_a(model_a, dataset_, serving::ServerConfig{});
  ModelServer ref_b(model_b, dataset_, serving::ServerConfig{});
  const auto want_a = ref_a.PredictBatch(shops);
  const auto want_b = ref_b.PredictBatch(shops);

  ShardedServerConfig cfg;
  cfg.num_shards = 2;
  ShardedServer sharded(MakeModel(1), dataset_, cfg);

  const uint64_t rollbacks_before =
      obs::MetricsRegistry::Global().CounterValue(
          "gaia_robust_checkpoint_rollbacks_total");

  util::FaultInjector& faults = util::FaultInjector::Global();
  faults.Reset();
  faults.Reseed(chaos_seed);
  faults.Arm({"checkpoint.read", util::FaultKind::kUnavailable, 0.4, -1});

  std::atomic<bool> stop{false};
  std::atomic<int64_t> torn{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&, c] {
      std::mt19937 rng(static_cast<uint32_t>(1234 + c));
      while (!stop.load(std::memory_order_relaxed)) {
        const int32_t shop = static_cast<int32_t>(rng() % shops.size());
        const ModelServer::Prediction got = sharded.Predict(shop);
        const auto& a = want_a[static_cast<size_t>(shop)].gmv;
        const auto& b = want_b[static_cast<size_t>(shop)].gmv;
        const bool is_a = std::memcmp(got.gmv.data(), a.data(),
                                      a.size() * sizeof(double)) == 0;
        const bool is_b = std::memcmp(got.gmv.data(), b.data(),
                                      b.size() * sizeof(double)) == 0;
        if (!is_a && !is_b) torn.fetch_add(1);
      }
    });
  }
  // The publisher keeps re-adopting the latest good checkpoint under fire;
  // failed loads must leave the serving generation untouched.
  int swaps_ok = 0;
  for (int round = 0; round < 10; ++round) {
    if (sharded.LoadCheckpoint(store).ok()) ++swaps_ok;
  }
  stop.store(true);
  for (auto& t : clients) t.join();
  faults.Reset();

  EXPECT_EQ(torn.load(), 0) << "reader observed a torn/phantom generation";
  const uint64_t rollbacks_after =
      obs::MetricsRegistry::Global().CounterValue(
          "gaia_robust_checkpoint_rollbacks_total");
  EXPECT_GE(rollbacks_after, rollbacks_before) << "robust counter regressed";
  // With the injector disarmed the newest good checkpoint (B) adopts
  // cleanly and the tier settles on it.
  ASSERT_TRUE(sharded.LoadCheckpoint(store).ok());
  for (int32_t shop : {4, 33}) {
    ExpectBitwise(sharded.Predict(shop), want_b[static_cast<size_t>(shop)]);
  }
  EXPECT_GE(swaps_ok, 0);  // storm rounds may all fail; adoption above cannot
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// CheckpointStore manifest + publish lock
// ---------------------------------------------------------------------------

TEST_F(ShardedServingTest, ManifestAdoptionIsO1AndSurvivesRestart) {
  const std::string dir = TempDir("manifest");
  serving::CheckpointStoreConfig cfg;
  cfg.dir = dir;
  cfg.keep_last = 2;
  std::shared_ptr<core::GaiaModel> model = MakeModel(1);
  std::vector<std::string> published;
  {
    serving::CheckpointStore store(cfg);
    EXPECT_FALSE(store.adopted_from_manifest());  // empty dir: nothing yet
    for (int i = 0; i < 3; ++i) {
      auto path = store.Publish(*model);
      ASSERT_TRUE(path.ok());
      published.push_back(path.value());
    }
    ASSERT_EQ(store.history().size(), 2u);  // keep_last pruned the first
  }
  // "New process": a fresh store adopts the pruned history from the
  // manifest — O(1) read, no directory scan — and continues the sequence.
  serving::CheckpointStore restarted(cfg);
  EXPECT_TRUE(restarted.adopted_from_manifest());
  ASSERT_EQ(restarted.history().size(), 2u);
  EXPECT_EQ(restarted.history()[0], published[1]);
  EXPECT_EQ(restarted.history()[1], published[2]);
  auto next = restarted.Publish(*model);
  ASSERT_TRUE(next.ok());
  EXPECT_NE(next.value(), published[2]) << "sequence number reused";
  std::filesystem::remove_all(dir);
}

TEST_F(ShardedServingTest, MissingManifestFallsBackToDirectoryScan) {
  const std::string dir = TempDir("scanfb");
  serving::CheckpointStoreConfig cfg;
  cfg.dir = dir;
  std::shared_ptr<core::GaiaModel> model = MakeModel(1);
  std::string published;
  {
    serving::CheckpointStore store(cfg);
    auto path = store.Publish(*model);
    ASSERT_TRUE(path.ok());
    published = path.value();
    std::remove(store.ManifestPath().c_str());
  }
  serving::CheckpointStore restarted(cfg);
  EXPECT_FALSE(restarted.adopted_from_manifest());
  ASSERT_EQ(restarted.history().size(), 1u);
  EXPECT_EQ(restarted.history()[0], published);
  std::filesystem::remove_all(dir);
}

TEST_F(ShardedServingTest, CorruptManifestFallsBackToDirectoryScan) {
  const std::string dir = TempDir("badmanifest");
  serving::CheckpointStoreConfig cfg;
  cfg.dir = dir;
  std::shared_ptr<core::GaiaModel> model = MakeModel(1);
  {
    serving::CheckpointStore store(cfg);
    ASSERT_TRUE(store.Publish(*model).ok());
    std::ofstream out(store.ManifestPath(), std::ios::trunc);
    out << "{ not json at all";
  }
  serving::CheckpointStore restarted(cfg);
  EXPECT_FALSE(restarted.adopted_from_manifest());
  EXPECT_EQ(restarted.history().size(), 1u);
  std::filesystem::remove_all(dir);
}

TEST_F(ShardedServingTest, ManifestRollsBackPastCorruptNewestCheckpoint) {
  const std::string dir = TempDir("rollback");
  serving::CheckpointStoreConfig cfg;
  cfg.dir = dir;
  std::shared_ptr<core::GaiaModel> model = MakeModel(1);
  std::string first, second;
  {
    serving::CheckpointStore store(cfg);
    auto a = store.Publish(*model);
    auto b = store.Publish(*model);
    ASSERT_TRUE(a.ok() && b.ok());
    first = a.value();
    second = b.value();
  }
  // Corrupt the newest on disk AFTER it entered the manifest: adoption
  // lists it, but LoadLatestGood must verify and roll back to the older.
  {
    std::fstream f(second, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekg(0, std::ios::end);
    const auto size = static_cast<int64_t>(f.tellg());
    f.seekp(size / 2);
    char byte = 0x5A;
    f.write(&byte, 1);
  }
  serving::CheckpointStore restarted(cfg);
  EXPECT_TRUE(restarted.adopted_from_manifest());
  std::shared_ptr<core::GaiaModel> target = MakeModel(7);
  auto report = restarted.LoadLatestGood(target.get());
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().path, first);
  EXPECT_EQ(report.value().rollbacks, 1);
  std::filesystem::remove_all(dir);
}

TEST_F(ShardedServingTest, PublishLockExcludesLiveHolderAndBreaksStale) {
  const std::string dir = TempDir("lock");
  std::filesystem::create_directories(dir);
  {
    auto held = serving::PublishLock::Acquire(dir);
    ASSERT_TRUE(held.ok());
    // Second acquisition while the first is live (our own pid) must refuse
    // with a retryable status — the serve/retrain split's mutual exclusion.
    auto contended = serving::PublishLock::Acquire(dir);
    ASSERT_FALSE(contended.ok());
    EXPECT_EQ(contended.status().code(), StatusCode::kUnavailable);
  }
  // Holder destroyed -> lock released -> acquirable again.
  ASSERT_TRUE(serving::PublishLock::Acquire(dir).ok());
  // A lockfile left by a dead process (no such pid) is broken on acquire.
  {
    std::ofstream out(dir + "/store.lock", std::ios::trunc);
    out << 4194000 << "\n";  // near pid_max: almost surely not running
  }
  auto broken = serving::PublishLock::Acquire(dir);
  EXPECT_TRUE(broken.ok()) << broken.status().ToString();
  std::filesystem::remove_all(dir);
}

TEST_F(ShardedServingTest, PublishRefusedWhileAnotherHolderIsLive) {
  const std::string dir = TempDir("lockpub");
  serving::CheckpointStoreConfig cfg;
  cfg.dir = dir;
  serving::CheckpointStore store(cfg);
  std::shared_ptr<core::GaiaModel> model = MakeModel(1);
  auto held = serving::PublishLock::Acquire(dir);
  ASSERT_TRUE(held.ok());
  auto refused = store.Publish(*model);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(store.history().empty()) << "refused publish touched history";
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// PredictBatch fan-out regression (doc/behaviour pin)
// ---------------------------------------------------------------------------

TEST_F(ShardedServingTest, PredictBatchFanoutRunsInlineWithOneThread) {
  // Pins the documented ModelServer::PredictBatch semantics: the fan-out is
  // one outer ParallelFor over the requests on the *global* pool, so with
  // GAIA_NUM_THREADS=1 (a 1-thread pool) no worker jobs are dispatched and
  // the whole sweep runs inline on the calling thread.
  const obs::Level saved_level = obs::CurrentLevel();
  obs::SetLevel(obs::Level::kOn);
  util::ThreadPool::SetGlobalThreads(1);
  const uint64_t jobs_before =
      obs::MetricsRegistry::Global().CounterValue("gaia_pool_jobs_total");
  const uint64_t inline_before = obs::MetricsRegistry::Global().CounterValue(
      "gaia_pool_inline_chunks_total");
  ModelServer server(MakeModel(), dataset_, serving::ServerConfig{});
  server.PredictBatch({0, 1, 2, 3, 4, 5, 6, 7});
  EXPECT_EQ(
      obs::MetricsRegistry::Global().CounterValue("gaia_pool_jobs_total"),
      jobs_before)
      << "1-thread PredictBatch dispatched pool jobs";
  EXPECT_GT(obs::MetricsRegistry::Global().CounterValue(
                "gaia_pool_inline_chunks_total"),
            inline_before)
      << "1-thread PredictBatch did not run inline";
  obs::SetLevel(saved_level);
}

}  // namespace
}  // namespace gaia
