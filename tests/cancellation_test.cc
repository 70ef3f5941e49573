// Cancellation-tentpole test layer (ctest label: cancel).
//
// Four families:
//  1. CancelToken semantics — flag, deadline auto-fire, parent/child.
//  2. Mid-ParallelFor abort — a fired token stops chunk dispatch early at
//     1, 2 and 8 threads, and the pool stays fully usable afterwards.
//  3. The no-perturbation guarantee — an armed-but-unfired token leaves the
//     Gaia forward bitwise identical at every thread count (mirrors
//     parallel_determinism_test).
//  4. Serving + observability — a tight deadline aborts the forward
//     mid-flight (proved via ita_gcn.forward span aggregates), degrades to
//     the fallback with degraded_reason=deadline_exceeded, bumps the
//     gaia_cancel_* counters, and randomized aborts leave counters monotonic
//     and the span stack balanced.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/variable.h"
#include "core/gaia_model.h"
#include "data/dataset.h"
#include "data/market_simulator.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serving/model_server.h"
#include "serving/sharded_server.h"
#include "util/cancel.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace gaia {
namespace {

using core::GaiaConfig;
using core::GaiaModel;
using util::CancelScope;
using util::CancelToken;
using util::ThreadPool;

// ---------------------------------------------------------------------------
// Token semantics
// ---------------------------------------------------------------------------

TEST(CancelTokenTest, StartsLiveAndFiresOnce) {
  auto token = CancelToken::Create();
  EXPECT_FALSE(token->Cancelled());
  EXPECT_STREQ(token->reason(), "");
  EXPECT_TRUE(token->ToStatus().ok());

  token->Cancel("operator_abort");
  EXPECT_TRUE(token->Cancelled());
  EXPECT_STREQ(token->reason(), "operator_abort");

  // First reason wins; later fires are no-ops.
  token->Cancel("too_late");
  EXPECT_STREQ(token->reason(), "operator_abort");

  const Status st = token->ToStatus();
  EXPECT_EQ(st.code(), StatusCode::kCancelled);
  EXPECT_NE(st.message().find("operator_abort"), std::string::npos);
  EXPECT_EQ(std::string(StatusCodeToString(st.code())), "Cancelled");
}

TEST(CancelTokenTest, DeadlineAutoFires) {
  auto token = CancelToken::WithDeadline(/*deadline_ms=*/2.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_TRUE(token->Cancelled());
  EXPECT_STREQ(token->reason(), "deadline_exceeded");
  EXPECT_EQ(token->ToStatus().code(), StatusCode::kCancelled);
}

TEST(CancelTokenTest, ChildObservesParentCancellation) {
  auto parent = CancelToken::Create();
  auto child = CancelToken::Child(parent.get());
  EXPECT_FALSE(child->Cancelled());
  parent->Cancel("batch_abort");
  EXPECT_TRUE(child->Cancelled());
  EXPECT_STREQ(child->reason(), "batch_abort");
}

TEST(CancelTokenTest, CancellingChildLeavesParentLive) {
  auto parent = CancelToken::Create();
  auto child = CancelToken::Child(parent.get());
  child->Cancel("request_abort");
  EXPECT_TRUE(child->Cancelled());
  // One request aborting must not abort its batch.
  EXPECT_FALSE(parent->Cancelled());
  EXPECT_STREQ(parent->reason(), "");
}

TEST(CancelTokenTest, ChildWithOwnDeadlineFiresIndependently) {
  auto parent = CancelToken::Create();
  auto child = CancelToken::Child(parent.get(), /*deadline_ms=*/2.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_TRUE(child->Cancelled());
  EXPECT_STREQ(child->reason(), "deadline_exceeded");
  EXPECT_FALSE(parent->Cancelled());
}

TEST(CancelScopeTest, InstallsAndRestoresNested) {
  EXPECT_EQ(CancelToken::Current(), nullptr);
  auto outer = CancelToken::Create();
  auto inner = CancelToken::Create();
  {
    CancelScope outer_scope(outer.get());
    EXPECT_EQ(CancelToken::Current(), outer.get());
    {
      CancelScope inner_scope(inner.get());
      EXPECT_EQ(CancelToken::Current(), inner.get());
      // A nullptr scope is a no-op: the ambient token stays installed.
      CancelScope noop(nullptr);
      EXPECT_EQ(CancelToken::Current(), inner.get());
    }
    EXPECT_EQ(CancelToken::Current(), outer.get());
  }
  EXPECT_EQ(CancelToken::Current(), nullptr);
}

TEST(CancelScopeTest, CurrentCancelledTracksAmbientToken) {
  EXPECT_FALSE(util::CurrentCancelled());  // no token installed
  auto token = CancelToken::Create();
  CancelScope scope(token.get());
  EXPECT_FALSE(util::CurrentCancelled());
  token->Cancel();
  EXPECT_TRUE(util::CurrentCancelled());
}

// ---------------------------------------------------------------------------
// Mid-ParallelFor abort
// ---------------------------------------------------------------------------

class CancelPoolTest : public ::testing::TestWithParam<int> {};

TEST_P(CancelPoolTest, MidLoopCancelStopsDispatchEarly) {
  ThreadPool pool(GetParam());
  constexpr int64_t kN = 1 << 16;
  auto token = CancelToken::Create();
  std::atomic<int64_t> visits{0};
  pool.ParallelFor(
      kN,
      [&](int64_t i) {
        if (i == 10) token->Cancel();
        visits.fetch_add(1);
      },
      /*grain=*/1, token.get());
  // The cancelling index itself ran, and far fewer than all indices did:
  // after the token fires, remaining chunks are claimed but skipped. A few
  // in-flight chunks may still complete — that is the cooperative contract.
  EXPECT_GE(visits.load(), 1);
  EXPECT_LT(visits.load(), kN) << "cancellation was never observed";

  // The pool must stay fully usable after a cancelled loop.
  std::atomic<int64_t> after{0};
  pool.ParallelFor(500, [&](int64_t) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 500);
}

TEST_P(CancelPoolTest, AlreadyCancelledTokenSkipsEveryChunk) {
  ThreadPool pool(GetParam());
  auto token = CancelToken::Create();
  token->Cancel();
  std::atomic<int64_t> visits{0};
  pool.ParallelFor(1000, [&](int64_t) { visits.fetch_add(1); },
                   /*grain=*/8, token.get());
  EXPECT_EQ(visits.load(), 0);
}

TEST_P(CancelPoolTest, FreeParallelForConsultsAmbientToken) {
  const int saved = ThreadPool::GlobalThreads();
  ThreadPool::SetGlobalThreads(GetParam());
  auto token = CancelToken::Create();
  std::atomic<int64_t> visits{0};
  {
    CancelScope scope(token.get());
    util::ParallelFor(1 << 16, [&](int64_t i) {
      if (i == 10) token->Cancel();
      visits.fetch_add(1);
    });
  }
  EXPECT_GE(visits.load(), 1);
  EXPECT_LT(visits.load(), 1 << 16);
  ThreadPool::SetGlobalThreads(saved);
}

INSTANTIATE_TEST_SUITE_P(Threads, CancelPoolTest, ::testing::Values(1, 2, 8));

TEST(CancelPoolTest, WorkersObserveTokenAsCurrent) {
  // The submitting job's token is re-installed on the pool workers, so
  // nested kernels (free ParallelFor) observe it with no plumbing.
  ThreadPool pool(4);
  auto token = CancelToken::Create();
  std::atomic<int64_t> installed{0};
  pool.ParallelFor(
      256,
      [&](int64_t) {
        if (CancelToken::Current() == token.get()) installed.fetch_add(1);
      },
      /*grain=*/1, token.get());
  EXPECT_EQ(installed.load(), 256);
}

// ---------------------------------------------------------------------------
// Armed-but-unfired token changes nothing (bitwise)
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

// EXPECT_EQ on floats is deliberate: the bar is bit-identical, not close.
void ExpectBitwiseEqual(const std::vector<float>& a,
                        const std::vector<float>& b, int threads) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "element " << i << " differs at " << threads
                          << " threads";
  }
}

class CancelDeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_threads_ = ThreadPool::GlobalThreads(); }
  void TearDown() override { ThreadPool::SetGlobalThreads(saved_threads_); }
  int saved_threads_ = 1;
};

TEST_F(CancelDeterminismTest, ArmedButUnfiredTokenIsBitwiseInvisible) {
  data::ForecastDataset dataset = MakeDataset();
  const std::vector<int32_t> nodes = AllNodes(dataset);
  std::vector<float> reference;
  for (int threads : {1, 2, 8}) {
    ThreadPool::SetGlobalThreads(threads);
    std::unique_ptr<GaiaModel> model = MakeModel(dataset);
    std::vector<float> bare = Flatten(
        model->PredictNodes(dataset, nodes, /*training=*/false, nullptr));
    ASSERT_FALSE(bare.empty());

    // Same forward with a far-future deadline token armed over the whole
    // call tree: chunk boundaries and accumulation order must not depend on
    // the token, so the floats are identical bit for bit.
    auto token = CancelToken::WithDeadline(/*deadline_ms=*/3.6e6);
    std::vector<float> armed;
    {
      CancelScope scope(token.get());
      armed = Flatten(
          model->PredictNodes(dataset, nodes, /*training=*/false, nullptr));
    }
    EXPECT_FALSE(token->Cancelled());
    ExpectBitwiseEqual(bare, armed, threads);

    // And across thread counts, as in parallel_determinism_test.
    if (threads == 1) {
      reference = std::move(bare);
    } else {
      ExpectBitwiseEqual(reference, bare, threads);
    }
  }
}

// ---------------------------------------------------------------------------
// Serving: cooperative deadline aborts mid-flight
// ---------------------------------------------------------------------------

class CancelServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_level_ = obs::CurrentLevel();
    dataset_ = std::make_shared<data::ForecastDataset>(MakeDataset());
    model_ = std::shared_ptr<GaiaModel>(MakeModel(*dataset_));
  }
  void TearDown() override { obs::SetLevel(saved_level_); }

  static obs::SpanStats ForwardSpanStats() {
    auto agg = obs::TraceBuffer::Global().AggregateByName();
    auto it = agg.find("ita_gcn.forward");
    return it != agg.end() ? it->second : obs::SpanStats{};
  }

  obs::Level saved_level_ = obs::Level::kOff;
  std::shared_ptr<data::ForecastDataset> dataset_;
  std::shared_ptr<GaiaModel> model_;
};

TEST_F(CancelServeTest, TightDeadlineAbortsForwardAndDegrades) {
  obs::SetLevel(obs::Level::kOn);
  auto& registry = obs::MetricsRegistry::Global();

  // Baseline: an uncancelled serve runs every ITA-GCN layer.
  obs::TraceBuffer::Global().Clear();
  serving::ModelServer server(model_, dataset_, serving::ServerConfig{});
  auto healthy = server.Predict(3);
  EXPECT_EQ(healthy.served_by, serving::ModelServer::ServePath::kModel);
  const obs::SpanStats healthy_spans = ForwardSpanStats();
  ASSERT_GE(healthy_spans.count,
            static_cast<uint64_t>(model_->config().num_layers));

  // Tight budget: the token fires before the first chunk boundary, so the
  // forward unwinds before completing — strictly fewer layer spans and
  // strictly less time inside them than the healthy serve.
  const uint64_t requested_before =
      registry.CounterValue("gaia_cancel_requested_total");
  const uint64_t observed_before =
      registry.CounterValue("gaia_cancel_observed_total");
  obs::TraceBuffer::Global().Clear();
  auto degraded = server.Predict(3, /*deadline_ms=*/1e-6);
  const obs::SpanStats aborted_spans = ForwardSpanStats();

  EXPECT_EQ(degraded.served_by, serving::ModelServer::ServePath::kFallback);
  EXPECT_NE(degraded.degraded_reason.find("deadline_exceeded"),
            std::string::npos)
      << degraded.degraded_reason;
  EXPECT_NE(degraded.degraded_reason.find("aborted mid-forward"),
            std::string::npos)
      << degraded.degraded_reason;
  ASSERT_EQ(static_cast<int64_t>(degraded.gmv.size()), dataset_->horizon());
  for (double v : degraded.gmv) EXPECT_GE(v, 0.0);

  EXPECT_LT(aborted_spans.count, healthy_spans.count);
  EXPECT_LT(aborted_spans.total_ms, healthy_spans.total_ms);
  EXPECT_GT(registry.CounterValue("gaia_cancel_requested_total"),
            requested_before);
  EXPECT_GT(registry.CounterValue("gaia_cancel_observed_total"),
            observed_before);

  // The token dies with the request: the next serve takes the model path.
  auto after = server.Predict(3);
  EXPECT_EQ(after.served_by, serving::ModelServer::ServePath::kModel);
}

TEST_F(CancelServeTest, PerRequestDeadlineOverridesConfig) {
  serving::ServerConfig cfg;
  cfg.deadline_ms = 0.0;  // no config-level budget
  serving::ModelServer server(model_, dataset_, cfg);
  EXPECT_EQ(server.Predict(4).served_by,
            serving::ModelServer::ServePath::kModel);
  auto degraded = server.Predict(4, /*deadline_ms=*/1e-6);
  EXPECT_EQ(degraded.served_by, serving::ModelServer::ServePath::kFallback);
  EXPECT_NE(degraded.degraded_reason.find("deadline_exceeded"),
            std::string::npos);
  // Per-request 0 keeps the request un-budgeted.
  EXPECT_EQ(server.Predict(4, /*deadline_ms=*/0.0).served_by,
            serving::ModelServer::ServePath::kModel);
}

TEST_F(CancelServeTest, LegacyCheckAfterForwardStillDegrades) {
  // cooperative_cancel=false reverts to the post-hoc deadline check: the
  // forward completes, the overrun is detected afterwards.
  serving::ServerConfig cfg;
  cfg.cooperative_cancel = false;
  serving::ModelServer server(model_, dataset_, cfg);
  auto degraded = server.Predict(6, /*deadline_ms=*/1e-6);
  EXPECT_EQ(degraded.served_by, serving::ModelServer::ServePath::kFallback);
  EXPECT_NE(degraded.degraded_reason.find("deadline_exceeded"),
            std::string::npos);
  EXPECT_NE(degraded.degraded_reason.find("completed late"),
            std::string::npos);
}

TEST_F(CancelServeTest, GenerousDeadlineKeepsServeBitwiseIdentical) {
  serving::ModelServer bare(model_, dataset_, serving::ServerConfig{});
  auto expected = bare.Predict(9);
  ASSERT_EQ(expected.served_by, serving::ModelServer::ServePath::kModel);

  serving::ServerConfig cfg;
  cfg.deadline_ms = 3.6e6;  // armed on every request, never fires
  serving::ModelServer armed(model_, dataset_, cfg);
  auto actual = armed.Predict(9);
  ASSERT_EQ(actual.served_by, serving::ModelServer::ServePath::kModel);
  ASSERT_EQ(actual.gmv.size(), expected.gmv.size());
  for (size_t i = 0; i < expected.gmv.size(); ++i) {
    EXPECT_EQ(actual.gmv[i], expected.gmv[i]) << "forecast month " << i;
  }
}

// ---------------------------------------------------------------------------
// Sharded tier: a token that fired before Predict
// ---------------------------------------------------------------------------

TEST_F(CancelServeTest, RequestCancelledInMicroBatchQueueIsDroppedBeforeForward) {
  obs::SetLevel(obs::Level::kOn);
  auto& registry = obs::MetricsRegistry::Global();

  // Reference answers (no tokens anywhere).
  serving::ModelServer reference(model_, dataset_, serving::ServerConfig{});
  const auto want_a = reference.Predict(1);
  const auto want_b = reference.Predict(2);
  const auto want_c = reference.Predict(3);

  // Spans one forward records (num_layers ita_gcn.forward spans), measured
  // rather than assumed so a config change cannot silently skew the check.
  obs::TraceBuffer::Global().Clear();
  (void)reference.Predict(5);
  const uint64_t spans_per_forward = [&] {
    auto agg = obs::TraceBuffer::Global().AggregateByName();
    auto it = agg.find("ita_gcn.forward");
    return it != agg.end() ? it->second.count : uint64_t{0};
  }();
  ASSERT_GT(spans_per_forward, 0u);

  serving::ShardedServerConfig cfg;
  cfg.num_shards = 1;
  serving::ShardedServer sharded(model_, dataset_, cfg);

  obs::TraceBuffer::Global().Clear();
  const uint64_t observed_before =
      registry.CounterValue("gaia_cancel_observed_total");

  // Four concurrent callers; the token of one fired before its Predict.
  CancelToken cancelled;
  cancelled.Cancel();
  serving::ShardedServer::Prediction got_a, got_b, got_c, got_dropped;
  std::thread ta([&] { got_a = sharded.Predict(1); });
  std::thread tb([&] { got_b = sharded.Predict(2); });
  std::thread tc([&] { got_c = sharded.Predict(3); });
  std::thread td([&] { got_dropped = sharded.Predict(4, 0.0, &cancelled); });
  ta.join();
  tb.join();
  tc.join();
  td.join();

  // The cancelled request degraded to the fallback, counted once...
  EXPECT_EQ(got_dropped.served_by, serving::ModelServer::ServePath::kFallback);
  EXPECT_EQ(got_dropped.degraded_reason, "cancelled by caller");
  EXPECT_EQ(registry.CounterValue("gaia_cancel_observed_total"),
            observed_before + 1);
  // ...without running a layer: exactly three model forwards ran, one per
  // live request.
  auto agg = obs::TraceBuffer::Global().AggregateByName();
  auto it = agg.find("ita_gcn.forward");
  ASSERT_NE(it, agg.end());
  EXPECT_EQ(it->second.count, 3 * spans_per_forward)
      << "cancelled request still reached the model forward";
  // ...and the other callers are unaffected: bitwise equal to the unsharded
  // reference.
  for (const auto& [got, want] :
       {std::pair{&got_a, &want_a}, {&got_b, &want_b}, {&got_c, &want_c}}) {
    ASSERT_EQ(got->gmv.size(), want->gmv.size());
    for (size_t i = 0; i < want->gmv.size(); ++i) {
      EXPECT_EQ(std::memcmp(&got->gmv[i], &want->gmv[i], sizeof(double)), 0)
          << "shop " << want->shop << " month " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Property: randomized aborts keep observability consistent
// ---------------------------------------------------------------------------

TEST(CancellationPropertyTest, RandomizedAbortsKeepCountersAndSpansConsistent) {
  const obs::Level saved_level = obs::CurrentLevel();
  obs::SetLevel(obs::Level::kOn);
  auto& registry = obs::MetricsRegistry::Global();

  data::ForecastDataset dataset = MakeDataset();
  std::unique_ptr<GaiaModel> model = MakeModel(dataset);
  const std::vector<int32_t> nodes = AllNodes(dataset);

  Rng rng(2026);
  ThreadPool pool(4);
  uint64_t prev_requested = registry.CounterValue("gaia_cancel_requested_total");
  uint64_t prev_observed = registry.CounterValue("gaia_cancel_observed_total");
  for (int iter = 0; iter < 20; ++iter) {
    // A pool loop cancelled at a randomized chunk index...
    auto loop_token = CancelToken::Create();
    const int64_t fire_at = static_cast<int64_t>(rng.UniformInt(512));
    std::atomic<int64_t> claimed{0};
    pool.ParallelFor(
        4096,
        [&](int64_t) {
          if (claimed.fetch_add(1) == fire_at) loop_token->Cancel();
        },
        /*grain=*/4, loop_token.get());
    ASSERT_TRUE(loop_token->Cancelled());

    // ...and a model forward whose deadline fires at a random depth (some
    // iterations abort mid-encode, some mid-layer, some complete).
    auto fwd_token = CancelToken::WithDeadline(rng.Uniform(0.01, 0.5));
    {
      CancelScope scope(fwd_token.get());
      (void)model->PredictNodes(dataset, nodes, /*training=*/false, nullptr);
    }

    // Counters only ever grow, regardless of where the abort landed.
    const uint64_t requested =
        registry.CounterValue("gaia_cancel_requested_total");
    const uint64_t observed =
        registry.CounterValue("gaia_cancel_observed_total");
    ASSERT_GE(requested, prev_requested + 1) << "iteration " << iter;
    ASSERT_GE(observed, prev_observed) << "iteration " << iter;
    prev_requested = requested;
    prev_observed = observed;

    // Span stack balanced: every RAII span an aborted run opened was also
    // closed, so a probe span on this thread is top-level (parent 0).
    ASSERT_EQ(obs::TraceSpan::CurrentSpanId(), 0u) << "iteration " << iter;
  }

  {
    obs::TraceSpan probe("cancel_test.probe");
    EXPECT_NE(obs::TraceSpan::CurrentSpanId(), 0u);
  }
  EXPECT_EQ(obs::TraceSpan::CurrentSpanId(), 0u);
  bool probe_found = false;
  for (const obs::SpanRecord& rec : obs::TraceBuffer::Global().Snapshot()) {
    if (std::string(rec.name) == "cancel_test.probe") {
      probe_found = true;
      EXPECT_EQ(rec.parent_id, 0u) << "orphaned open span left on the stack";
    }
  }
  EXPECT_TRUE(probe_found);
  obs::SetLevel(saved_level);
}

}  // namespace
}  // namespace gaia
