#include "serving/sharded_server.h"

#include <string>
#include <utility>

#include "autograd/variable.h"
#include "obs/obs.h"
#include "serving/checkpoint_store.h"
#include "util/check.h"
#include "util/retry.h"
#include "util/thread_pool.h"

namespace gaia::serving {

namespace {

/// Tier-wide metrics. The request counter is hot-path and gated on
/// obs::Enabled(); the swap counter is an operational event counted
/// unconditionally (gaia_robust_* discipline).
struct TierMetrics {
  obs::Counter& requests = obs::MetricsRegistry::Global().GetCounter(
      "gaia_serve_sharded_requests_total",
      "Requests answered by the sharded tier (all paths, all shards)");
  obs::Counter& swaps = obs::MetricsRegistry::Global().GetCounter(
      "gaia_serve_checkpoint_swaps_total",
      "Generation flips published by LoadCheckpoint (RCU swap)");
  static TierMetrics& Get() {
    static TierMetrics* metrics = new TierMetrics();
    return *metrics;
  }
};

}  // namespace

ShardedServer::ShardedServer(
    std::shared_ptr<core::GaiaModel> model,
    std::shared_ptr<const data::ForecastDataset> dataset,
    const ShardedServerConfig& config)
    : config_(config), dataset_(std::move(dataset)) {
  GAIA_CHECK(model != nullptr);
  GAIA_CHECK(dataset_ != nullptr);
  GAIA_CHECK_GE(config_.num_shards, 1);
  generation_ = MakeGeneration(std::move(model), 0);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  for (int k = 0; k < config_.num_shards; ++k) {
    const std::string stem = "gaia_serve_shard_" + std::to_string(k);
    shard_requests_.push_back(&registry.GetCounter(
        stem + "_requests_total", "Requests answered for this shard"));
  }
}

std::shared_ptr<const ShardedServer::Generation>
ShardedServer::LoadGeneration() const {
  std::lock_guard<std::mutex> lock(generation_mu_);
  return generation_;
}

std::shared_ptr<const ShardedServer::Generation> ShardedServer::MakeGeneration(
    std::shared_ptr<core::GaiaModel> model, int64_t epoch) const {
  auto generation = std::make_shared<Generation>();
  generation->model = std::move(model);
  auto server = std::make_unique<ModelServer>(generation->model, dataset_,
                                              config_.server);
  if (bands_ != nullptr) server->EnableQuantileBands(*bands_);
  generation->server = std::move(server);
  generation->epoch = epoch;
  return generation;
}

void ShardedServer::EnableQuantileBands(QuantileBandTable table) {
  std::lock_guard<std::mutex> lock(publish_mu_);
  bands_ = std::make_shared<const QuantileBandTable>(std::move(table));
  // Rebuild the live generation around the same model/epoch so bands take
  // effect without waiting for the next checkpoint publish.
  std::shared_ptr<const Generation> current = LoadGeneration();
  FlipGeneration(MakeGeneration(current->model, current->epoch));
}

void ShardedServer::FlipGeneration(std::shared_ptr<const Generation> next) {
  const int64_t epoch = next->epoch;
  {
    std::lock_guard<std::mutex> lock(generation_mu_);
    generation_.swap(next);
  }
  // `next` now holds the old generation: it is released here, outside the
  // lock, or by its last reader.
  epoch_.store(epoch, std::memory_order_release);
  TierMetrics::Get().swaps.Increment();
}

Result<std::shared_ptr<core::GaiaModel>> ShardedServer::NewEmptyModel() const {
  // The live generation's architecture defines the shape a checkpoint must
  // match; the new model is invisible to readers until the flip.
  std::shared_ptr<const Generation> current = LoadGeneration();
  auto created = core::GaiaModel::Create(
      current->model->config(), dataset_->history_len(), dataset_->horizon(),
      dataset_->temporal_dim(), dataset_->static_dim());
  if (!created.ok()) return created.status();
  return std::shared_ptr<core::GaiaModel>(std::move(created).value());
}

Status ShardedServer::LoadCheckpoint(const std::string& path) {
  GAIA_OBS_SPAN("sharded.load_checkpoint");
  std::lock_guard<std::mutex> lock(publish_mu_);
  auto fresh = NewEmptyModel();
  if (!fresh.ok()) return fresh.status();
  const Status loaded =
      util::RetryCall(config_.server.checkpoint_retry,
                      [&] { return fresh.value()->Load(path); });
  if (!loaded.ok()) return loaded;  // nothing flipped; old generation serves
  FlipGeneration(MakeGeneration(std::move(fresh).value(),
                                epoch_.load(std::memory_order_acquire) + 1));
  return Status::OK();
}

Status ShardedServer::LoadCheckpoint(const CheckpointStore& store) {
  GAIA_OBS_SPAN("sharded.load_checkpoint");
  std::lock_guard<std::mutex> lock(publish_mu_);
  auto fresh = NewEmptyModel();
  if (!fresh.ok()) return fresh.status();
  auto report = store.LoadLatestGood(fresh.value().get());
  if (!report.ok()) return report.status();
  last_load_rollbacks_ = report.value().rollbacks;
  FlipGeneration(MakeGeneration(std::move(fresh).value(),
                                epoch_.load(std::memory_order_acquire) + 1));
  return Status::OK();
}

ShardedServer::Prediction ShardedServer::Predict(int32_t shop) {
  return Predict(shop, config_.server.deadline_ms, nullptr);
}

ShardedServer::Prediction ShardedServer::Predict(
    int32_t shop, double deadline_ms, const util::CancelToken* cancel) {
  GAIA_OBS_SPAN("sharded.predict");
  // Nested ParallelFor calls inside the forward run inline on this thread:
  // the concurrent callers ARE the parallelism, and the inline path is the
  // exact serial path, which keeps answers bitwise equal to the unsharded
  // server.
  util::ThreadPool::InlineScope inline_scope;
  // The caller's token is the ambient parent of Serve's own deadline token,
  // so a fired token aborts the forward at its next check.
  util::CancelScope cancel_scope(cancel);
  const std::shared_ptr<const Generation> generation = LoadGeneration();
  return ServeOne(*generation, shop, deadline_ms);
}

std::vector<ShardedServer::Prediction> ShardedServer::PredictBatch(
    const std::vector<int32_t>& shops) {
  GAIA_OBS_SPAN("sharded.predict_batch");
  // One snapshot for the whole batch: a flip that lands mid-batch is seen
  // by the next call, never by half of this one.
  const std::shared_ptr<const Generation> generation = LoadGeneration();
  std::vector<Prediction> out(shops.size());
  autograd::InferenceScope no_tape;
  util::ParallelFor(static_cast<int64_t>(shops.size()), [&](int64_t i) {
    const auto idx = static_cast<size_t>(i);
    out[idx] =
        ServeOne(*generation, shops[idx], config_.server.deadline_ms);
  });
  return out;
}

ShardedServer::Prediction ShardedServer::ServeOne(const Generation& generation,
                                                  int32_t shop,
                                                  double deadline_ms) {
  obs::RequestContext ctx;
  ctx.request_id = obs::NextRequestId();
  ctx.shard = ShardOf(shop);
  Prediction prediction = generation.server->Serve(shop, deadline_ms, ctx);
  total_requests_.fetch_add(1, std::memory_order_relaxed);
  if (prediction.served_by == ModelServer::ServePath::kFallback) {
    fallback_requests_.fetch_add(1, std::memory_order_relaxed);
  }
  if (obs::Enabled()) {
    shard_requests_[static_cast<size_t>(ctx.shard)]->Increment();
    TierMetrics::Get().requests.Increment();
  }
  return prediction;
}

}  // namespace gaia::serving
