#include "serving/sharded_server.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "obs/obs.h"
#include "serving/checkpoint_store.h"
#include "util/check.h"
#include "util/retry.h"
#include "util/thread_pool.h"

namespace gaia::serving {

namespace {

/// Budget handed to the forward when the whole deadline was consumed while
/// the request sat in its shard queue: small enough that the cooperative
/// token fires immediately and the request degrades to the fallback.
constexpr double kExpiredBudgetMs = 1e-3;

/// Tier-wide metrics. queue_wait/batch_size/windows/requests are hot-path
/// and gated on obs::Enabled(); the cancel and swap counters are
/// operational events counted unconditionally (gaia_robust_* discipline).
struct TierMetrics {
  obs::Histogram& queue_wait = obs::MetricsRegistry::Global().GetHistogram(
      "gaia_serve_queue_wait_seconds", {},
      "Time a request spent in its shard queue before its window opened");
  obs::Histogram& batch_size = obs::MetricsRegistry::Global().GetHistogram(
      "gaia_serve_batch_size", obs::Histogram::ExponentialBuckets(1.0, 2.0, 8),
      "Requests coalesced per micro-batch window");
  obs::Counter& windows = obs::MetricsRegistry::Global().GetCounter(
      "gaia_serve_windows_total", "Micro-batch windows served (all shards)");
  obs::Counter& requests = obs::MetricsRegistry::Global().GetCounter(
      "gaia_serve_sharded_requests_total",
      "Requests answered by the sharded tier (all paths, all shards)");
  obs::Counter& cancelled_in_queue = obs::MetricsRegistry::Global().GetCounter(
      "gaia_serve_cancelled_in_queue_total",
      "Requests cancelled while waiting in a shard queue, dropped before "
      "the forward");
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
  config_.max_batch = std::max(1, config_.max_batch);

  std::shared_ptr<const Generation> initial =
      MakeGeneration(std::move(model), 0);
  shards_.reserve(static_cast<size_t>(config_.num_shards));
  for (int k = 0; k < config_.num_shards; ++k) {
    auto shard = std::make_unique<Shard>();
    shard->queue =
        std::make_unique<util::MpmcQueue<std::unique_ptr<PendingRequest>>>(
            config_.queue_capacity);
    shard->cell.Store(initial);
    const std::string stem = "gaia_serve_shard_" + std::to_string(k);
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    shard->requests_total = &registry.GetCounter(
        stem + "_requests_total", "Requests answered by this shard");
    shard->windows_total = &registry.GetCounter(
        stem + "_windows_total", "Micro-batch windows served by this shard");
    shard->queue_depth = &registry.GetGauge(
        stem + "_queue_depth", "Shard queue depth when its window opened");
    shards_.push_back(std::move(shard));
  }
  // Workers start only after every shard is fully built: a worker for shard
  // 0 must be able to see shards_[k] for logging/metrics without racing
  // construction.
  for (int k = 0; k < config_.num_shards; ++k) {
    shards_[static_cast<size_t>(k)]->worker =
        std::thread([this, k] { WorkerLoop(k); });
  }
}

ShardedServer::~ShardedServer() { Stop(); }

void ShardedServer::Stop() {
  if (stopped_.exchange(true, std::memory_order_acq_rel)) return;
  for (auto& shard : shards_) shard->queue->Close();
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
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
  std::shared_ptr<const Generation> current = shards_.front()->cell.Load();
  FlipGenerations(MakeGeneration(current->model, current->epoch));
}

void ShardedServer::FlipGenerations(std::shared_ptr<const Generation> next) {
  for (auto& shard : shards_) shard->cell.Store(next);
  epoch_.store(next->epoch, std::memory_order_release);
  TierMetrics::Get().swaps.Increment();
}

Result<std::shared_ptr<core::GaiaModel>> ShardedServer::NewEmptyModel() const {
  // The live generation's architecture defines the shape a checkpoint must
  // match; the new model is invisible to readers until the flip.
  std::shared_ptr<const Generation> current = shards_.front()->cell.Load();
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
  FlipGenerations(MakeGeneration(std::move(fresh).value(),
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
  FlipGenerations(MakeGeneration(std::move(fresh).value(),
                                 epoch_.load(std::memory_order_acquire) + 1));
  return Status::OK();
}

ShardedServer::Prediction ShardedServer::Predict(int32_t shop) {
  return Predict(shop, config_.server.deadline_ms, nullptr);
}

ShardedServer::Prediction ShardedServer::Predict(
    int32_t shop, double deadline_ms, const util::CancelToken* cancel) {
  GAIA_OBS_SPAN("sharded.predict");
  return Submit(shop, deadline_ms, cancel).get();
}

std::vector<ShardedServer::Prediction> ShardedServer::PredictBatch(
    const std::vector<int32_t>& shops) {
  GAIA_OBS_SPAN("sharded.predict_batch");
  std::vector<std::future<Prediction>> futures;
  futures.reserve(shops.size());
  for (int32_t shop : shops) {
    futures.push_back(Submit(shop, config_.server.deadline_ms, nullptr));
  }
  std::vector<Prediction> out;
  out.reserve(shops.size());
  for (auto& future : futures) out.push_back(future.get());
  return out;
}

std::future<ShardedServer::Prediction> ShardedServer::Submit(
    int32_t shop, double deadline_ms, const util::CancelToken* cancel) {
  auto request = std::make_unique<PendingRequest>();
  request->shop = shop;
  request->deadline_ms = deadline_ms;
  request->cancel = cancel;
  request->request_id = obs::NextRequestId();
  request->enqueued_at = std::chrono::steady_clock::now();
  std::future<Prediction> future = request->promise.get_future();
  const int shard_index = ShardOf(shop);
  Shard& shard = *shards_[static_cast<size_t>(shard_index)];
  if (stopped_.load(std::memory_order_acquire) ||
      !shard.queue->Push(std::move(request))) {
    // Queues closed: Push left `request` with us, so answer it inline on
    // the caller against the current generation — accepted requests are
    // never dropped, even during shutdown.
    std::shared_ptr<const Generation> generation = shard.cell.Load();
    Prediction prediction = ServeOne(*generation, *request, shard_index);
    RecordAnswer(shard_index, prediction);
    request->promise.set_value(std::move(prediction));
  }
  return future;
}

void ShardedServer::WorkerLoop(int shard_index) {
  // Nested ParallelFor calls inside the forward run inline on this thread:
  // the K shard workers ARE the parallelism, and the inline path is the
  // exact serial path, which is what keeps sharded output bitwise equal to
  // the unsharded server.
  util::ThreadPool::InlineScope inline_scope;
  Shard& shard = *shards_[static_cast<size_t>(shard_index)];
  std::vector<std::unique_ptr<PendingRequest>> window;
  while (true) {
    std::optional<std::unique_ptr<PendingRequest>> first =
        shard.queue->Pop();
    if (!first.has_value()) break;  // closed and drained
    window.clear();
    window.push_back(std::move(*first));
    if (config_.max_batch > 1 && config_.max_wait_us > 0.0) {
      const auto flush_at =
          std::chrono::steady_clock::now() +
          std::chrono::nanoseconds(
              static_cast<int64_t>(config_.max_wait_us * 1e3));
      while (static_cast<int>(window.size()) < config_.max_batch) {
        std::optional<std::unique_ptr<PendingRequest>> next =
            shard.queue->PopUntil(flush_at);
        // nullopt = window expired (or queue closed and drained): flush.
        if (!next.has_value()) break;
        window.push_back(std::move(*next));
      }
    }
    ServeWindow(shard_index, window);
  }
}

void ShardedServer::ServeWindow(
    int shard_index, std::vector<std::unique_ptr<PendingRequest>>& window) {
  GAIA_OBS_SPAN("sharded.window");
  Shard& shard = *shards_[static_cast<size_t>(shard_index)];
  // One generation snapshot per window: every request in the window is
  // answered by the same weights even if a flip lands mid-window.
  std::shared_ptr<const Generation> generation = shard.cell.Load();
  if (obs::Enabled()) {
    TierMetrics& metrics = TierMetrics::Get();
    metrics.windows.Increment();
    metrics.batch_size.Observe(static_cast<double>(window.size()));
    shard.windows_total->Increment();
    shard.queue_depth->Set(static_cast<double>(shard.queue->size()));
  }
  for (auto& request : window) {
    Prediction prediction = ServeOne(*generation, *request, shard_index);
    RecordAnswer(shard_index, prediction);
    request->promise.set_value(std::move(prediction));
  }
}

ShardedServer::Prediction ShardedServer::ServeOne(const Generation& gen,
                                                  PendingRequest& request,
                                                  int shard_index) {
  const auto now = std::chrono::steady_clock::now();
  const double waited_ms =
      std::chrono::duration<double, std::milli>(now - request.enqueued_at)
          .count();
  if (obs::Enabled()) {
    TierMetrics::Get().queue_wait.Observe(waited_ms * 1e-3);
  }
  if (request.cancel != nullptr && request.cancel->Cancelled()) {
    // The caller gave up while the request was queued: drop it before the
    // forward. The rest of the window never notices.
    util::NoteCancelObserved();
    TierMetrics::Get().cancelled_in_queue.Increment();
    Prediction prediction;
    prediction.shop = request.shop;
    prediction.gmv.assign(static_cast<size_t>(dataset_->horizon()), 0.0);
    prediction.served_by = ModelServer::ServePath::kFallback;
    prediction.degraded_reason = "cancelled while queued";
    prediction.request_id = request.request_id;
    // This request never reaches Serve, so the flight recorder is written
    // here: /requestz must cover dropped requests, not just answered ones.
    obs::EventLog& log = obs::EventLog::Global();
    if (log.enabled()) {
      obs::EventRecord record;
      record.request_id = request.request_id;
      record.shop = request.shop;
      record.shard = shard_index;
      record.served_by = 1;
      record.cancelled = 1;
      record.queue_wait_ms = waited_ms;
      std::strncpy(record.reason, prediction.degraded_reason.c_str(),
                   sizeof(record.reason) - 1);
      log.Append(record);
    }
    return prediction;
  }
  double budget_ms = request.deadline_ms;
  bool consumed_in_queue = false;
  if (budget_ms > 0.0) {
    // The deadline covers queue wait + forward.
    budget_ms -= waited_ms;
    if (budget_ms <= 0.0) {
      budget_ms = kExpiredBudgetMs;
      consumed_in_queue = true;
    }
  }
  // Install the request token as the ambient parent so Serve's own deadline
  // child observes it: a cancel fired mid-forward aborts at the next chunk.
  util::CancelScope scope(request.cancel);
  obs::RequestContext ctx;
  ctx.request_id = request.request_id;
  ctx.queue_wait_ms = waited_ms;
  ctx.shard = shard_index;
  Prediction prediction = gen.server->Serve(request.shop, budget_ms, ctx);
  if (consumed_in_queue &&
      prediction.served_by == ModelServer::ServePath::kFallback) {
    prediction.degraded_reason =
        "deadline_exceeded (budget " + std::to_string(request.deadline_ms) +
        " ms consumed while queued)";
  }
  return prediction;
}

void ShardedServer::RecordAnswer(int shard_index,
                                 const Prediction& prediction) {
  total_requests_.fetch_add(1, std::memory_order_relaxed);
  if (prediction.served_by == ModelServer::ServePath::kFallback) {
    fallback_requests_.fetch_add(1, std::memory_order_relaxed);
  }
  Shard& shard = *shards_[static_cast<size_t>(shard_index)];
  shard.requests.fetch_add(1, std::memory_order_relaxed);
  if (obs::Enabled()) {
    shard.requests_total->Increment();
    TierMetrics::Get().requests.Increment();
  }
}

}  // namespace gaia::serving
