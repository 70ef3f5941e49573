#include "serving/model_server.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <optional>
#include <thread>

#include "core/evaluator.h"
#include "graph/eseller_graph.h"
#include "obs/obs.h"
#include "serving/checkpoint_store.h"
#include "ts/holt_winters.h"
#include "util/cancel.h"
#include "util/check.h"
#include "util/fault_injector.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace gaia::serving {

namespace {

/// Serving metrics, resolved once. Only touched when obs::Enabled().
struct ServeMetrics {
  obs::Counter& requests = obs::MetricsRegistry::Global().GetCounter(
      "gaia_serve_requests_total", "Predictions served (single + batch)");
  obs::Counter& batches = obs::MetricsRegistry::Global().GetCounter(
      "gaia_serve_batches_total", "PredictBatch sweeps served");
  obs::Histogram& latency = obs::MetricsRegistry::Global().GetHistogram(
      "gaia_serve_latency_seconds", {},
      "Per-request forward latency (ego extraction + model forward)");
  obs::Histogram& ego_nodes = obs::MetricsRegistry::Global().GetHistogram(
      "gaia_serve_ego_nodes",
      obs::Histogram::ExponentialBuckets(1.0, 2.0, 12),
      "Ego-subgraph size per request, in nodes");
  static ServeMetrics& Get() {
    static ServeMetrics* metrics = new ServeMetrics();
    return *metrics;
  }
};

/// Failure-path metrics. Unlike the hot-path ServeMetrics these count
/// unconditionally — degradation events are rare and operators need them
/// even with GAIA_OBS off.
struct RobustMetrics {
  obs::Counter& fallbacks = obs::MetricsRegistry::Global().GetCounter(
      "gaia_robust_fallback_served_total",
      "Requests answered by the Holt-Winters fallback instead of the model");
  obs::Counter& nonfinite = obs::MetricsRegistry::Global().GetCounter(
      "gaia_robust_nonfinite_forwards_total",
      "Model forwards rejected because the output carried NaN/Inf");
  obs::Counter& deadline = obs::MetricsRegistry::Global().GetCounter(
      "gaia_robust_deadline_exceeded_total",
      "Requests whose model forward overran the per-request deadline");
  obs::Counter& ego_failures = obs::MetricsRegistry::Global().GetCounter(
      "gaia_robust_ego_extract_failures_total",
      "Requests whose ego-subgraph extraction failed");
  static RobustMetrics& Get() {
    static RobustMetrics* metrics = new RobustMetrics();
    return *metrics;
  }
};

/// Cancellation metrics, unconditional like RobustMetrics: a mid-flight
/// abort is an operational event worth counting with GAIA_OBS off.
struct CancelServeMetrics {
  obs::Histogram& latency_saved = obs::MetricsRegistry::Global().GetHistogram(
      "gaia_cancel_latency_saved_seconds", {},
      "Estimated wall-clock saved per aborted forward: mean successful "
      "forward latency minus elapsed time at abort (an estimate; the "
      "counterfactual full forward is never run)");
  static CancelServeMetrics& Get() {
    static CancelServeMetrics* metrics = new CancelServeMetrics();
    return *metrics;
  }
};

/// degraded_reason of a request whose caller's own token (installed with
/// util::CancelScope around the call) aborted the forward.
constexpr char kCallerCancelledReason[] = "cancelled by caller";

std::string DeadlineReason(double deadline_ms, const char* detail) {
  return "deadline_exceeded (budget " + std::to_string(deadline_ms) +
         " ms, " + detail + ")";
}

/// Seed of the per-request ego-sampling stream: a splitmix64-style mix of
/// the server seed and the shop id. Giving every request its own stream
/// (instead of advancing one shared RNG in request order) is what makes a
/// forecast a pure function of (config, shop) — independent of request
/// interleaving, batch composition, shard assignment and thread count.
uint64_t RequestSeed(uint64_t seed, int32_t shop) {
  uint64_t x = seed ^ (static_cast<uint64_t>(static_cast<uint32_t>(shop)) *
                       0x9e3779b97f4a7c15ULL);
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

void ObservePrediction(const ModelServer::Prediction& prediction) {
  if (!obs::Enabled()) return;
  ServeMetrics& metrics = ServeMetrics::Get();
  metrics.requests.Increment();
  metrics.latency.Observe(prediction.latency_ms * 1e-3);
  metrics.ego_nodes.Observe(static_cast<double>(prediction.ego_nodes));
}

/// Flight-recorder append for one served request. One relaxed load when the
/// log is disabled; never touches the numeric path.
void LogServedRequest(const ModelServer::Prediction& prediction,
                      const obs::RequestContext& ctx) {
  obs::EventLog& log = obs::EventLog::Global();
  if (!log.enabled()) return;
  obs::EventRecord record;
  record.request_id = ctx.request_id;
  record.shop = prediction.shop;
  record.shard = ctx.shard;
  record.served_by =
      prediction.served_by == ModelServer::ServePath::kFallback ? 1u : 0u;
  record.cancelled =
      prediction.degraded_reason == kCallerCancelledReason ? 1u : 0u;
  record.latency_ms = prediction.latency_ms;
  std::strncpy(record.reason, prediction.degraded_reason.c_str(),
               sizeof(record.reason) - 1);
  log.Append(record);
}

}  // namespace

ModelServer::ModelServer(std::shared_ptr<core::GaiaModel> model,
                         std::shared_ptr<const data::ForecastDataset> dataset,
                         const ServerConfig& config)
    : model_(std::move(model)),
      dataset_(std::move(dataset)),
      config_(config) {
  GAIA_CHECK(model_ != nullptr);
  GAIA_CHECK(dataset_ != nullptr);
}

std::vector<double> ModelServer::FallbackForecast(int32_t shop) const {
  GAIA_OBS_SPAN("server.fallback");
  const int64_t horizon = dataset_->horizon();
  std::vector<double> gmv(static_cast<size_t>(horizon), 0.0);
  if (!config_.fallback_enabled) return gmv;
  // The shop's own active history in normalized units (zeros before birth
  // carry no signal, so only the observed tail is fit).
  const Tensor& z = dataset_->z(shop);
  const int64_t t_len = dataset_->history_len();
  const int64_t active =
      std::min<int64_t>(dataset_->series_length(shop), t_len);
  std::vector<double> series;
  series.reserve(static_cast<size_t>(active));
  for (int64_t t = t_len - active; t < t_len; ++t) {
    series.push_back(static_cast<double>(z.at(t)));
  }
  if (series.empty()) return gmv;  // pure newcomer: zero forecast
  auto fit = ts::HoltWinters::Fit(series, ts::HoltWintersConfig{});
  if (!fit.ok()) return gmv;
  const std::vector<double> forecast =
      fit.value().Forecast(static_cast<int>(horizon));
  for (int64_t h = 0; h < horizon; ++h) {
    const double value = forecast[static_cast<size_t>(h)];
    if (!std::isfinite(value)) continue;
    // GMV is non-negative; an extrapolated downtrend is floored at zero.
    gmv[static_cast<size_t>(h)] =
        std::max(0.0, dataset_->Denormalize(shop, value));
  }
  return gmv;
}

ModelServer::Prediction ModelServer::PredictOne(
    int32_t shop, const graph::EgoSubgraph& ego, double deadline_ms) const {
  Stopwatch watch;
  Prediction prediction;
  prediction.shop = shop;
  prediction.ego_nodes = ego.num_nodes();

  std::string reason;
  bool model_ok = false;
  Tensor normalized;
  // The caller's token, if any: work it aborts (ego extraction or forward)
  // was cancelled, not failed or overrun, so it is reported apart.
  const util::CancelToken* caller = util::CancelToken::Current();
  if (ego.nodes.empty()) {
    if (caller != nullptr && caller->Cancelled()) {
      reason = kCallerCancelledReason;
      util::NoteCancelObserved();
    } else {
      reason = "ego-subgraph extraction failed";
      RobustMetrics::Get().ego_failures.Increment();
    }
  } else {
    util::FaultInjector& faults = util::FaultInjector::Global();
    // Arm the latency budget *before* the forward: the token is installed
    // for this thread (and re-installed on pool workers), so the kernels
    // abort at their next chunk boundary once it fires, instead of burning
    // the full forward and noticing afterwards.
    std::shared_ptr<util::CancelToken> token;
    std::optional<util::CancelScope> scope;
    if (deadline_ms > 0.0 && config_.cooperative_cancel) {
      token = util::CancelToken::Child(caller, deadline_ms);
      scope.emplace(token.get());
    }
    std::optional<util::FaultKind> fault;
    if (faults.enabled()) {
      fault = faults.Sample("serving.forward");
      // Fault site "serving.cancel_delay": a forward stuck before its first
      // cooperative checkpoint. Hold the request until the token fires (or
      // a small cap, so un-armed requests are only briefly delayed), then
      // let the forward observe the fired token.
      if (faults.Sample("serving.cancel_delay").has_value()) {
        const double cap_ms = deadline_ms > 0.0 ? deadline_ms * 2.0 : 1.0;
        Stopwatch delay_watch;
        while (delay_watch.ElapsedMillis() < cap_ms) {
          if (token != nullptr && token->Cancelled()) break;
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
      }
    }
    if (fault && *fault != util::FaultKind::kNan) {
      reason = util::FaultStatus(*fault, "serving.forward").ToString();
      if (*fault == util::FaultKind::kDeadline) {
        RobustMetrics::Get().deadline.Increment();
      }
    } else {
      Result<Tensor> forward = model_->PredictEgo(*dataset_, ego);
      if (!forward.ok()) {
        // kCancelled: a token fired and the forward unwound mid-flight.
        if (caller != nullptr && caller->Cancelled()) {
          reason = kCallerCancelledReason;
        } else {
          reason = DeadlineReason(deadline_ms, "aborted mid-forward");
          RobustMetrics::Get().deadline.Increment();
        }
        util::NoteCancelObserved();
        // Estimate the wall-clock the abort saved against the running mean
        // of successful forwards (the counterfactual is never run).
        const int64_t count = model_forward_count_.load(std::memory_order_relaxed);
        if (count > 0) {
          const double mean_ms =
              static_cast<double>(
                  model_forward_us_total_.load(std::memory_order_relaxed)) *
              1e-3 / static_cast<double>(count);
          const double saved_ms = mean_ms - watch.ElapsedMillis();
          if (saved_ms > 0.0) {
            CancelServeMetrics::Get().latency_saved.Observe(saved_ms * 1e-3);
          }
        }
      } else {
        normalized = std::move(forward).value();
        if (fault && *fault == util::FaultKind::kNan) {
          // Poison the forward output: models the paper's anomalous-model
          // scenario where a bad checkpoint or input produces NaN scores.
          for (int64_t h = 0; h < normalized.size(); ++h) {
            normalized.data()[h] = std::nanf("");
          }
        }
        model_ok = true;
        for (int64_t h = 0; h < normalized.size(); ++h) {
          if (!std::isfinite(normalized.data()[h])) {
            reason = "non-finite model output";
            RobustMetrics::Get().nonfinite.Increment();
            model_ok = false;
            break;
          }
        }
        // Check-after-forward backstop: the only deadline check when
        // cooperative_cancel is off, and the safety net for a forward that
        // completed its last chunk just past the budget.
        if (model_ok && deadline_ms > 0.0 &&
            watch.ElapsedMillis() > deadline_ms) {
          reason = DeadlineReason(deadline_ms, "completed late");
          RobustMetrics::Get().deadline.Increment();
          model_ok = false;
        }
        if (model_ok) {
          model_forward_count_.fetch_add(1, std::memory_order_relaxed);
          model_forward_us_total_.fetch_add(
              static_cast<int64_t>(watch.ElapsedMillis() * 1e3),
              std::memory_order_relaxed);
        }
      }
    }
  }

  if (model_ok) {
    prediction.gmv.reserve(static_cast<size_t>(normalized.size()));
    for (int64_t h = 0; h < normalized.size(); ++h) {
      prediction.gmv.push_back(
          dataset_->Denormalize(shop, normalized.data()[h]));
    }
  } else {
    prediction.served_by = ServePath::kFallback;
    prediction.degraded_reason = reason;
    prediction.gmv = FallbackForecast(shop);
    RobustMetrics::Get().fallbacks.Increment();
  }
  prediction.latency_ms = watch.ElapsedMillis();
  return prediction;
}

ModelServer::Prediction ModelServer::Serve(int32_t shop,
                                           double deadline_ms) const {
  obs::RequestContext ctx;
  ctx.request_id = obs::NextRequestId();
  return Serve(shop, deadline_ms, ctx);
}

int QuantileBandTable::Group(int series_length) {
  return series_length < core::Evaluator::kNewShopThreshold ? kNewShops
                                                            : kOldShops;
}

Result<QuantileBandTable> ModelServer::CalibrateQuantileBands(
    const std::vector<int32_t>& calibration_nodes, double coverage) const {
  if (coverage <= 0.0 || coverage >= 1.0) {
    return Status::InvalidArgument("band coverage must be in (0, 1)");
  }
  if (calibration_nodes.empty()) {
    return Status::InvalidArgument("band calibration needs held-out nodes");
  }
  const int64_t num_nodes = dataset_->num_nodes();
  for (int32_t shop : calibration_nodes) {
    if (shop < 0 || shop >= num_nodes) {
      return Status::InvalidArgument("calibration node " +
                                     std::to_string(shop) + " out of range");
    }
  }
  // The server's own answers, exactly as requests get them.
  std::vector<Prediction> answers(calibration_nodes.size());
  {
    autograd::InferenceScope no_tape;
    util::ParallelFor(static_cast<int64_t>(answers.size()), [&](int64_t i) {
      const auto idx = static_cast<size_t>(i);
      answers[idx] = Serve(calibration_nodes[idx], 0.0);
    });
  }

  // Conformity scores |target - served forecast| in normalized units, one
  // per (group, month) cell.
  const auto horizon = static_cast<size_t>(dataset_->horizon());
  std::array<std::vector<std::vector<double>>, 2> scores;
  for (auto& group : scores) group.resize(horizon);
  for (const Prediction& answer : answers) {
    if (answer.served_by == ServePath::kFallback) {
      return Status::FailedPrecondition(
          "band calibration answer for shop " + std::to_string(answer.shop) +
          " came from the fallback: " + answer.degraded_reason);
    }
    const Tensor& target = dataset_->target(answer.shop);
    const double scale = dataset_->scale(answer.shop);
    auto& group = scores[static_cast<size_t>(
        QuantileBandTable::Group(dataset_->series_length(answer.shop)))];
    for (size_t h = 0; h < horizon; ++h) {
      group[h].push_back(std::abs(
          static_cast<double>(target.at(static_cast<int64_t>(h))) -
          answer.gmv[h] / scale));
    }
  }

  QuantileBandTable table;
  table.coverage = coverage;
  for (size_t g = 0; g < scores.size(); ++g) {
    table.half_width[g].resize(horizon);
    for (size_t h = 0; h < horizon; ++h) {
      std::vector<double>& cell = scores[g][h];
      // The split-conformal quantile is the k-th order statistic with
      // k = ceil((n + 1) * coverage); the epsilon keeps an exact product
      // such as 10 * 0.8 from rounding up a rank. A cell with k > n has no
      // such statistic and cannot carry the guarantee.
      const size_t n = cell.size();
      const auto k = static_cast<size_t>(std::ceil(
          (static_cast<double>(n) + 1.0) * coverage - 1e-9));
      if (k > n) {
        return Status::InvalidArgument(
            std::string(g == QuantileBandTable::kNewShops ? "new" : "old") +
            "-shop band for month +" + std::to_string(h + 1) + " needs " +
            std::to_string(k) + " calibration shops at coverage " +
            std::to_string(coverage) + ", has " + std::to_string(n));
      }
      std::nth_element(cell.begin(), cell.begin() + (k - 1), cell.end());
      table.half_width[g][h] = cell[k - 1];
    }
  }
  return table;
}

void ModelServer::EnableQuantileBands(QuantileBandTable table) {
  for (const std::vector<double>& row : table.half_width) {
    GAIA_CHECK_EQ(static_cast<int64_t>(row.size()), dataset_->horizon());
    for (double width : row) GAIA_CHECK(std::isfinite(width) && width >= 0.0);
  }
  bands_ = std::make_shared<const QuantileBandTable>(std::move(table));
}

void ModelServer::ApplyQuantileBands(Prediction* prediction) const {
  const std::vector<double>& half_width =
      bands_->half_width[static_cast<size_t>(QuantileBandTable::Group(
          dataset_->series_length(prediction->shop)))];
  const double inflate = prediction->served_by == ServePath::kFallback
                             ? bands_->degraded_inflation
                             : 1.0;
  const size_t horizon = prediction->gmv.size();
  prediction->p50 = prediction->gmv;
  prediction->p10.resize(horizon);
  prediction->p90.resize(horizon);
  for (size_t h = 0; h < horizon; ++h) {
    // Denormalize is purely multiplicative (value * scale(shop)), so a
    // normalized-units half-width denormalizes exactly like a forecast.
    const double width =
        inflate * dataset_->Denormalize(prediction->shop, half_width[h]);
    prediction->p10[h] = std::max(0.0, prediction->gmv[h] - width);
    prediction->p90[h] = prediction->gmv[h] + width;
  }
}

ModelServer::Prediction ModelServer::Serve(
    int32_t shop, double deadline_ms, const obs::RequestContext& ctx) const {
  // Per-request RNG: the ego subgraph depends only on (config.seed, shop),
  // never on what was served before — see RequestSeed above.
  Rng rng(RequestSeed(config_.seed, shop));
  graph::EgoSubgraph ego =
      graph::ExtractEgoSubgraph(dataset_->graph(), shop, config_.ego_hops,
                                config_.max_fanout, &rng);
  Prediction prediction = PredictOne(shop, ego, deadline_ms);
  prediction.request_id = ctx.request_id;
  if (bands_ != nullptr) ApplyQuantileBands(&prediction);
  ObservePrediction(prediction);
  LogServedRequest(prediction, ctx);
  return prediction;
}

ModelServer::Prediction ModelServer::Predict(int32_t shop) {
  return Predict(shop, config_.deadline_ms);
}

ModelServer::Prediction ModelServer::Predict(int32_t shop,
                                             double deadline_ms) {
  GAIA_OBS_SPAN("server.predict");
  Prediction prediction = Serve(shop, deadline_ms);
  ++total_requests_;
  if (prediction.served_by == ServePath::kFallback) ++fallback_requests_;
  total_latency_ms_ += prediction.latency_ms;
  return prediction;
}

std::vector<ModelServer::Prediction> ModelServer::PredictBatch(
    const std::vector<int32_t>& shops) {
  GAIA_OBS_SPAN("server.predict_batch");
  if (obs::Enabled()) ServeMetrics::Get().batches.Increment();
  // The monthly sweep: requests fan out across the pool, one Serve call
  // (ego extraction + forward) per claimed thread. Per-request RNG keeps
  // every answer bitwise identical to a standalone Predict of the same
  // shop, at any thread count.
  std::vector<Prediction> out(shops.size());
  // No tape on any worker: the pool re-installs the scope on its threads.
  autograd::InferenceScope no_tape;
  util::ParallelFor(static_cast<int64_t>(shops.size()), [&](int64_t i) {
    const auto idx = static_cast<size_t>(i);
    out[idx] = Serve(shops[idx], config_.deadline_ms);
  });
  for (const Prediction& prediction : out) {
    ++total_requests_;
    if (prediction.served_by == ServePath::kFallback) ++fallback_requests_;
    total_latency_ms_ += prediction.latency_ms;
  }
  return out;
}

Status ModelServer::LoadCheckpoint(const std::string& path) {
  GAIA_OBS_SPAN("server.load_checkpoint");
  // Module::Load is verify-then-swap, so a failed attempt (or exhausted
  // retry) leaves the serving weights untouched.
  return util::RetryCall(config_.checkpoint_retry,
                         [&] { return model_->Load(path); });
}

Status ModelServer::LoadCheckpoint(const CheckpointStore& store) {
  GAIA_OBS_SPAN("server.load_checkpoint");
  auto report = store.LoadLatestGood(model_.get());
  if (!report.ok()) return report.status();
  last_load_rollbacks_ = report.value().rollbacks;
  return Status::OK();
}

Result<std::shared_ptr<core::GaiaModel>> OfflineTrainingPipeline::Run(
    const data::ForecastDataset& dataset, RunReport* report) const {
  auto created = core::GaiaModel::Create(
      config_.model, dataset.history_len(), dataset.horizon(),
      dataset.temporal_dim(), dataset.static_dim());
  if (!created.ok()) return created.status();
  std::shared_ptr<core::GaiaModel> model = std::move(created).value();
  core::TrainResult train_result =
      core::Trainer(config_.train).Fit(model.get(), dataset);
  if (report != nullptr) {
    report->train = train_result;
    report->checkpoint_path = config_.checkpoint_path;
  }
  if (train_result.cancelled) {
    // A retrain that blew its budget publishes nothing: the checkpoint
    // store keeps the last good weights and the scheduler serves those
    // (its rollback path), so no half-trained model ever goes live.
    return Status::Cancelled("offline retrain aborted by deadline after " +
                             std::to_string(train_result.epochs_run) +
                             " epochs");
  }
  if (!config_.checkpoint_path.empty()) {
    GAIA_RETURN_NOT_OK(model->Save(config_.checkpoint_path));
  }
  return model;
}

}  // namespace gaia::serving
