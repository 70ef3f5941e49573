#include "serving/monthly_scheduler.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "data/dataset.h"
#include "obs/obs.h"
#include "util/stopwatch.h"

namespace gaia::serving {

namespace {

struct SchedulerMetrics {
  obs::Counter& cycle_failures = obs::MetricsRegistry::Global().GetCounter(
      "gaia_robust_cycle_failures_total",
      "Monthly cycles that hit at least one failure (still served if possible)");
  obs::Counter& cycles_skipped = obs::MetricsRegistry::Global().GetCounter(
      "gaia_robust_cycles_skipped_total",
      "Monthly cycles that could not serve at all and were skipped");
  obs::Histogram& cycle_seconds = obs::MetricsRegistry::Global().GetHistogram(
      "gaia_scheduler_cycle_seconds", {},
      "Wall time of one retrain+publish+serve cycle");
  obs::Histogram& train_seconds = obs::MetricsRegistry::Global().GetHistogram(
      "gaia_scheduler_train_seconds", {},
      "Offline retrain wall time per cycle");
  obs::Histogram& serve_seconds = obs::MetricsRegistry::Global().GetHistogram(
      "gaia_scheduler_serve_seconds", {},
      "Online serve sweep wall time per cycle");
  // Drift gauges are operational signals like the gaia_robust_* counters:
  // set unconditionally (once per cycle, not hot-path) so an operator sees
  // drift with GAIA_OBS off.
  obs::Gauge& drift_score = obs::MetricsRegistry::Global().GetGauge(
      "gaia_drift_score",
      "Relative excess of the latest served cycle's online MAE over the "
      "trailing-window mean ((mae - baseline) / baseline; positive = worse)");
  obs::Gauge& drift_window = obs::MetricsRegistry::Global().GetGauge(
      "gaia_drift_window_cycles",
      "Served cycles in the drift baseline window");
  static SchedulerMetrics& Get() {
    static SchedulerMetrics* metrics = new SchedulerMetrics();
    return *metrics;
  }
};

}  // namespace

Result<std::vector<MonthlyScheduler::CycleReport>> MonthlyScheduler::Run()
    const {
  std::vector<CycleReport> reports;
  reports.reserve(static_cast<size_t>(config_.num_cycles));
  // Rollback substrate: in checkpoint_dir mode every good publish lands
  // here, and a broken cycle serves the newest surviving checkpoint.
  std::optional<CheckpointStore> store;
  if (!config_.checkpoint_dir.empty()) {
    CheckpointStoreConfig store_cfg;
    store_cfg.dir = config_.checkpoint_dir;
    store_cfg.keep_last = config_.checkpoint_keep;
    store_cfg.retry = config_.server.checkpoint_retry;
    store.emplace(store_cfg);
  }

  // Trailing MAEs of healthy served cycles, newest last; the drift baseline
  // for a cycle is the mean over this window *before* the cycle is pushed.
  // Rolled-back cycles are scored against it but never pushed into it: a
  // cycle served from stale weights measures the rollback, not the market,
  // and folding it in would poison every later cycle's baseline.
  std::vector<double> drift_window_maes;

  for (int cycle = 0; cycle < config_.num_cycles; ++cycle) {
    GAIA_OBS_SPAN("scheduler.cycle");
    Stopwatch cycle_watch;
    if (obs::Enabled()) {
      obs::MetricsRegistry::Global()
          .GetCounter("gaia_scheduler_cycles_total",
                      "Monthly retrain+serve cycles completed")
          .Increment();
    }
    CycleReport report;
    report.cycle = cycle;
    auto fail_step = [&report](Status status) {
      if (report.healthy) report.error = std::move(status);
      report.healthy = false;
    };

    // The month advances: calendar shifts and the population is redrawn.
    data::MarketConfig market_cfg = config_.market;
    market_cfg.start_calendar_month =
        (config_.market.start_calendar_month + cycle) % 12;
    market_cfg.seed = config_.market.seed + static_cast<uint64_t>(cycle);
    report.calendar_start_month = market_cfg.start_calendar_month;

    std::shared_ptr<data::ForecastDataset> dataset;
    // The regime (if any) replays against every month's redrawn population
    // from regime_from_cycle onward; an empty script makes this the exact
    // plain-simulator path.
    auto market = data::MarketSimulator(
                      market_cfg, cycle >= config_.regime_from_cycle
                                      ? config_.regime
                                      : data::RegimeScript())
                      .Generate();
    if (!market.ok()) {
      fail_step(market.status());
    } else {
      auto dataset_result = data::ForecastDataset::Create(
          market.value(), data::DatasetOptions{});
      if (!dataset_result.ok()) {
        fail_step(dataset_result.status());
      } else {
        dataset = std::make_shared<data::ForecastDataset>(
            std::move(dataset_result).value());
      }
    }
    if (dataset == nullptr) {
      // Without this month's snapshot there is nothing to serve against:
      // skip the cycle but keep the schedule (and the store) alive.
      SchedulerMetrics::Get().cycle_failures.Increment();
      SchedulerMetrics::Get().cycles_skipped.Increment();
      if (obs::Enabled()) {
        SchedulerMetrics::Get().cycle_seconds.Observe(
            cycle_watch.ElapsedSeconds());
      }
      reports.push_back(std::move(report));
      continue;
    }
    report.graph_edges = dataset->graph().num_edges();

    // Offline retrain + publish. In store mode the pipeline trains in
    // memory and the store handles the (atomic, verified) publish.
    OfflineTrainingPipeline::Config offline_cfg = config_.offline;
    if (store.has_value()) offline_cfg.checkpoint_path.clear();
    OfflineTrainingPipeline pipeline(offline_cfg);
    OfflineTrainingPipeline::RunReport offline_report;
    std::shared_ptr<core::GaiaModel> model;
    Result<std::shared_ptr<core::GaiaModel>> trained =
        pipeline.Run(*dataset, &offline_report);
    report.train = offline_report.train;
    if (obs::Enabled() && offline_report.train.epochs_run > 0) {
      SchedulerMetrics::Get().train_seconds.Observe(
          offline_report.train.seconds);
    }
    bool publish_failed = false;
    if (trained.ok()) {
      model = trained.value();
      report.trained = true;
      if (store.has_value()) {
        auto published = store->Publish(*model);
        if (published.ok()) {
          report.checkpoint_path = published.value();
        } else {
          // Corrupt/failed publish: the previous checkpoint stays newest in
          // the store and serving below rolls back to it.
          publish_failed = true;
          fail_step(published.status());
        }
      }
    } else {
      fail_step(trained.status());
      // Retrain failed: serve this month's requests with the last good
      // checkpoint instead (hot-swapped below). A fresh model shell is
      // enough because store checkpoints share the config's architecture.
      auto shell = core::GaiaModel::Create(
          config_.offline.model, dataset->history_len(), dataset->horizon(),
          dataset->temporal_dim(), dataset->static_dim());
      if (shell.ok()) {
        model = std::move(shell).value();
      }
    }

    bool can_serve = model != nullptr;
    if (can_serve) {
      ModelServer server(model, dataset, config_.server);
      if (store.has_value()) {
        Status swapped = server.LoadCheckpoint(*store);
        if (!swapped.ok()) {
          fail_step(swapped);
          // An untrained shell with no loadable checkpoint has nothing
          // sensible to serve; a trained in-memory model still does.
          can_serve = report.trained;
        } else {
          // Rollback detection covers all three ways a cycle can end up on
          // older weights: the store skipped bad checkpoints during the
          // load, the retrain never produced weights, or this cycle's
          // publish failed and the previous checkpoint stayed newest.
          if (server.last_load_rollbacks() > 0 || !report.trained ||
              publish_failed) {
            report.rolled_back = true;
            if (report.trained && !publish_failed) {
              fail_step(Status::DataLoss(
                  "cycle " + std::to_string(cycle) +
                  " rolled back to a previous checkpoint"));
            }
          }
          if (store->history().size() > 0 && report.checkpoint_path.empty()) {
            report.checkpoint_path = store->history().back();
          }
        }
      } else if (!offline_cfg.checkpoint_path.empty() && report.trained) {
        // Legacy single-file mode: hot-swap the published file; on failure
        // the server keeps the trained in-memory weights (verify-then-swap).
        Status swapped = server.LoadCheckpoint(offline_cfg.checkpoint_path);
        if (!swapped.ok()) fail_step(swapped);
        report.checkpoint_path = offline_cfg.checkpoint_path;
      }

      if (can_serve) {
        Stopwatch serve_watch;
        std::vector<std::vector<double>> forecasts;
        const std::vector<int32_t>& clients = dataset->test_nodes();
        forecasts.reserve(clients.size());
        for (int32_t shop : clients) {
          forecasts.push_back(server.Predict(shop).gmv);
        }
        if (obs::Enabled()) {
          SchedulerMetrics::Get().serve_seconds.Observe(
              serve_watch.ElapsedSeconds());
        }
        report.served = true;
        report.fallback_requests = server.fallback_requests();
        report.online = core::Evaluator::FromPredictions(
            "Gaia (cycle " + std::to_string(cycle) + ")", *dataset, clients,
            forecasts);
        report.mean_latency_ms =
            server.total_latency_ms() /
            static_cast<double>(std::max<int64_t>(server.total_requests(), 1));
        // Online drift: this cycle's MAE vs the trailing-window mean of
        // previously served cycles. The first served cycle has no baseline
        // and scores 0 by definition.
        if (config_.drift_window_cycles > 0) {
          const double mae = report.online.overall.mae;
          if (!drift_window_maes.empty()) {
            double baseline = 0.0;
            for (double m : drift_window_maes) baseline += m;
            baseline /= static_cast<double>(drift_window_maes.size());
            report.drift_baseline_mae = baseline;
            report.drift_score =
                (mae - baseline) / std::max(baseline, 1e-12);
          }

          // Window update: rolled-back cycles are scored above but never
          // pushed — their MAE measures stale weights, not the market.
          if (!report.rolled_back) {
            drift_window_maes.push_back(mae);
            if (drift_window_maes.size() >
                static_cast<size_t>(config_.drift_window_cycles)) {
              drift_window_maes.erase(drift_window_maes.begin());
            }
          }
          SchedulerMetrics::Get().drift_score.Set(report.drift_score);
          SchedulerMetrics::Get().drift_window.Set(
              static_cast<double>(drift_window_maes.size()));
        }
      }
    }
    if (!can_serve) SchedulerMetrics::Get().cycles_skipped.Increment();
    if (!report.healthy) SchedulerMetrics::Get().cycle_failures.Increment();
    if (obs::Enabled()) {
      SchedulerMetrics::Get().cycle_seconds.Observe(
          cycle_watch.ElapsedSeconds());
    }
    reports.push_back(std::move(report));
  }

  // Only a schedule in which every single cycle failed to serve is a hard
  // error — that means the pipeline never produced a usable model.
  bool any_served = reports.empty();
  for (const CycleReport& report : reports) any_served |= report.served;
  if (!any_served) {
    for (const CycleReport& report : reports) {
      if (!report.error.ok()) return report.error;
    }
    return Status::Internal("monthly schedule served no cycle");
  }
  return reports;
}

}  // namespace gaia::serving
