#include "core/trainer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>

#include "autograd/ops.h"
#include "obs/obs.h"
#include "optim/lr_schedule.h"
#include "optim/optimizer.h"
#include "util/cancel.h"
#include "util/check.h"
#include "util/fault_injector.h"
#include "util/logging.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace gaia::core {

namespace ag = autograd;

namespace {

// Fault site "train.optimizer_step" (a failed update) skips this epoch's
// parameter update entirely — params and optimizer state stay at the
// previous epoch — and training retries on the next epoch.
bool SampleOptimizerStepFault() {
  util::FaultInjector& faults = util::FaultInjector::Global();
  return faults.enabled() &&
         faults.Sample("train.optimizer_step").has_value();
}

void CountSkippedStep(TrainResult* result) {
  ++result->skipped_steps;
  static obs::Counter& skipped_metric =
      obs::MetricsRegistry::Global().GetCounter(
          "gaia_robust_train_steps_skipped_total",
          "Training epochs whose optimizer step was skipped by an "
          "injected fault");
  skipped_metric.Increment();
}

}  // namespace

double Trainer::EvaluateMse(ForecastModel* model,
                            const data::ForecastDataset& dataset,
                            const std::vector<int32_t>& nodes) {
  GAIA_OBS_SPAN("trainer.eval");
  GAIA_CHECK(!nodes.empty());
  // Evaluation never backpropagates: build no tape.
  ag::InferenceScope no_tape;
  Rng rng(0);
  std::vector<Var> preds =
      model->PredictNodes(dataset, nodes, /*training=*/false, &rng);
  if (preds.size() != nodes.size()) {
    // Forward aborted by the ambient cancel token; the caller must check the
    // token before trusting this value.
    return std::numeric_limits<double>::quiet_NaN();
  }
  // Per-sample squared-error partials run in parallel; the reduction over
  // samples stays serial in node order so the result is thread-count
  // invariant.
  std::vector<double> partial(preds.size(), 0.0);
  util::ParallelFor(static_cast<int64_t>(preds.size()), [&](int64_t i) {
    const Tensor& target = dataset.target(nodes[static_cast<size_t>(i)]);
    double sample_total = 0.0;
    for (int64_t h = 0; h < target.size(); ++h) {
      const double d = preds[static_cast<size_t>(i)]->value.data()[h] -
                       target.data()[h];
      sample_total += d * d;
    }
    partial[static_cast<size_t>(i)] = sample_total;
  });
  double total = 0.0;
  int64_t count = 0;
  for (size_t i = 0; i < preds.size(); ++i) {
    total += partial[i];
    count += dataset.target(nodes[i]).size();
  }
  return total / static_cast<double>(count);
}

TrainResult Trainer::Fit(ForecastModel* model,
                         const data::ForecastDataset& dataset) const {
  GAIA_CHECK(model != nullptr);
  GAIA_OBS_SPAN("trainer.fit");
  // Fit's own deadline becomes a child of whatever token the caller
  // installed, so either can abort the loop at the next safe point.
  std::shared_ptr<util::CancelToken> fit_token;
  const util::CancelToken* ambient = util::CancelToken::Current();
  if (config_.deadline_ms > 0.0) {
    fit_token = util::CancelToken::Child(ambient, config_.deadline_ms);
  }
  const util::CancelToken* token =
      fit_token != nullptr ? fit_token.get() : ambient;
  std::optional<util::CancelScope> cancel_scope;
  if (fit_token != nullptr) cancel_scope.emplace(fit_token.get());
  Stopwatch watch;
  Rng rng(config_.seed);
  std::vector<Var> params = model->Parameters();
  optim::Adam optimizer(params, config_.learning_rate);
  optim::EarlyStopping stopper(config_.patience);

  TrainResult result;
  std::vector<Tensor> best_params;
  auto snapshot = [&] {
    best_params.clear();
    best_params.reserve(params.size());
    for (const Var& p : params) best_params.push_back(p->value);
  };
  auto restore = [&] {
    if (best_params.empty()) return;
    for (size_t i = 0; i < params.size(); ++i) {
      params[i]->value = best_params[i];
    }
  };

  const std::vector<int32_t>& train_nodes = dataset.train_nodes();
  const std::vector<int32_t>& val_nodes = dataset.val_nodes();
  double best_val = 1e300;
  const optim::CosineDecayLr schedule(config_.learning_rate,
                                      config_.learning_rate * 0.1f);
  for (int epoch = 0; epoch < config_.max_epochs; ++epoch) {
    if (token != nullptr && token->Cancelled()) {
      result.cancelled = true;
      util::NoteCancelObserved();
      break;
    }
    if (config_.cosine_lr_decay) {
      optimizer.set_lr(schedule.LearningRate(epoch, config_.max_epochs));
    }
    // Select the epoch's node batch.
    std::vector<int32_t> batch = train_nodes;
    if (config_.batch_nodes > 0 &&
        config_.batch_nodes < static_cast<int64_t>(batch.size())) {
      rng.Shuffle(&batch);
      batch.resize(static_cast<size_t>(config_.batch_nodes));
    }
    Stopwatch step_watch;
    float step_loss = 0.0f;
    bool aborted = false;
    {
      GAIA_OBS_SPAN("trainer.step");
      Var loss;
      {
        GAIA_OBS_SPAN("trainer.loss_forward");
        loss = model->TrainingLoss(dataset, batch, /*training=*/true, &rng);
      }
      // Never backpropagate a forward the token aborted (the loss would be
      // a placeholder), and never step on gradients from an aborted
      // backward: the check sits immediately before the only parameter
      // write, so a cancelled Fit always leaves a consistent end-of-epoch
      // parameter state.
      if (token != nullptr && token->Cancelled()) {
        aborted = true;
      } else {
        model->ZeroGrad();
        ag::Backward(loss);
        if (token != nullptr && token->Cancelled()) {
          aborted = true;
        } else {
          GAIA_OBS_SPAN("trainer.optimizer_step");
          if (SampleOptimizerStepFault()) {
            CountSkippedStep(&result);
          } else {
            optim::ClipGradNorm(params, config_.grad_clip);
            optimizer.Step();
          }
        }
      }
      if (!aborted) step_loss = loss->value.data()[0];
    }
    if (aborted) {
      result.cancelled = true;
      util::NoteCancelObserved();
      break;
    }
    if (obs::Enabled()) {
      obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
      registry
          .GetCounter("gaia_train_steps_total", "Optimizer steps completed")
          .Increment();
      registry
          .GetHistogram("gaia_train_step_seconds", {},
                        "Wall time of one training step (forward + backward "
                        "+ optimizer)")
          .Observe(step_watch.ElapsedSeconds());
      registry
          .GetGauge("gaia_train_last_train_loss",
                    "Training loss of the most recent step")
          .Set(static_cast<double>(step_loss));
    }
    result.train_loss_history.push_back(step_loss);
    result.final_train_loss = step_loss;
    ++result.epochs_run;

    const bool eval_now = (epoch + 1) % config_.eval_every == 0 ||
                          epoch + 1 == config_.max_epochs;
    if (eval_now && !val_nodes.empty()) {
      const double val_loss = EvaluateMse(model, dataset, val_nodes);
      if (token != nullptr && token->Cancelled()) {
        result.cancelled = true;
        util::NoteCancelObserved();
        break;
      }
      if (obs::Enabled()) {
        obs::MetricsRegistry::Global()
            .GetGauge("gaia_train_last_val_loss",
                      "Validation MSE of the most recent evaluation")
            .Set(val_loss);
      }
      result.val_loss_history.push_back(val_loss);
      if (config_.verbose) {
        GAIA_LOG(Info) << model->name() << " epoch " << (epoch + 1)
                       << " train=" << result.final_train_loss
                       << " val=" << val_loss;
      }
      if (val_loss < best_val) {
        best_val = val_loss;
        snapshot();
      }
      if (stopper.Update(val_loss)) break;
    }
  }
  restore();
  result.best_val_loss = best_val;
  result.seconds = watch.ElapsedSeconds();
  return result;
}

}  // namespace gaia::core
