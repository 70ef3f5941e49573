#ifndef GAIA_CORE_TRAINER_H_
#define GAIA_CORE_TRAINER_H_

#include <cstdint>
#include <vector>

#include "core/forecast_model.h"
#include "data/dataset.h"

namespace gaia::core {

/// \brief Training hyper-parameters shared by Gaia and all neural baselines.
///
/// The paper trains with Adam; we keep that but raise the learning rate to
/// suit the (much smaller) synthetic market. Validation-loss early stopping
/// with best-checkpoint restore matches the paper's grid-searched protocol.
struct TrainConfig {
  int max_epochs = 120;
  float learning_rate = 3e-3f;
  float grad_clip = 5.0f;
  int patience = 12;        ///< early-stop patience, in evaluations
  int eval_every = 5;       ///< epochs between validation evaluations
  /// Nodes sampled per epoch; 0 trains full batch.
  int64_t batch_nodes = 0;
  /// Cosine-decay the learning rate to lr/10 across max_epochs. Reduces
  /// late-training oscillation, which matters for the attention models.
  bool cosine_lr_decay = true;
  uint64_t seed = 99;
  bool verbose = false;
  /// Wall-clock budget for the whole Fit call in milliseconds (0 = none).
  /// Arms a util::CancelToken (a child of any ambient token, so a caller's
  /// budget also applies); when it fires the loop stops at the next safe
  /// point — never between backward and the optimizer step, so parameters
  /// are always a consistent "end of epoch k" state.
  double deadline_ms = 0.0;
};

/// \brief Outcome of a training run.
struct TrainResult {
  int epochs_run = 0;
  /// True when the run was aborted by a deadline or cancel token; the
  /// parameters still hold the best (or last completed) epoch's state.
  bool cancelled = false;
  /// Epochs whose optimizer step was skipped by an injected fault
  /// (train.optimizer_step site).
  int skipped_steps = 0;
  double best_val_loss = 0.0;
  double final_train_loss = 0.0;
  double seconds = 0.0;
  std::vector<double> train_loss_history;
  std::vector<double> val_loss_history;
};

/// \brief MSE training loop (Eq. 10) with gradient clipping, validation
/// early stopping and best-parameter restore.
class Trainer {
 public:
  explicit Trainer(const TrainConfig& config) : config_(config) {}

  TrainResult Fit(ForecastModel* model,
                  const data::ForecastDataset& dataset) const;

  /// Mean squared error of the model on the given nodes (normalized units,
  /// no gradient bookkeeping kept).
  static double EvaluateMse(ForecastModel* model,
                            const data::ForecastDataset& dataset,
                            const std::vector<int32_t>& nodes);

 private:
  TrainConfig config_;
};

}  // namespace gaia::core

#endif  // GAIA_CORE_TRAINER_H_
