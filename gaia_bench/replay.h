#ifndef GAIA_BENCH_REPLAY_H_
#define GAIA_BENCH_REPLAY_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/gaia_model.h"
#include "core/trainer.h"
#include "data/dataset.h"
#include "graph/eseller_graph.h"
#include "nn/layers.h"

// Replays of the program's hot paths, rebuilt from its public functions so a
// traced run can time each layer and check its bytes against what the
// program itself produced.

namespace gaia::bench {

/// Seed of one request's ego-sampling stream. Mirrors the mix the model
/// server applies to (ServerConfig::seed, shop), so a replay draws the same
/// ego subgraph the server drew; the byte checks catch any drift.
uint64_t RequestSeed(uint64_t seed, int32_t shop);

/// The serving ladder's Holt-Winters rung: an additive Holt-Winters fit on
/// the shop's observed normalized history, denormalized and floored at 0.
std::vector<double> FallbackForecast(const data::ForecastDataset& dataset,
                                     int32_t shop);

/// Denormalizes a model output into the GMV forecast a server returns.
std::vector<double> Denormalize(const data::ForecastDataset& dataset,
                                int32_t shop, const Tensor& normalized);

/// \brief Gaia's ego forward split into its modules.
///
/// Standalone FFL, TEL, ITA-GCN layers and prediction head whose parameters
/// are copied by name from a trained model's NamedParameters(), so each
/// module can be timed on its own. The split's output is byte-equal to
/// GaiaModel::PredictEgo on the same ego subgraph.
class ModuleSplit {
 public:
  /// Per-request module times in microseconds.
  struct Timing {
    double ffl_us = 0.0;
    double tel_us = 0.0;
    std::vector<double> ita_layer_us;
    double head_us = 0.0;
  };

  ModuleSplit(const core::GaiaModel& model,
              const data::ForecastDataset& dataset);

  /// Runs the centre node's forecast (normalized units) with one span per
  /// module.
  Tensor Forward(const data::ForecastDataset& dataset,
                 const graph::EgoSubgraph& ego, Timing* timing) const;

 private:
  int64_t t_len_;
  int64_t horizon_;
  std::shared_ptr<core::FeatureFusionLayer> ffl_;
  std::shared_ptr<core::TemporalEmbeddingLayer> tel_;
  std::vector<std::shared_ptr<core::ItaGcnLayer>> layers_;
  std::shared_ptr<nn::Conv1dLayer> head_conv_;
  Tensor head_weight_;
  Tensor head_bias_;
};

/// Per-epoch phase times (milliseconds) of a replayed training loop.
struct TrainPhases {
  std::vector<double> loss_forward_ms;
  std::vector<double> backward_ms;
  std::vector<double> clip_adam_ms;
  std::vector<double> eval_ms;
};

/// Replays core::Trainer::Fit's full-batch step loop (loss forward ->
/// backward -> gradient clip + Adam, validation MSE every eval_every epochs)
/// on a freshly created model, with a span around each phase. Returns the
/// per-epoch training loss, which must equal Fit's train_loss_history bit
/// for bit when the model starts from the same initialization. Expects
/// full-batch training (batch_nodes == 0) with early stopping off.
std::vector<double> ReplayFit(core::ForecastModel* model,
                              const data::ForecastDataset& dataset,
                              const core::TrainConfig& config,
                              TrainPhases* phases);

}  // namespace gaia::bench

#endif  // GAIA_BENCH_REPLAY_H_
