#include "replay.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <string>

#include "autograd/ops.h"
#include "optim/lr_schedule.h"
#include "optim/optimizer.h"
#include "spans.h"
#include "ts/holt_winters.h"
#include "util/arena.h"
#include "util/check.h"

namespace gaia::bench {

namespace ag = autograd;
using autograd::Var;

uint64_t RequestSeed(uint64_t seed, int32_t shop) {
  uint64_t x = seed ^ (static_cast<uint64_t>(static_cast<uint32_t>(shop)) *
                       0x9e3779b97f4a7c15ULL);
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::vector<double> FallbackForecast(const data::ForecastDataset& dataset,
                                     int32_t shop) {
  const int64_t horizon = dataset.horizon();
  std::vector<double> gmv(static_cast<size_t>(horizon), 0.0);
  const Tensor& z = dataset.z(shop);
  const int64_t t_len = dataset.history_len();
  const int64_t active =
      std::min<int64_t>(dataset.series_length(shop), t_len);
  std::vector<double> series;
  series.reserve(static_cast<size_t>(active));
  for (int64_t t = t_len - active; t < t_len; ++t) {
    series.push_back(static_cast<double>(z.at(t)));
  }
  if (series.empty()) return gmv;
  auto fit = ts::HoltWinters::Fit(series, ts::HoltWintersConfig{});
  if (!fit.ok()) return gmv;
  const std::vector<double> forecast =
      fit.value().Forecast(static_cast<int>(horizon));
  for (int64_t h = 0; h < horizon; ++h) {
    const double value = forecast[static_cast<size_t>(h)];
    if (!std::isfinite(value)) continue;
    gmv[static_cast<size_t>(h)] =
        std::max(0.0, dataset.Denormalize(shop, value));
  }
  return gmv;
}

std::vector<double> Denormalize(const data::ForecastDataset& dataset,
                                int32_t shop, const Tensor& normalized) {
  std::vector<double> gmv;
  gmv.reserve(static_cast<size_t>(normalized.size()));
  for (int64_t h = 0; h < normalized.size(); ++h) {
    gmv.push_back(dataset.Denormalize(shop, normalized.data()[h]));
  }
  return gmv;
}

ModuleSplit::ModuleSplit(const core::GaiaModel& model,
                         const data::ForecastDataset& dataset)
    : t_len_(dataset.history_len()), horizon_(dataset.horizon()) {
  const core::GaiaConfig& config = model.config();
  GAIA_CHECK(config.use_ffl) << "the module split needs the FFL";
  const int64_t c = config.channels;
  // Initial values are overwritten below; only the shapes matter here.
  Rng rng(0);
  ffl_ = std::make_shared<core::FeatureFusionLayer>(
      t_len_, dataset.temporal_dim(), dataset.static_dim(), c, &rng);
  tel_ = std::make_shared<core::TemporalEmbeddingLayer>(
      c, config.tel_groups, &rng, /*single_kernel=*/!config.use_tel);
  for (int64_t l = 0; l < config.num_layers; ++l) {
    layers_.push_back(std::make_shared<core::ItaGcnLayer>(
        c, t_len_, &rng, config.use_ita, config.causal_mask,
        config.cau_heads));
  }
  head_conv_ =
      std::make_shared<nn::Conv1dLayer>(c, 1, 1, PadMode::kCausal, &rng);

  std::map<std::string, Tensor> trained;
  for (const auto& [name, var] : model.NamedParameters()) {
    trained[name] = var->value;
  }
  auto copy = [&trained](const nn::Module& module, const std::string& prefix) {
    for (const auto& [name, var] : module.NamedParameters()) {
      auto it = trained.find(prefix + name);
      GAIA_CHECK(it != trained.end()) << "no trained parameter " << prefix + name;
      GAIA_CHECK(it->second.shape() == var->value.shape())
          << "shape mismatch for " << prefix + name;
      var->value = it->second;
    }
  };
  copy(*ffl_, "ffl.");
  copy(*tel_, "tel.");
  for (size_t l = 0; l < layers_.size(); ++l) {
    copy(*layers_[l], "ita" + std::to_string(l) + ".");
  }
  copy(*head_conv_, "head_conv.");
  head_weight_ = trained.at("head_weight");
  head_bias_ = trained.at("head_bias");
}

Tensor ModuleSplit::Forward(const data::ForecastDataset& dataset,
                            const graph::EgoSubgraph& ego,
                            Timing* timing) const {
  util::ArenaScope arena_scope;
  auto local = graph::EsellerGraph::Create(ego.num_nodes(), ego.edges);
  GAIA_CHECK(local.ok()) << local.status().ToString();
  // Nodes are encoded independently, so running FFL over every node before
  // TEL yields the same embeddings as the model's per-node FFL -> TEL.
  std::vector<Var> fused;
  fused.reserve(ego.nodes.size());
  {
    Timed span("bench.ffl");
    for (int32_t id : ego.nodes) {
      fused.push_back(ffl_->Forward(ag::Constant(dataset.z(id)),
                                    ag::Constant(dataset.temporal(id)),
                                    ag::Constant(dataset.static_features(id))));
    }
    timing->ffl_us = span.Us();
  }
  std::vector<Var> embeddings;
  embeddings.reserve(fused.size());
  {
    Timed span("bench.tel");
    for (const Var& s : fused) embeddings.push_back(tel_->Forward(s));
    timing->tel_us = span.Us();
  }
  std::vector<Var> h = embeddings;
  timing->ita_layer_us.clear();
  for (const auto& layer : layers_) {
    Timed span("bench.ita_gcn_layer");
    h = layer->Forward(local.value(), h);
    timing->ita_layer_us.push_back(span.Us());
  }
  // Head (Eq. 9) with the TEL residual, for the centre node only.
  Timed span("bench.head");
  Var residual = ag::Add(h.front(), embeddings.front());
  Var pooled = head_conv_->Forward(residual);
  Var row = ag::Reshape(pooled, {1, t_len_});
  Var out = ag::AddRowVector(ag::MatMul(row, ag::Constant(head_weight_)),
                             ag::Constant(head_bias_));
  Tensor forecast = ag::Relu(ag::Reshape(out, {horizon_}))->value;
  timing->head_us = span.Us();
  return forecast;
}

std::vector<double> ReplayFit(core::ForecastModel* model,
                              const data::ForecastDataset& dataset,
                              const core::TrainConfig& config,
                              TrainPhases* phases) {
  GAIA_CHECK(config.batch_nodes == 0) << "replay covers full-batch training";
  util::ArenaScope arena_scope;
  Rng rng(config.seed);
  const std::vector<Var> params = model->Parameters();
  optim::Adam optimizer(params, config.learning_rate);
  const optim::CosineDecayLr schedule(config.learning_rate,
                                      config.learning_rate * 0.1f);
  std::vector<double> history;
  for (int epoch = 0; epoch < config.max_epochs; ++epoch) {
    if (config.cosine_lr_decay) {
      optimizer.set_lr(schedule.LearningRate(epoch, config.max_epochs));
    }
    Var loss;
    {
      Timed step("bench.train_step");
      {
        Timed span("bench.loss_forward");
        loss = model->TrainingLoss(dataset, dataset.train_nodes(),
                                   /*training=*/true, &rng);
        phases->loss_forward_ms.push_back(span.Us() * 1e-3);
      }
      {
        Timed span("bench.backward");
        model->ZeroGrad();
        ag::Backward(loss);
        phases->backward_ms.push_back(span.Us() * 1e-3);
      }
      {
        Timed span("bench.clip_adam");
        optim::ClipGradNorm(params, config.grad_clip);
        optimizer.Step();
        phases->clip_adam_ms.push_back(span.Us() * 1e-3);
      }
    }
    const float step_loss = loss->value.data()[0];
    history.push_back(step_loss);
    const bool eval_now = (epoch + 1) % config.eval_every == 0 ||
                          epoch + 1 == config.max_epochs;
    if (eval_now && !dataset.val_nodes().empty()) {
      Timed span("bench.eval");
      core::Trainer::EvaluateMse(model, dataset, dataset.val_nodes());
      phases->eval_ms.push_back(span.Us() * 1e-3);
    }
  }
  return history;
}

}  // namespace gaia::bench
