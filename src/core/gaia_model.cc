#include "core/gaia_model.h"

#include "nn/init.h"
#include "obs/obs.h"
#include "util/cancel.h"
#include "util/check.h"

namespace gaia::core {

namespace ag = autograd;

Status GaiaConfig::Validate(int64_t t_len) const {
  if (channels < 2) return Status::InvalidArgument("channels must be >= 2");
  if (num_layers < 1) return Status::InvalidArgument("need >= 1 ITA layer");
  if (cau_heads < 1 || channels % cau_heads != 0) {
    return Status::InvalidArgument("channels must divide evenly into CAU heads");
  }
  if (use_tel) {
    if (tel_groups < 1) {
      return Status::InvalidArgument("tel_groups must be >= 1");
    }
    if (channels % tel_groups != 0) {
      return Status::InvalidArgument("channels must be divisible by tel_groups");
    }
    if ((int64_t{1} << tel_groups) > 2 * t_len) {
      return Status::InvalidArgument(
          "largest TEL kernel exceeds the sequence length");
    }
  }
  return Status::OK();
}

Result<std::unique_ptr<GaiaModel>> GaiaModel::Create(const GaiaConfig& config,
                                                     int64_t t_len,
                                                     int64_t horizon,
                                                     int64_t d_temporal,
                                                     int64_t d_static) {
  GAIA_RETURN_NOT_OK(config.Validate(t_len));
  if (t_len < 1 || horizon < 1 || d_temporal < 1 || d_static < 1) {
    return Status::InvalidArgument("invalid data dimensions");
  }
  return std::unique_ptr<GaiaModel>(
      new GaiaModel(config, t_len, horizon, d_temporal, d_static));
}

GaiaModel::GaiaModel(const GaiaConfig& config, int64_t t_len, int64_t horizon,
                     int64_t d_temporal, int64_t d_static)
    : config_(config),
      t_len_(t_len),
      horizon_(horizon),
      d_temporal_(d_temporal),
      d_static_(d_static) {
  Rng rng(config.seed);
  const int64_t c = config.channels;
  if (config.use_ffl) {
    ffl_ = AddModule("ffl", std::make_shared<FeatureFusionLayer>(
                                t_len, d_temporal, d_static, c, &rng));
  } else {
    // Ablation: plain per-timestep concat + shared affine fusion.
    plain_fusion_ = AddModule(
        "plain_fusion",
        std::make_shared<nn::Linear>(1 + d_temporal + d_static, c, &rng));
  }
  tel_ = AddModule("tel", std::make_shared<TemporalEmbeddingLayer>(
                              c, config.tel_groups, &rng,
                              /*single_kernel=*/!config.use_tel));
  for (int64_t l = 0; l < config.num_layers; ++l) {
    layers_.push_back(AddModule(
        "ita" + std::to_string(l),
        std::make_shared<ItaGcnLayer>(c, t_len, &rng, config.use_ita,
                                      config.causal_mask,
                                      config.cau_heads)));
  }
  head_conv_ = AddModule("head_conv", std::make_shared<nn::Conv1dLayer>(
                                          c, 1, 1, PadMode::kCausal, &rng));
  head_weight_ =
      AddParameter("head_weight", nn::LinearInit(t_len, horizon, &rng));
  // Bias starts at the normalized-GMV mean (~1) so the ReLU head (Eq. 9)
  // opens positive everywhere; a zero init leaves dead output units that MSE
  // gradients can never revive.
  head_bias_ = AddParameter("head_bias", Tensor::Ones({horizon}));
}

Var GaiaModel::EncodeNode(const NodeInput& input) const {
  GAIA_CHECK(input.z != nullptr && input.temporal != nullptr &&
             input.statics != nullptr);
  Var z = ag::Constant(*input.z);
  Var temporal = ag::Constant(*input.temporal);
  Var statics = ag::Constant(*input.statics);
  Var fused;
  if (config_.use_ffl) {
    fused = ffl_->Forward(z, temporal, statics);
  } else {
    // [z_t || f^T_t || f^S] -> shared linear, no per-timestep structure.
    Var z_col = ag::Reshape(z, {t_len_, 1});
    Var stat_rows = ag::MatMul(ag::Constant(Tensor::Ones({t_len_, 1})),
                               ag::Reshape(statics, {1, d_static_}));
    fused = plain_fusion_->Forward(
        ag::ConcatCols({z_col, temporal, stat_rows}));
  }
  return tel_->Forward(fused);
}

std::vector<Var> GaiaModel::ForwardGraph(const graph::EsellerGraph& graph,
                                         const std::vector<NodeInput>& inputs,
                                         ItaProbe* probe) const {
  GAIA_OBS_SPAN("model.forward_graph");
  GAIA_CHECK_EQ(static_cast<int64_t>(inputs.size()), graph.num_nodes());
  std::vector<Var> embeddings;  // E_v from TEL
  embeddings.reserve(inputs.size());
  {
    GAIA_OBS_SPAN("model.encode");
    for (const NodeInput& input : inputs) {
      if (util::CurrentCancelled()) return {};
      embeddings.push_back(EncodeNode(input));
    }
  }
  std::vector<Var> h = embeddings;
  for (size_t l = 0; l < layers_.size(); ++l) {
    const bool is_last = l + 1 == layers_.size();
    h = layers_[l]->Forward(graph, h, is_last ? probe : nullptr);
    // A layer that observed the token returns {}; unwind without touching
    // the partially built state.
    if (h.size() != inputs.size()) return {};
  }
  // Prediction head with the TEL residual (Eq. 9).
  GAIA_OBS_SPAN("model.head");
  std::vector<Var> predictions;
  predictions.reserve(inputs.size());
  for (size_t v = 0; v < inputs.size(); ++v) {
    if (util::CurrentCancelled()) return {};
    Var residual = ag::Add(h[v], embeddings[v]);          // [T, C]
    Var pooled = head_conv_->Forward(residual);            // [T, 1]
    Var row = ag::Reshape(pooled, {1, t_len_});            // [1, T]
    Var out = ag::AddRowVector(ag::MatMul(row, head_weight_), head_bias_);
    predictions.push_back(ag::Relu(ag::Reshape(out, {horizon_})));
  }
  return predictions;
}

std::vector<Var> GaiaModel::PredictNodes(const data::ForecastDataset& dataset,
                                         const std::vector<int32_t>& nodes,
                                         bool /*training*/, Rng* /*rng*/) {
  const auto n = static_cast<int32_t>(dataset.num_nodes());
  std::vector<NodeInput> inputs(static_cast<size_t>(n));
  for (int32_t v = 0; v < n; ++v) {
    inputs[static_cast<size_t>(v)] =
        NodeInput{&dataset.z(v), &dataset.temporal(v),
                  &dataset.static_features(v)};
  }
  std::vector<Var> all = ForwardGraph(dataset.graph(), inputs);
  if (all.size() != inputs.size()) return {};  // cancelled mid-forward
  std::vector<Var> selected;
  selected.reserve(nodes.size());
  for (int32_t v : nodes) {
    GAIA_CHECK_GE(v, 0);
    GAIA_CHECK_LT(v, n);
    selected.push_back(all[static_cast<size_t>(v)]);
  }
  return selected;
}

std::string GaiaModel::name() const {
  if (config_.use_ffl && config_.use_tel && config_.use_ita) return "Gaia";
  std::string n = "Gaia";
  if (!config_.use_ita) n += " w/o ITA";
  if (!config_.use_ffl) n += " w/o FFL";
  if (!config_.use_tel) n += " w/o TEL";
  return n;
}

Result<Tensor> GaiaModel::PredictEgo(const data::ForecastDataset& dataset,
                                     const graph::EgoSubgraph& ego) const {
  Result<graph::EsellerGraph> local =
      graph::EsellerGraph::Create(ego.num_nodes(), ego.edges);
  GAIA_CHECK(local.ok()) << local.status().ToString();
  std::vector<NodeInput> inputs;
  inputs.reserve(ego.nodes.size());
  for (int32_t global_id : ego.nodes) {
    inputs.push_back(NodeInput{&dataset.z(global_id),
                               &dataset.temporal(global_id),
                               &dataset.static_features(global_id)});
  }
  std::vector<Var> preds = ForwardGraph(local.value(), inputs);
  if (preds.size() != inputs.size()) {
    return Status::Cancelled("ego forward aborted by cancel token");
  }
  return preds.front()->value;  // centre node is local id 0
}

ItaProbe GaiaModel::CollectAttention(
    const data::ForecastDataset& dataset) const {
  const auto n = static_cast<int32_t>(dataset.num_nodes());
  std::vector<NodeInput> inputs(static_cast<size_t>(n));
  for (int32_t v = 0; v < n; ++v) {
    inputs[static_cast<size_t>(v)] =
        NodeInput{&dataset.z(v), &dataset.temporal(v),
                  &dataset.static_features(v)};
  }
  ItaProbe probe;
  ForwardGraph(dataset.graph(), inputs, &probe);
  return probe;
}

}  // namespace gaia::core
