#include "core/gaia_model.h"

#include <algorithm>
#include <numeric>

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

Var GaiaModel::EncodeNodes(const std::vector<NodeInput>& inputs) const {
  const auto n = static_cast<int64_t>(inputs.size());
  const int64_t rows = n * t_len_;
  // Stack the node features: z [N*T], F^T [N*T, D^T], f^S [N, D^S].
  Tensor z({rows}), temporal({rows, d_temporal_}), statics({n, d_static_});
  for (int64_t v = 0; v < n; ++v) {
    const NodeInput& input = inputs[static_cast<size_t>(v)];
    GAIA_CHECK(input.z != nullptr && input.temporal != nullptr &&
               input.statics != nullptr);
    GAIA_CHECK_EQ(input.z->size(), t_len_);
    GAIA_CHECK_EQ(input.temporal->size(), t_len_ * d_temporal_);
    GAIA_CHECK_EQ(input.statics->size(), d_static_);
    const int64_t temporal_size = t_len_ * d_temporal_;
    std::copy(input.z->data(), input.z->data() + t_len_, z.data() + v * t_len_);
    std::copy(input.temporal->data(), input.temporal->data() + temporal_size,
              temporal.data() + v * temporal_size);
    std::copy(input.statics->data(), input.statics->data() + d_static_,
              statics.data() + v * d_static_);
  }
  Var fused;
  if (config_.use_ffl) {
    fused = ffl_->ForwardNodes(ag::Constant(std::move(z)),
                               ag::Constant(std::move(temporal)),
                               ag::Constant(std::move(statics)));
  } else {
    // [z_t || f^T_t || f^S] -> shared linear, no per-timestep structure.
    Var z_col = ag::Constant(z.Reshape({rows, 1}));
    Var stat_rows = ag::RepeatRows(ag::Constant(std::move(statics)), t_len_);
    fused = plain_fusion_->Forward(
        ag::ConcatCols({z_col, ag::Constant(std::move(temporal)), stat_rows}));
  }
  return tel_->Forward(fused, n);
}

namespace {

/// `nodes` plus all their in-neighbours, ascending and deduplicated: the
/// inputs one ITA-GCN layer needs to produce `nodes`.
std::vector<int32_t> WithInNeighbors(const graph::EsellerGraph& graph,
                                     const std::vector<int32_t>& nodes) {
  std::vector<char> keep(static_cast<size_t>(graph.num_nodes()), 0);
  for (int32_t u : nodes) {
    keep[static_cast<size_t>(u)] = 1;
    for (const graph::Neighbor& nb : graph.InNeighbors(u)) {
      keep[static_cast<size_t>(nb.node)] = 1;
    }
  }
  std::vector<int32_t> out;
  for (size_t v = 0; v < keep.size(); ++v) {
    if (keep[v]) out.push_back(static_cast<int32_t>(v));
  }
  return out;
}

std::vector<int32_t> AllNodes(int64_t n) {
  std::vector<int32_t> nodes(static_cast<size_t>(n));
  std::iota(nodes.begin(), nodes.end(), 0);
  return nodes;
}

/// Receptive field of `outputs`: layer l of `num_layers` reads need[l] and
/// writes need[l+1], with need[num_layers] = outputs.
std::vector<std::vector<int32_t>> ReceptiveField(
    const graph::EsellerGraph& graph, const std::vector<int32_t>& outputs,
    size_t num_layers) {
  std::vector<std::vector<int32_t>> need(num_layers + 1);
  need[num_layers] = outputs;
  for (size_t l = num_layers; l-- > 0;) {
    need[l] = WithInNeighbors(graph, need[l + 1]);
  }
  return need;
}

GaiaModel::NodeInput InputOf(const data::ForecastDataset& dataset, int32_t v) {
  return GaiaModel::NodeInput{&dataset.z(v), &dataset.temporal(v),
                              &dataset.static_features(v)};
}

}  // namespace

int64_t NodeEncodings::Block(int32_t id) const {
  const auto it = std::lower_bound(nodes.begin(), nodes.end(), id);
  if (it == nodes.end() || *it != id) return -1;
  return it - nodes.begin();
}

NodeEncodings GaiaModel::EncodeNodes(const data::ForecastDataset& dataset,
                                     std::vector<int32_t> nodes) const {
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  std::vector<NodeInput> inputs;
  inputs.reserve(nodes.size());
  for (int32_t v : nodes) inputs.push_back(InputOf(dataset, v));
  ag::InferenceScope no_tape;
  GAIA_OBS_SPAN("model.encode");
  NodeEncodings encodings;
  encodings.rows = EncodeNodes(inputs)->value;
  encodings.nodes = std::move(nodes);
  return encodings;
}

std::vector<Var> GaiaModel::ForwardGraph(const graph::EsellerGraph& graph,
                                         const std::vector<NodeInput>& inputs,
                                         ItaProbe* probe) const {
  Var batched = ForwardGraphBatched(
      graph, inputs, AllNodes(static_cast<int64_t>(inputs.size())), probe);
  if (batched == nullptr) return {};
  std::vector<Var> predictions;
  predictions.reserve(inputs.size());
  for (size_t v = 0; v < inputs.size(); ++v) {
    predictions.push_back(ag::SelectRow(batched, static_cast<int64_t>(v)));
  }
  return predictions;
}

Var GaiaModel::ForwardGraphBatched(const graph::EsellerGraph& graph,
                                   const std::vector<NodeInput>& inputs,
                                   const std::vector<int32_t>& outputs,
                                   ItaProbe* probe) const {
  GAIA_OBS_SPAN("model.forward_graph");
  GAIA_CHECK_EQ(static_cast<int64_t>(inputs.size()), graph.num_nodes());
  if (util::CurrentCancelled()) return nullptr;
  const std::vector<std::vector<int32_t>> need =
      ReceptiveField(graph, outputs, layers_.size());
  Var embeddings;  // E from TEL, rows of need[0]
  {
    GAIA_OBS_SPAN("model.encode");
    std::vector<NodeInput> encoded;
    encoded.reserve(need[0].size());
    for (int32_t v : need[0]) encoded.push_back(inputs[static_cast<size_t>(v)]);
    embeddings = EncodeNodes(encoded);
  }
  return ForwardLayers(graph, need, embeddings, probe);
}

Var GaiaModel::ForwardLayers(const graph::EsellerGraph& graph,
                             const std::vector<std::vector<int32_t>>& need,
                             const Var& embeddings, ItaProbe* probe) const {
  const size_t num_layers = layers_.size();
  GAIA_CHECK_EQ(need.size(), num_layers + 1);
  const std::vector<int32_t>& outputs = need[num_layers];
  Var h = embeddings;
  for (size_t l = 0; l < num_layers; ++l) {
    if (util::CurrentCancelled()) return nullptr;
    const bool is_last = l + 1 == num_layers;
    h = layers_[l]->ForwardNodes(graph, h, need[l], need[l + 1],
                                 is_last ? probe : nullptr);
    // A layer that observed the token returns null; unwind without
    // touching the partially built state.
    if (h == nullptr) return nullptr;
  }
  // Prediction head with the TEL residual (Eq. 9), on the output rows.
  GAIA_OBS_SPAN("model.head");
  if (util::CurrentCancelled()) return nullptr;
  Var residual_embeddings = embeddings;
  if (need[0] != outputs) {
    std::vector<int32_t> rows;
    rows.reserve(outputs.size());
    for (int32_t v : outputs) {
      rows.push_back(static_cast<int32_t>(
          std::lower_bound(need[0].begin(), need[0].end(), v) -
          need[0].begin()));
    }
    residual_embeddings = ag::GatherRowBlocks(embeddings, rows, t_len_);
  }
  const auto n = static_cast<int64_t>(outputs.size());
  Var residual = ag::Add(h, residual_embeddings);       // [n*T, C]
  Var pooled = head_conv_->Forward(residual, n);         // [n*T, 1]
  Var rows = ag::Reshape(pooled, {n, t_len_});           // [n, T]
  Var out = ag::AddRowVector(ag::MatMul(rows, head_weight_), head_bias_);
  Var predictions = ag::Relu(out);                       // [n, T']
  if (util::CurrentCancelled()) return nullptr;
  return predictions;
}

std::vector<Var> GaiaModel::PredictNodes(const data::ForecastDataset& dataset,
                                         const std::vector<int32_t>& nodes,
                                         bool /*training*/, Rng* /*rng*/) {
  const auto n = static_cast<int32_t>(dataset.num_nodes());
  for (int32_t v : nodes) {
    GAIA_CHECK_GE(v, 0);
    GAIA_CHECK_LT(v, n);
  }
  std::vector<NodeInput> inputs(static_cast<size_t>(n));
  for (int32_t v = 0; v < n; ++v) {
    inputs[static_cast<size_t>(v)] = InputOf(dataset, v);
  }
  Var batched = ForwardGraphBatched(dataset.graph(), inputs, nodes);
  if (batched == nullptr) return {};  // cancelled mid-forward
  std::vector<Var> selected;
  selected.reserve(nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    selected.push_back(ag::SelectRow(batched, static_cast<int64_t>(i)));
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
  return ForwardEgo(dataset, ego, nullptr);
}

Result<Tensor> GaiaModel::PredictEgo(const data::ForecastDataset& dataset,
                                     const graph::EgoSubgraph& ego,
                                     const NodeEncodings& encodings) const {
  return ForwardEgo(dataset, ego, &encodings);
}

Result<Tensor> GaiaModel::ForwardEgo(const data::ForecastDataset& dataset,
                                     const graph::EgoSubgraph& ego,
                                     const NodeEncodings* shared) const {
  GAIA_OBS_SPAN("model.forward_graph");
  Result<graph::EsellerGraph> local =
      graph::EsellerGraph::Create(ego.num_nodes(), ego.edges);
  GAIA_CHECK(local.ok()) << local.status().ToString();
  ag::InferenceScope no_tape;
  Var preds;
  // Rows from a cancelled encode may be unfilled: read none of them.
  if (!util::CurrentCancelled()) {
    const std::vector<std::vector<int32_t>> need =
        ReceptiveField(local.value(), {0}, layers_.size());
    std::vector<int32_t> field;  // need[0] as dataset ids
    field.reserve(need[0].size());
    for (int32_t v : need[0]) field.push_back(ego.nodes[static_cast<size_t>(v)]);
    NodeEncodings own;
    if (shared == nullptr) own = EncodeNodes(dataset, field);
    const NodeEncodings& encodings = shared != nullptr ? *shared : own;
    // The receptive field's rows, in local-id order.
    const int64_t block = t_len_ * config_.channels;
    Tensor rows({static_cast<int64_t>(field.size()) * t_len_,
                 config_.channels});
    for (size_t i = 0; i < field.size(); ++i) {
      const int64_t from = encodings.Block(field[i]);
      GAIA_CHECK_GE(from, 0) << "ego node " << field[i] << " was not encoded";
      const float* src = encodings.rows.data() + from * block;
      std::copy(src, src + block,
                rows.data() + static_cast<int64_t>(i) * block);
    }
    preds = ForwardLayers(local.value(), need, ag::Constant(std::move(rows)),
                          nullptr);
  }
  if (preds == nullptr) {
    return Status::Cancelled("ego forward aborted by cancel token");
  }
  // The centre node is local id 0, row 0.
  const float* centre = preds->value.data();
  return Tensor({horizon_}, std::vector<float>(centre, centre + horizon_));
}

ItaProbe GaiaModel::CollectAttention(
    const data::ForecastDataset& dataset) const {
  const auto n = static_cast<int32_t>(dataset.num_nodes());
  std::vector<NodeInput> inputs(static_cast<size_t>(n));
  for (int32_t v = 0; v < n; ++v) {
    inputs[static_cast<size_t>(v)] = InputOf(dataset, v);
  }
  ItaProbe probe;
  ag::InferenceScope no_tape;
  ForwardGraphBatched(dataset.graph(), inputs, AllNodes(n), &probe);
  return probe;
}

}  // namespace gaia::core
