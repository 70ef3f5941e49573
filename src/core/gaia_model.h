#ifndef GAIA_CORE_GAIA_MODEL_H_
#define GAIA_CORE_GAIA_MODEL_H_

#include <memory>
#include <string>
#include <vector>

#include "core/cau.h"
#include "core/ffl.h"
#include "core/forecast_model.h"
#include "core/ita_gcn.h"
#include "core/tel.h"
#include "nn/layers.h"
#include "util/status.h"

namespace gaia::core {

/// \brief Hyper-parameters of the Gaia model.
struct GaiaConfig {
  int64_t channels = 16;    ///< C, embedding size (paper uses 32)
  int64_t tel_groups = 4;   ///< K, TEL kernel groups (widths 2..2^K)
  int64_t num_layers = 2;   ///< L, stacked ITA-GCN layers
  /// Attention heads inside the CAU (1 = the paper's setting; >1 is a
  /// multi-head extension; channels must divide evenly).
  int64_t cau_heads = 1;

  // Ablation switches (Table II). All true = full Gaia.
  bool use_ffl = true;  ///< false: plain concat + shared linear fusion
  bool use_tel = true;  ///< false: single {4 x C; C} kernel
  bool use_ita = true;  ///< false: traditional (dense, unmasked) attention
                        ///  with uniform neighbour weights
  /// Extra design-choice ablation (ours): disable the causal mask M while
  /// keeping the rest of the ITA mechanism.
  bool causal_mask = true;

  uint64_t seed = 1;

  /// Validates against the sequence length (kernel group widths must fit).
  Status Validate(int64_t t_len) const;
};

/// \brief FFL -> TEL rows (Eqs. 1-7) of a set of dataset nodes.
///
/// A node's rows read only its own series and features, and their bits do
/// not depend on which other nodes were encoded with it, so every ego
/// forward that contains the node can read them instead of encoding it
/// again (GaiaModel::PredictEgo's three-argument form).
struct NodeEncodings {
  std::vector<int32_t> nodes;  ///< dataset node ids, ascending and unique
  Tensor rows;  ///< [|nodes| * T, C]; node nodes[i] in rows [i*T, (i+1)*T)

  /// Row block of dataset node `id` (rows [block*T, (block+1)*T)), or -1
  /// when it was not encoded.
  int64_t Block(int32_t id) const;
};

/// \brief Gaia: FFL -> TEL -> L x ITA-GCN -> prediction head (paper Fig. 2).
class GaiaModel : public ForecastModel {
 public:
  /// Builds a model for the given data dimensions; rejects invalid configs.
  static Result<std::unique_ptr<GaiaModel>> Create(const GaiaConfig& config,
                                                   int64_t t_len,
                                                   int64_t horizon,
                                                   int64_t d_temporal,
                                                   int64_t d_static);

  /// Per-node feature bundle for graph-forward entry points.
  struct NodeInput {
    const Tensor* z = nullptr;         ///< [T]
    const Tensor* temporal = nullptr;  ///< [T, D^T]
    const Tensor* statics = nullptr;   ///< [D^S]
  };

  /// Full forward over an arbitrary graph and matching node features.
  /// Returns one [T'] prediction var per node. `probe` (optional) collects
  /// last-layer attention for introspection. If the ambient CancelToken
  /// (see util::CancelScope) fires mid-forward, returns an *empty* vector:
  /// callers must treat a size mismatch as "aborted, discard".
  std::vector<Var> ForwardGraph(const graph::EsellerGraph& graph,
                                const std::vector<NodeInput>& inputs,
                                ItaProbe* probe = nullptr) const;

  /// The same forward, node-batched end to end, for the nodes `outputs`
  /// only: one [|outputs|, T'] var, row i = node outputs[i]. Every module
  /// runs once per layer over the nodes that layer must produce — layer l
  /// only over the outputs' (L - l)-hop receptive field — and a row's bits
  /// do not depend on which other nodes share the batch. Null when the
  /// ambient CancelToken fired mid-forward.
  Var ForwardGraphBatched(const graph::EsellerGraph& graph,
                          const std::vector<NodeInput>& inputs,
                          const std::vector<int32_t>& outputs,
                          ItaProbe* probe = nullptr) const;

  // ForecastModel:
  std::vector<Var> PredictNodes(const data::ForecastDataset& dataset,
                                const std::vector<int32_t>& nodes,
                                bool training, Rng* rng) override;
  std::string name() const override;

  /// Serving path: predicts the centre node of an ego subgraph (normalized
  /// units), matching the online deployment of §VI. Runs under an
  /// autograd::InferenceScope (no tape). Returns StatusCode::kCancelled when
  /// the ambient CancelToken aborts the forward mid-flight (the server
  /// degrades such requests to the fallback). The one-ego case of the form
  /// below: it encodes the centre's receptive field itself.
  Result<Tensor> PredictEgo(const data::ForecastDataset& dataset,
                            const graph::EgoSubgraph& ego) const;

  /// The same forward, reading the encoded rows of the centre's receptive
  /// field from `encodings` (which must hold them; every ego node does when
  /// the ego has num_layers hops) instead of encoding them: bitwise the
  /// two-argument result. The model server encodes every dataset node
  /// once per set of served weights and answers every ego from that table.
  Result<Tensor> PredictEgo(const data::ForecastDataset& dataset,
                            const graph::EgoSubgraph& ego,
                            const NodeEncodings& encodings) const;

  /// FFL -> TEL over the dataset nodes `nodes` (any order, repeats allowed),
  /// node-batched, with no tape. If the ambient CancelToken fires the rows
  /// may be partly unfilled; the caller must discard them.
  NodeEncodings EncodeNodes(const data::ForecastDataset& dataset,
                            std::vector<int32_t> nodes) const;

  /// Runs a full-graph forward (no tape) and returns the last layer's
  /// attention records (Fig. 4 case study).
  ItaProbe CollectAttention(const data::ForecastDataset& dataset) const;

  const GaiaConfig& config() const { return config_; }

 private:
  GaiaModel(const GaiaConfig& config, int64_t t_len, int64_t horizon,
            int64_t d_temporal, int64_t d_static);

  /// FFL/TEL encoding of all nodes at once (respecting the ablation
  /// switches): [N*T, C], node n in rows [n*T, (n+1)*T).
  Var EncodeNodes(const std::vector<NodeInput>& inputs) const;

  /// Both PredictEgo forms: the rows of the centre's receptive field come
  /// from `shared`, or from an encode of just that field when it is null.
  Result<Tensor> ForwardEgo(const data::ForecastDataset& dataset,
                            const graph::EgoSubgraph& ego,
                            const NodeEncodings* shared) const;

  /// ITA-GCN layers and the head over encoded rows: `need[l]` are the
  /// nodes layer l reads (need[0] ascending, its rows in `embeddings`) and
  /// need[L] the outputs. Null when the ambient CancelToken fired.
  Var ForwardLayers(const graph::EsellerGraph& graph,
                    const std::vector<std::vector<int32_t>>& need,
                    const Var& embeddings, ItaProbe* probe) const;

  GaiaConfig config_;
  int64_t t_len_;
  int64_t horizon_;
  int64_t d_temporal_;
  int64_t d_static_;

  std::shared_ptr<FeatureFusionLayer> ffl_;     // null when !use_ffl
  std::shared_ptr<nn::Linear> plain_fusion_;    // w/o-FFL fallback
  std::shared_ptr<TemporalEmbeddingLayer> tel_;
  std::vector<std::shared_ptr<ItaGcnLayer>> layers_;
  // Prediction head (Eq. 9).
  std::shared_ptr<nn::Conv1dLayer> head_conv_;  ///< L^P: 1 filter, width 1
  Var head_weight_;                             ///< W^P: [T, T']
  Var head_bias_;                               ///< b^P: [T']
};

}  // namespace gaia::core

#endif  // GAIA_CORE_GAIA_MODEL_H_
