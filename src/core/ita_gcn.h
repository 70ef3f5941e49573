#ifndef GAIA_CORE_ITA_GCN_H_
#define GAIA_CORE_ITA_GCN_H_

#include <memory>
#include <vector>

#include "core/cau.h"
#include "graph/eseller_graph.h"
#include "nn/module.h"

namespace gaia::core {

/// \brief Introspection record for the Fig. 4 case study.
struct EdgeAttentionRecord {
  int32_t u = 0;          ///< centre node (local id)
  int32_t v = 0;          ///< source node; v == u for the intra/self term
  Tensor attention;       ///< [T, T] CAU attention weights
};

struct NeighborAlphaRecord {
  int32_t u = 0;
  std::vector<int32_t> neighbors;
  Tensor alpha;           ///< [|N(u)|] aggregation weights
};

/// Collected attention state for one ITA-GCN layer forward pass.
struct ItaProbe {
  std::vector<EdgeAttentionRecord> inter;  ///< one per edge
  std::vector<EdgeAttentionRecord> intra;  ///< one per node (self attention)
  std::vector<NeighborAlphaRecord> alphas;
};

/// \brief One ITA-GCN layer (paper §IV-C2, Eq. 8).
///
///   H_u^{l+1} = sum_{v in N(u)} alpha_uv CAU(H_u, H_v)  +  CAU(H_u, H_u)
///
/// with neighbour weights alpha_uv = softmax_v g(u, v),
/// g(u, v) = mu' tanh(L^s * H_u + L^d * H_v)  (width-1, single-filter convs).
///
/// With `use_ita = false` the layer reproduces the w/o-ITA ablation:
/// dense-projection, unmasked attention and uniform neighbour weights.
class ItaGcnLayer : public nn::Module {
 public:
  ItaGcnLayer(int64_t channels, int64_t t_len, Rng* rng, bool use_ita = true,
              bool causal_mask = true, int64_t cau_heads = 1);

  /// Node-batched propagation. `h` stacks the [T, C] rows of the graph
  /// nodes `in_nodes` (row block i = node in_nodes[i]); it must cover every
  /// node of `out_nodes` and all their in-neighbours. Returns the layer's
  /// output rows for `out_nodes`, stacked in that order ([|out|*T, C]).
  /// Each module runs once over its nodes and the attention once over the
  /// output nodes' edges (self terms included), so computing only the
  /// outputs a caller needs costs only their receptive field; an output's
  /// bits do not depend on which other nodes are computed with it. Returns
  /// null when the ambient CancelToken fired mid-layer.
  Var ForwardNodes(const graph::EsellerGraph& graph, const Var& h,
                   const std::vector<int32_t>& in_nodes,
                   const std::vector<int32_t>& out_nodes,
                   ItaProbe* probe = nullptr) const;

  /// Per-node form: `h` holds one [T, C] var per node; returns the next
  /// layer's representations in the same order (stacks, runs ForwardNodes,
  /// splits). Returns {} when the ambient CancelToken fired.
  std::vector<Var> Forward(const graph::EsellerGraph& graph,
                           const std::vector<Var>& h,
                           ItaProbe* probe = nullptr) const;

  const ConvAttentionUnit& cau() const { return *cau_; }

 private:
  int64_t channels_;
  int64_t t_len_;
  bool use_ita_;
  std::shared_ptr<ConvAttentionUnit> cau_;
  std::shared_ptr<nn::Conv1dLayer> conv_src_;  ///< L^s (centre side)
  std::shared_ptr<nn::Conv1dLayer> conv_dst_;  ///< L^d (neighbour side)
  Var mu_;                                     ///< [T] context vector
  /// Learned additive score bias per relation type (supply-chain /
  /// same-owner) — the paper carries the edge type as an edge feature.
  Var edge_type_bias_;                         ///< [num edge types]
};

}  // namespace gaia::core

#endif  // GAIA_CORE_ITA_GCN_H_
