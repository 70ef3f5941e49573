#ifndef GAIA_CORE_CAU_H_
#define GAIA_CORE_CAU_H_

#include <memory>
#include <vector>

#include "nn/layers.h"
#include "nn/module.h"

namespace gaia::core {

using autograd::Var;

/// \brief Convolutional Attention Unit (paper §IV-C1).
///
/// The heart of the ITA mechanism: scaled-dot-product attention over
/// timestamps of a (possibly cross-node) pair of temporal representations,
/// with *convolutional* Q/K projections (width 3) so that attention matches
/// local GMV shapes rather than single points, a width-1 V projection, and a
/// causal mask M forbidding rightward (future) attention.
///
/// For efficiency the projections are exposed separately: in an ITA-GCN
/// layer every node is projected once, in one node-batched call, and the
/// T x T attention of every edge runs in one edge-batched call
/// (AttendEdges). `Attend` and `Forward(h_u, h_v)` are its one-edge cases.
///
/// Constructed with `dense_projections = true` and `causal = false` this
/// degrades to the "traditional self-attention" of the w/o-ITA ablation.
class ConvAttentionUnit : public nn::Module {
 public:
  /// `num_heads` > 1 splits the C channels into independent attention heads
  /// (an extension beyond the paper, which uses a single head); channels
  /// must divide evenly.
  ConvAttentionUnit(int64_t channels, Rng* rng, bool dense_projections = false,
                    bool causal = true, int64_t num_heads = 1);

  struct Projection {
    Var q;  ///< [N*T, C]
    Var k;  ///< [N*T, C]
    Var v;  ///< [N*T, C]
  };

  /// Projects the representations of `num_nodes` nodes stacked along rows
  /// ([N*T, C]; one node's [T, C] by default).
  Projection Project(const Var& h, int64_t num_nodes = 1) const;

  /// The three projections one at a time (same layout as Project), for
  /// callers that need queries and keys/values of different node sets.
  Var Query(const Var& h, int64_t num_nodes = 1) const;
  Var Key(const Var& h, int64_t num_nodes = 1) const;
  Var Value(const Var& h, int64_t num_nodes = 1) const;

  /// Attention for every edge e = src[e] -> dst[e] at once: the queries of
  /// node dst[e] against the keys and values of node src[e] (dst == src is
  /// the intra/self term). `q` holds the query nodes and `k`/`v` the source
  /// nodes, each stacked [*, T] row blocks of C columns. Returns the
  /// messages [E*T, C], edge e in rows [e*T, (e+1)*T). When `attention_out`
  /// is non-null it receives each edge's [T, T] attention weights (the
  /// head average when num_heads > 1; Fig. 4 introspection).
  Var AttendEdges(const Var& q, const Var& k, const Var& v,
                  const std::vector<int32_t>& dst,
                  const std::vector<int32_t>& src, int64_t t_len,
                  std::vector<Tensor>* attention_out = nullptr) const;

  /// Attention for one edge v -> u given projected [T, C] tensors.
  Var Attend(const Var& q_u, const Var& k_v, const Var& v_v,
             Tensor* attention_out = nullptr) const;

  /// CAU(H_u, H_v): full composition for a single edge.
  Var Forward(const Var& h_u, const Var& h_v,
              Tensor* attention_out = nullptr) const;

  bool causal() const { return causal_; }
  int64_t channels() const { return channels_; }
  int64_t num_heads() const { return num_heads_; }

 private:
  int64_t channels_;
  bool causal_;
  int64_t num_heads_;
  int64_t head_dim_;
  std::shared_ptr<nn::Conv1dLayer> conv_q_;
  std::shared_ptr<nn::Conv1dLayer> conv_k_;
  std::shared_ptr<nn::Conv1dLayer> conv_v_;
};

}  // namespace gaia::core

#endif  // GAIA_CORE_CAU_H_
