#include "core/ita_gcn.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>

#include "obs/obs.h"
#include "util/cancel.h"
#include "util/check.h"
#include "util/compiler.h"
#include "util/thread_pool.h"

namespace gaia::core {

namespace ag = autograd;

ItaGcnLayer::ItaGcnLayer(int64_t channels, int64_t t_len, Rng* rng,
                         bool use_ita, bool causal_mask, int64_t cau_heads)
    : channels_(channels), t_len_(t_len), use_ita_(use_ita) {
  cau_ = AddModule("cau", std::make_shared<ConvAttentionUnit>(
                              channels, rng,
                              /*dense_projections=*/!use_ita,
                              /*causal=*/use_ita && causal_mask, cau_heads));
  if (use_ita_) {
    conv_src_ = AddModule("score_s", std::make_shared<nn::Conv1dLayer>(
                                         channels, 1, 1, PadMode::kCausal, rng,
                                         /*dilation=*/1, /*use_bias=*/false));
    conv_dst_ = AddModule("score_d", std::make_shared<nn::Conv1dLayer>(
                                         channels, 1, 1, PadMode::kCausal, rng,
                                         /*dilation=*/1, /*use_bias=*/false));
    mu_ = AddParameter("mu", Tensor::RandUniform({t_len}, rng, -0.5f, 0.5f));
    edge_type_bias_ = AddParameter("edge_type_bias", Tensor({2}));
  }
}

namespace {

/// One layer's edge list, grouped by output node. Output a (graph node
/// out_nodes[a]) owns attention edges first[a] (its self term) through
/// first[a+1] - 1 (its in-neighbours in the graph's order); neighbour i of
/// a is attention edge first[a] + 1 + i and aggregation weight
/// first[a] - a + i. Attention queries index output rows (dst) and keys /
/// values index input rows (src).
struct EdgeLayout {
  std::vector<int32_t> dst, src;  ///< attention edges, self terms included
  std::vector<int64_t> first;     ///< size |out| + 1
  std::vector<int32_t> nbr_row;   ///< neighbour input row per weight
  std::vector<int64_t> nbr_type;  ///< relation type per weight

  /// `in_row[v]` is graph node v's input row block (-1 = not an input).
  EdgeLayout(const graph::EsellerGraph& graph,
             const std::vector<int32_t>& out_nodes,
             const std::vector<int32_t>& in_row) {
    first.reserve(out_nodes.size() + 1);
    for (size_t a = 0; a < out_nodes.size(); ++a) {
      const int32_t u = out_nodes[a];
      first.push_back(static_cast<int64_t>(dst.size()));
      dst.push_back(static_cast<int32_t>(a));
      src.push_back(in_row[static_cast<size_t>(u)]);
      for (const graph::Neighbor& nb : graph.InNeighbors(u)) {
        const int32_t row = in_row[static_cast<size_t>(nb.node)];
        GAIA_CHECK_GE(row, 0) << "in-neighbour " << nb.node << " of " << u
                              << " is not among the layer's inputs";
        dst.push_back(static_cast<int32_t>(a));
        src.push_back(row);
        nbr_row.push_back(row);
        nbr_type.push_back(static_cast<int64_t>(nb.type));
      }
    }
    first.push_back(static_cast<int64_t>(dst.size()));
  }

  int64_t nodes() const { return static_cast<int64_t>(first.size()) - 1; }
  int64_t degree(int64_t a) const { return first[a + 1] - first[a] - 1; }
  int64_t first_weight(int64_t a) const { return first[a] - a; }
};

/// alpha_uv for every neighbour edge at once: per edge
/// g(u, v) = mu' tanh(L^s H_u + L^d H_v) + b_type, then a softmax over
/// each node's neighbours. Every value is the op-by-op per-edge forward it
/// replaces (float add, tanhf, double-accumulated dot, float bias add,
/// SoftmaxRows' row kernel). `score_src` is L^s over the output rows and
/// `score_dst` L^d over the input rows, each [rows*T, 1].
Var NeighbourWeights(const Var& score_src, const Var& score_dst, const Var& mu,
                     const Var& type_bias,
                     std::shared_ptr<const EdgeLayout> layout, int64_t t_len) {
  const auto weights = static_cast<int64_t>(layout->nbr_row.size());
  const float* ps = score_src->value.data();
  const float* pd = score_dst->value.data();
  const float* pmu = mu->value.data();
  auto tanh_out = std::make_shared<Tensor>(Tensor({weights, t_len}));
  Tensor alpha({weights});
  for (int64_t u = 0; u < layout->nodes(); ++u) {
    const int64_t w0 = layout->first_weight(u), deg = layout->degree(u);
    for (int64_t w = w0; w < w0 + deg; ++w) {
      const int64_t v = layout->nbr_row[static_cast<size_t>(w)];
      float* th = tanh_out->data() + w * t_len;
      double acc = 0.0;
      for (int64_t t = 0; t < t_len; ++t) {
        th[t] = std::tanh(ps[u * t_len + t] + pd[v * t_len + t]);
        acc += static_cast<double>(th[t]) * pmu[t];
      }
      alpha.data()[w] =
          static_cast<float>(acc) +
          type_bias->value.data()[layout->nbr_type[static_cast<size_t>(w)]];
    }
    if (deg > 0) SoftmaxRowInPlace(alpha.data() + w0, deg);
  }
  return ag::MakeOp(
      std::move(alpha), {score_src, score_dst, mu, type_bias},
      [tanh_out, layout, t_len](ag::AutogradNode& n) {
        const float* pmu = n.parents[2]->value.data();
        Tensor d_src(n.parents[0]->value.shape());
        Tensor d_dst(n.parents[1]->value.shape());
        Tensor d_mu(n.parents[2]->value.shape());
        Tensor d_bias(n.parents[3]->value.shape());
        for (int64_t u = 0; u < layout->nodes(); ++u) {
          const int64_t w0 = layout->first_weight(u), deg = layout->degree(u);
          const float* y = n.value.data() + w0;
          const float* g = n.grad.data() + w0;
          double inner = 0.0;
          for (int64_t i = 0; i < deg; ++i) {
            inner += static_cast<double>(y[i]) * g[i];
          }
          for (int64_t i = 0; i < deg; ++i) {
            const float d_score = y[i] * (g[i] - static_cast<float>(inner));
            const int64_t w = w0 + i;
            const int64_t v = layout->nbr_row[static_cast<size_t>(w)];
            d_bias.data()[layout->nbr_type[static_cast<size_t>(w)]] += d_score;
            const float* th = tanh_out->data() + w * t_len;
            for (int64_t t = 0; t < t_len; ++t) {
              d_mu.data()[t] += th[t] * d_score;
              const float d_pre = d_score * pmu[t] * (1.0f - th[t] * th[t]);
              d_src.data()[u * t_len + t] += d_pre;
              d_dst.data()[v * t_len + t] += d_pre;
            }
          }
        }
        const Tensor* grads[] = {&d_src, &d_dst, &d_mu, &d_bias};
        for (size_t i = 0; i < 4; ++i) {
          if (n.parents[i]->requires_grad) {
            n.parents[i]->AccumulateGrad(*grads[i]);
          }
        }
      });
}

/// Eq. 8's sum per node: H_u' = sum_i alpha_i m_i + m_self, with m the
/// [E*T, C] CAU messages in layout order. The neighbour terms are scaled
/// and summed left to right, then the self term is added, as the per-node
/// ScaleByScalar / AddN / Add chain did; a node without neighbours keeps
/// its self term.
Var Aggregate(const Var& messages, const Var& alpha,
              std::shared_ptr<const EdgeLayout> layout, int64_t t_len) {
  const int64_t c = messages->value.dim(1), block = t_len * c;
  Tensor out({layout->nodes() * t_len, c});
  const float* pm = messages->value.data();
  const float* pa = alpha->value.data();
  util::ParallelFor(layout->nodes(), [&](int64_t u) {
    float* GAIA_RESTRICT o = out.data() + u * block;
    const float* self = pm + layout->first[u] * block;
    const int64_t w0 = layout->first_weight(u), deg = layout->degree(u);
    if (deg == 0) {
      std::copy(self, self + block, o);
      return;
    }
    for (int64_t i = 0; i < deg; ++i) {
      const float* GAIA_RESTRICT m = pm + (layout->first[u] + 1 + i) * block;
      const float a = pa[w0 + i];
      if (i == 0) {
        for (int64_t x = 0; x < block; ++x) o[x] = m[x] * a;
      } else {
        for (int64_t x = 0; x < block; ++x) o[x] += m[x] * a;
      }
    }
    for (int64_t x = 0; x < block; ++x) o[x] += self[x];
  });
  return ag::MakeOp(
      std::move(out), {messages, alpha},
      [layout, block](ag::AutogradNode& n) {
        const Tensor& mv = n.parents[0]->value;
        const Tensor& av = n.parents[1]->value;
        Tensor d_msg(mv.shape());
        Tensor d_alpha(av.shape());
        // Every edge has one destination, so nodes write disjoint slots.
        util::ParallelFor(layout->nodes(), [&](int64_t u) {
          const float* g = n.grad.data() + u * block;
          const int64_t e0 = layout->first[u];
          std::copy(g, g + block, d_msg.data() + e0 * block);
          const int64_t w0 = layout->first_weight(u), deg = layout->degree(u);
          for (int64_t i = 0; i < deg; ++i) {
            const float* m = mv.data() + (e0 + 1 + i) * block;
            float* dm = d_msg.data() + (e0 + 1 + i) * block;
            const float a = av.data()[w0 + i];
            double acc = 0.0;
            for (int64_t x = 0; x < block; ++x) {
              dm[x] = g[x] * a;
              acc += static_cast<double>(g[x]) * m[x];
            }
            d_alpha.data()[w0 + i] = static_cast<float>(acc);
          }
        });
        if (n.parents[0]->requires_grad) n.parents[0]->AccumulateGrad(d_msg);
        if (n.parents[1]->requires_grad) n.parents[1]->AccumulateGrad(d_alpha);
      });
}

}  // namespace

Var ItaGcnLayer::ForwardNodes(const graph::EsellerGraph& graph, const Var& h,
                              const std::vector<int32_t>& in_nodes,
                              const std::vector<int32_t>& out_nodes,
                              ItaProbe* probe) const {
  GAIA_OBS_SPAN("ita_gcn.forward");
  const auto n_in = static_cast<int64_t>(in_nodes.size());
  const auto n_out = static_cast<int64_t>(out_nodes.size());
  GAIA_CHECK_EQ(h->value.ndim(), 2);
  GAIA_CHECK_EQ(h->value.dim(0), n_in * t_len_);
  GAIA_CHECK_EQ(h->value.dim(1), channels_);
  if (util::CurrentCancelled()) return nullptr;
  std::vector<int32_t> in_row(static_cast<size_t>(graph.num_nodes()), -1);
  for (int64_t i = 0; i < n_in; ++i) {
    in_row[static_cast<size_t>(in_nodes[static_cast<size_t>(i)])] =
        static_cast<int32_t>(i);
  }
  auto layout = std::make_shared<const EdgeLayout>(graph, out_nodes, in_row);
  // Queries and L^s read the output nodes' rows; keys, values and L^d read
  // every input row.
  Var h_out = h;
  if (out_nodes != in_nodes) {
    std::vector<int32_t> rows;
    rows.reserve(out_nodes.size());
    for (int32_t u : out_nodes) {
      rows.push_back(in_row[static_cast<size_t>(u)]);
      GAIA_CHECK_GE(rows.back(), 0) << "output " << u << " is not an input";
    }
    h_out = ag::GatherRowBlocks(h, rows, t_len_);
  }

  // Phase 1 — CAU Q/K/V and the score convs, each once over its nodes.
  Var q, k, v, score_src, score_dst;
  {
    GAIA_OBS_SPAN("ita_gcn.project");
    q = cau_->Query(h_out, n_out);
    k = cau_->Key(h, n_in);
    v = cau_->Value(h, n_in);
    if (use_ita_ && !util::CurrentCancelled()) {
      score_src = conv_src_->Forward(h_out, n_out);
      score_dst = conv_dst_->Forward(h, n_in);
    }
  }
  // A fired token leaves skipped kernel chunks unfilled; bail before
  // phase 2 reads them. Null = "forward aborted", understood by callers.
  if (util::CurrentCancelled()) return nullptr;

  // Phase 2 — the T x T attention of every edge and self term at once,
  // then the alpha-weighted neighbour sum per node (Eq. 8).
  GAIA_OBS_SPAN("ita_gcn.attend");
  std::vector<Tensor> maps;
  Var messages = cau_->AttendEdges(q, k, v, layout->dst, layout->src, t_len_,
                                   probe != nullptr ? &maps : nullptr);
  if (util::CurrentCancelled()) return nullptr;
  Var alpha;  // [neighbour edges]
  if (use_ita_) {
    alpha = NeighbourWeights(score_src, score_dst, mu_, edge_type_bias_,
                             layout, t_len_);
  } else {
    Tensor uniform({static_cast<int64_t>(layout->nbr_row.size())});
    for (int64_t a = 0; a < n_out; ++a) {
      const int64_t deg = layout->degree(a);
      std::fill_n(uniform.data() + layout->first_weight(a), deg,
                  1.0f / static_cast<float>(deg));
    }
    alpha = ag::Constant(std::move(uniform));
  }
  if (util::CurrentCancelled()) return nullptr;
  Var out = Aggregate(messages, alpha, layout, t_len_);
  if (util::CurrentCancelled()) return nullptr;

  if (probe != nullptr) {
    // Node-then-edge order: per output node its self term, its alpha
    // record and its in-edges in the graph's neighbour order.
    for (int64_t a = 0; a < n_out; ++a) {
      const int32_t u = out_nodes[static_cast<size_t>(a)];
      const int64_t e0 = layout->first[static_cast<size_t>(a)];
      const int64_t w0 = layout->first_weight(a), deg = layout->degree(a);
      probe->intra.push_back(
          EdgeAttentionRecord{u, u, std::move(maps[static_cast<size_t>(e0)])});
      if (deg == 0) continue;
      NeighborAlphaRecord rec;
      rec.u = u;
      for (int64_t i = 0; i < deg; ++i) {
        rec.neighbors.push_back(
            in_nodes[static_cast<size_t>(layout->nbr_row[w0 + i])]);
      }
      const float* pa = alpha->value.data() + w0;
      rec.alpha = Tensor({deg}, std::vector<float>(pa, pa + deg));
      for (int64_t i = 0; i < deg; ++i) {
        probe->inter.push_back(EdgeAttentionRecord{
            u, rec.neighbors[static_cast<size_t>(i)],
            std::move(maps[static_cast<size_t>(e0 + 1 + i)])});
      }
      probe->alphas.push_back(std::move(rec));
    }
  }
  return out;
}

std::vector<Var> ItaGcnLayer::Forward(const graph::EsellerGraph& graph,
                                      const std::vector<Var>& h,
                                      ItaProbe* probe) const {
  GAIA_CHECK_EQ(static_cast<int64_t>(h.size()), graph.num_nodes());
  for (const Var& node : h) GAIA_CHECK_EQ(node->value.dim(0), t_len_);
  std::vector<int32_t> nodes(h.size());
  std::iota(nodes.begin(), nodes.end(), 0);
  Var out = ForwardNodes(graph, h.size() == 1 ? h[0] : ag::ConcatRows(h),
                         nodes, nodes, probe);
  if (out == nullptr) return {};
  std::vector<Var> split;
  split.reserve(h.size());
  for (size_t u = 0; u < h.size(); ++u) {
    split.push_back(
        ag::SliceRows(out, static_cast<int64_t>(u) * t_len_, t_len_));
  }
  return split;
}

}  // namespace gaia::core
