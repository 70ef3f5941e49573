#include "core/cau.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "obs/obs.h"
#include "util/cancel.h"
#include "util/check.h"
#include "util/compiler.h"
#include "util/thread_pool.h"

namespace gaia::core {

namespace ag = autograd;

ConvAttentionUnit::ConvAttentionUnit(int64_t channels, Rng* rng,
                                     bool dense_projections, bool causal,
                                     int64_t num_heads)
    : channels_(channels),
      causal_(causal),
      num_heads_(num_heads),
      head_dim_(channels / num_heads) {
  GAIA_CHECK_GE(num_heads_, 1);
  GAIA_CHECK_EQ(head_dim_ * num_heads_, channels_)
      << "channels must divide evenly into heads";
  const int64_t qk_width = dense_projections ? 1 : 3;
  // Q/K convs see local shape context (width 3, causal so features never
  // leak future values); V is a pointwise projection (width 1).
  conv_q_ = AddModule("q", std::make_shared<nn::Conv1dLayer>(
                               channels, channels, qk_width, PadMode::kCausal,
                               rng));
  conv_k_ = AddModule("k", std::make_shared<nn::Conv1dLayer>(
                               channels, channels, qk_width, PadMode::kCausal,
                               rng));
  conv_v_ = AddModule("v", std::make_shared<nn::Conv1dLayer>(
                               channels, channels, 1, PadMode::kCausal, rng));
}

ConvAttentionUnit::Projection ConvAttentionUnit::Project(
    const Var& h, int64_t num_nodes) const {
  return Projection{Query(h, num_nodes), Key(h, num_nodes),
                    Value(h, num_nodes)};
}

Var ConvAttentionUnit::Query(const Var& h, int64_t num_nodes) const {
  GAIA_CHECK_EQ(h->value.dim(1), channels_);
  return conv_q_->Forward(h, num_nodes);
}

Var ConvAttentionUnit::Key(const Var& h, int64_t num_nodes) const {
  GAIA_CHECK_EQ(h->value.dim(1), channels_);
  return conv_k_->Forward(h, num_nodes);
}

Var ConvAttentionUnit::Value(const Var& h, int64_t num_nodes) const {
  GAIA_CHECK_EQ(h->value.dim(1), channels_);
  return conv_v_->Forward(h, num_nodes);
}

namespace {

/// Approximate per-chunk work (scalar ops) when edges fan out on the pool.
constexpr int64_t kEdgeGrainWork = int64_t{1} << 15;

/// Attention weights of the edge being processed when no backward needs
/// them kept.
thread_local std::vector<float> tl_attention;

/// Scratch for one edge-head's dP / dLogits in the backward pass.
thread_local std::vector<float> tl_attention_grad;

}  // namespace

Var ConvAttentionUnit::AttendEdges(const Var& q, const Var& k, const Var& v,
                                   const std::vector<int32_t>& dst,
                                   const std::vector<int32_t>& src,
                                   int64_t t_len,
                                   std::vector<Tensor>* attention_out) const {
  // One span per layer's batched attention (detail level); the counter
  // still counts one evaluation per edge and per self term.
  GAIA_OBS_SPAN_DETAIL("cau.attend");
  const auto edges = static_cast<int64_t>(dst.size());
  GAIA_CHECK_EQ(static_cast<int64_t>(src.size()), edges);
  if (obs::Enabled()) {
    static obs::Counter& attends = obs::MetricsRegistry::Global().GetCounter(
        "gaia_cau_attend_total", "CAU attention evaluations (edges + self)");
    attends.Increment(static_cast<uint64_t>(edges));
  }
  const int64_t c = channels_;
  GAIA_CHECK_EQ(q->value.dim(1), c);
  GAIA_CHECK_EQ(k->value.dim(1), c);
  GAIA_CHECK(k->value.SameShape(v->value));
  GAIA_CHECK_EQ(q->value.dim(0) % t_len, 0);
  GAIA_CHECK_EQ(k->value.dim(0) % t_len, 0);
  // Cancellation checkpoint: a fired token skips the T x T attention; the
  // zero result is discarded upstream.
  if (util::CurrentCancelled()) {
    return ag::Constant(Tensor({edges * t_len, c}));
  }
  const int64_t heads = num_heads_, d = head_dim_;
  const int64_t block = t_len * c;  // one node's (or edge's) rows
  const bool causal = causal_;
  // Same scale expression as the per-edge ScalarMul it replaces.
  const float scale = 1.0f / std::sqrt(static_cast<float>(d));
  // K transposed once per source node: kt[n][ch][j] = K[n*T + j][ch].
  const int64_t k_nodes = k->value.dim(0) / t_len;
  Tensor kt({k_nodes * c, t_len});
  for (int64_t n = 0; n < k_nodes; ++n) {
    const float* kb = k->value.data() + n * block;
    float* ktb = kt.data() + n * block;
    for (int64_t j = 0; j < t_len; ++j) {
      for (int64_t ch = 0; ch < c; ++ch) ktb[ch * t_len + j] = kb[j * c + ch];
    }
  }
  for (int32_t u : dst) GAIA_CHECK_LT(u, q->value.dim(0) / t_len);
  for (int32_t s : src) GAIA_CHECK_LT(s, k_nodes);
  const bool save = ag::RecordsTape({q, k, v});
  const int64_t tt = t_len * t_len;
  auto probs = std::make_shared<Tensor>(
      save ? Tensor({edges * heads, tt}) : Tensor());
  Tensor out({edges * t_len, c});
  if (attention_out != nullptr) attention_out->assign(dst.size(), Tensor());

  // Every edge writes only its own output rows (and probe slot), so edges
  // fan out freely. Per head, each step reproduces the op-by-op forward it
  // replaces, sum for sum: the naive QK^T (ascending channel, zero query
  // entries skipped), the scale, the row softmax of SoftmaxRows and the
  // naive A V (zero weights skipped). Under the causal mask row i runs over
  // keys 0..i only. A masked key's weight would be exactly 0.0f, which A V,
  // the softmax sum and the backward skip or add as an exact zero, so the
  // triangle gives the bits of the full masked rows; and a non-finite
  // future key cannot reach an earlier row.
  const int64_t grain =
      std::max<int64_t>(1, kEdgeGrainWork / (2 * tt * c));
  util::ParallelForRange(edges, grain, [&](int64_t e_begin, int64_t e_end) {
    if (!save) tl_attention.resize(static_cast<size_t>(tt));
    for (int64_t e = e_begin; e < e_end; ++e) {
      const float* qb = q->value.data() + dst[static_cast<size_t>(e)] * block;
      const int64_t s = src[static_cast<size_t>(e)];
      const float* ktb = kt.data() + s * block;
      const float* vb = v->value.data() + s * block;
      float* ob = out.data() + e * block;
      Tensor* map = attention_out != nullptr
                        ? &(*attention_out)[static_cast<size_t>(e)]
                        : nullptr;
      if (map != nullptr) *map = Tensor({t_len, t_len});
      for (int64_t h = 0; h < heads; ++h) {
        float* pa = save ? probs->data() + (e * heads + h) * tt
                         : tl_attention.data();
        std::fill(pa, pa + tt, 0.0f);
        for (int64_t i = 0; i < t_len; ++i) {
          float* GAIA_RESTRICT row = pa + i * t_len;
          const int64_t keys = causal ? i + 1 : t_len;
          for (int64_t p = h * d; p < (h + 1) * d; ++p) {
            const float a = qb[i * c + p];
            if (a == 0.0f) continue;
            const float* GAIA_RESTRICT kr = ktb + p * t_len;
            for (int64_t j = 0; j < keys; ++j) row[j] += a * kr[j];
          }
          for (int64_t j = 0; j < keys; ++j) row[j] = row[j] * scale;
          SoftmaxRowInPlace(row, keys);
        }
        for (int64_t i = 0; i < t_len; ++i) {
          float* GAIA_RESTRICT orow = ob + i * c + h * d;
          const int64_t keys = causal ? i + 1 : t_len;
          for (int64_t j = 0; j < keys; ++j) {
            const float a = pa[i * t_len + j];
            if (a == 0.0f) continue;
            const float* GAIA_RESTRICT vr = vb + j * c + h * d;
            for (int64_t x = 0; x < d; ++x) orow[x] += a * vr[x];
          }
        }
        if (map != nullptr) {
          // One head: the weights themselves; several: their running sum,
          // averaged below (the probe's head-averaged map).
          float* pm = map->data();
          for (int64_t x = 0; x < tt; ++x) pm[x] += pa[x];
        }
      }
      if (map != nullptr && heads > 1) {
        map->Scale(1.0f / static_cast<float>(heads));
      }
    }
  });

  return ag::MakeOp(
      std::move(out), {q, k, v},
      [probs, dst, src, t_len, heads, d, scale, causal](ag::AutogradNode& n) {
        const Tensor& qv = n.parents[0]->value;
        const Tensor& kv = n.parents[1]->value;
        const Tensor& vv = n.parents[2]->value;
        const int64_t c = qv.dim(1), block = t_len * c, tt = t_len * t_len;
        const auto edges = static_cast<int64_t>(dst.size());
        // Per-edge partials fan out; the scatter into the node gradients
        // below runs in edge order, so the sums are thread-count invariant.
        Tensor dq_e({edges * t_len, c}), dk_e({edges * t_len, c}),
            dv_e({edges * t_len, c});
        const int64_t grain =
            std::max<int64_t>(1, kEdgeGrainWork / (4 * tt * c));
        util::ParallelForRange(edges, grain, [&](int64_t e_begin,
                                                 int64_t e_end) {
          std::vector<float>& dp = tl_attention_grad;
          dp.resize(static_cast<size_t>(tt));
          for (int64_t e = e_begin; e < e_end; ++e) {
            const float* qb = qv.data() + dst[static_cast<size_t>(e)] * block;
            const int64_t s = src[static_cast<size_t>(e)];
            const float* kb = kv.data() + s * block;
            const float* vb = vv.data() + s * block;
            const float* gb = n.grad.data() + e * block;
            float* dqb = dq_e.data() + e * block;
            float* dkb = dk_e.data() + e * block;
            float* dvb = dv_e.data() + e * block;
            for (int64_t h = 0; h < heads; ++h) {
              const float* pa = probs->data() + (e * heads + h) * tt;
              const int64_t h0 = h * d;
              // dA = G V^T and dV = A^T G, over the kept triangle: a masked
              // weight is zero, so its dLogit is too.
              for (int64_t i = 0; i < t_len; ++i) {
                const float* gi = gb + i * c + h0;
                const int64_t keys = causal ? i + 1 : t_len;
                for (int64_t j = 0; j < keys; ++j) {
                  const float* vj = vb + j * c + h0;
                  float acc = 0.0f;
                  for (int64_t x = 0; x < d; ++x) acc += gi[x] * vj[x];
                  dp[static_cast<size_t>(i * t_len + j)] = acc;
                  const float a = pa[i * t_len + j];
                  if (a == 0.0f) continue;
                  float* dvj = dvb + j * c + h0;
                  for (int64_t x = 0; x < d; ++x) dvj[x] += a * gi[x];
                }
              }
              // Softmax backward, then the scale: dLogits.
              for (int64_t i = 0; i < t_len; ++i) {
                const float* py = pa + i * t_len;
                float* pd = dp.data() + i * t_len;
                const int64_t keys = causal ? i + 1 : t_len;
                double inner = 0.0;
                for (int64_t j = 0; j < keys; ++j) {
                  inner += static_cast<double>(py[j]) * pd[j];
                }
                for (int64_t j = 0; j < keys; ++j) {
                  pd[j] = py[j] * (pd[j] - static_cast<float>(inner)) * scale;
                }
              }
              // dQ = dLogits K and dK = dLogits^T Q.
              for (int64_t i = 0; i < t_len; ++i) {
                float* dqi = dqb + i * c + h0;
                const float* qi = qb + i * c + h0;
                const int64_t keys = causal ? i + 1 : t_len;
                for (int64_t j = 0; j < keys; ++j) {
                  const float g = dp[static_cast<size_t>(i * t_len + j)];
                  if (g == 0.0f) continue;
                  const float* kj = kb + j * c + h0;
                  float* dkj = dkb + j * c + h0;
                  for (int64_t x = 0; x < d; ++x) {
                    dqi[x] += g * kj[x];
                    dkj[x] += g * qi[x];
                  }
                }
              }
            }
          }
        });
        auto scatter = [&](const Tensor& partial,
                           const std::vector<int32_t>& nodes,
                           const Var& parent) {
          if (!parent->requires_grad) return;
          Tensor grad(parent->value.shape());
          for (int64_t e = 0; e < edges; ++e) {
            float* dstb = grad.data() + nodes[static_cast<size_t>(e)] * block;
            const float* pb = partial.data() + e * block;
            for (int64_t x = 0; x < block; ++x) dstb[x] += pb[x];
          }
          parent->AccumulateGrad(grad);
        };
        scatter(dq_e, dst, n.parents[0]);
        scatter(dk_e, src, n.parents[1]);
        scatter(dv_e, src, n.parents[2]);
      });
}

Var ConvAttentionUnit::Attend(const Var& q_u, const Var& k_v, const Var& v_v,
                              Tensor* attention_out) const {
  GAIA_CHECK_EQ(q_u->value.ndim(), 2);
  std::vector<Tensor> maps;
  Var out = AttendEdges(q_u, k_v, v_v, {0}, {0}, q_u->value.dim(0),
                        attention_out != nullptr ? &maps : nullptr);
  if (attention_out != nullptr && !maps.empty()) {
    *attention_out = std::move(maps.front());
  }
  return out;
}

Var ConvAttentionUnit::Forward(const Var& h_u, const Var& h_v,
                               Tensor* attention_out) const {
  const Projection pu = Project(h_u);
  // Only K/V of the source node are needed.
  const Projection pv = h_v == h_u ? pu : Project(h_v);
  return Attend(pu.q, pv.k, pv.v, attention_out);
}

}  // namespace gaia::core
