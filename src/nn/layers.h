#ifndef GAIA_NN_LAYERS_H_
#define GAIA_NN_LAYERS_H_

#include <memory>
#include <vector>

#include "autograd/ops.h"
#include "nn/module.h"
#include "util/rng.h"

namespace gaia::nn {

/// \brief Dense affine layer: y = x W + b for x of shape [R, in].
class Linear : public Module {
 public:
  Linear(int64_t in_features, int64_t out_features, Rng* rng,
         bool use_bias = true);

  Var Forward(const Var& x) const;

  int64_t in_features() const { return in_features_; }
  int64_t out_features() const { return out_features_; }

 private:
  int64_t in_features_;
  int64_t out_features_;
  Var weight_;
  Var bias_;  // null when use_bias == false
};

/// \brief 1-D convolution layer over [T, Cin] sequences (length preserving).
class Conv1dLayer : public Module {
 public:
  Conv1dLayer(int64_t c_in, int64_t c_out, int64_t kernel, PadMode mode,
              Rng* rng, int64_t dilation = 1, bool use_bias = true);

  /// x: [num_seqs*T, Cin], `num_seqs` independent row-stacked sequences
  /// (one per graph node in the batched model forward).
  Var Forward(const Var& x, int64_t num_seqs = 1) const;

  int64_t kernel() const { return kernel_; }
  int64_t dilation() const { return dilation_; }

 private:
  int64_t kernel_;
  PadMode mode_;
  int64_t dilation_;
  Var weight_;
  Var bias_;  // null when use_bias == false
};

/// \brief Inverted dropout. Active only when `training` is true; scales kept
/// activations by 1/(1-p) so evaluation needs no rescaling.
class Dropout : public Module {
 public:
  explicit Dropout(float p) : p_(p) {}

  Var Forward(const Var& x, bool training, Rng* rng) const;

 private:
  float p_;
};

/// \brief Embedding table: integer id -> dense row vector.
class Embedding : public Module {
 public:
  Embedding(int64_t num_embeddings, int64_t dim, Rng* rng);

  /// Returns the embedding row for `id` as a 1-D var of shape [dim].
  Var Forward(int64_t id) const;

  int64_t dim() const { return dim_; }

 private:
  int64_t num_embeddings_;
  int64_t dim_;
  Var table_;
};

/// \brief Per-row layer normalization with learned affine transform.
class LayerNorm : public Module {
 public:
  explicit LayerNorm(int64_t features);

  Var Forward(const Var& x) const;

 private:
  Var gamma_;
  Var beta_;
};

/// \brief Single LSTM step. State vectors are 1-D of size `hidden`.
class LstmCell : public Module {
 public:
  LstmCell(int64_t input_size, int64_t hidden_size, Rng* rng);

  struct State {
    Var h;  ///< hidden state [hidden]
    Var c;  ///< cell state [hidden]
  };

  /// Zero-initialized state.
  State InitialState() const;

  /// One recurrence step on input x of shape [input_size].
  State Forward(const Var& x, const State& state) const;

  int64_t hidden_size() const { return hidden_size_; }

 private:
  int64_t input_size_;
  int64_t hidden_size_;
  Var w_ih_;  ///< [input, 4*hidden] gate order: i, f, g, o
  Var w_hh_;  ///< [hidden, 4*hidden]
  Var bias_;  ///< [4*hidden]
};

/// \brief Single GRU step (Cho et al., 2014). State is 1-D of size `hidden`.
class GruCell : public Module {
 public:
  GruCell(int64_t input_size, int64_t hidden_size, Rng* rng);

  /// Zero-initialized hidden state.
  Var InitialState() const;

  /// One recurrence step on input x of shape [input_size].
  Var Forward(const Var& x, const Var& h) const;

  int64_t hidden_size() const { return hidden_size_; }

 private:
  int64_t input_size_;
  int64_t hidden_size_;
  Var w_ih_;  ///< [input, 3*hidden] gate order: r, z, n
  Var w_hh_;  ///< [hidden, 3*hidden]
  Var bias_;  ///< [3*hidden]
};

/// \brief Multi-head scaled-dot-product self attention over a [T, C]
/// sequence with dense Q/K/V projections and an optional additive mask.
/// Used by the GMAN baseline and as the "traditional self-attention" in the
/// Gaia w/o-ITA ablation.
class SelfAttention : public Module {
 public:
  SelfAttention(int64_t dim, int64_t num_heads, Rng* rng);

  /// `mask` is an additive [T, T] tensor (0 / kMaskNegInf) or empty.
  Var Forward(const Var& x, const Tensor& mask) const;

 private:
  int64_t dim_;
  int64_t num_heads_;
  int64_t head_dim_;
  std::shared_ptr<Linear> proj_q_;
  std::shared_ptr<Linear> proj_k_;
  std::shared_ptr<Linear> proj_v_;
  std::shared_ptr<Linear> proj_out_;
};

/// \brief Two-layer MLP with ReLU, the default prediction/readout head for
/// baseline models.
class Mlp : public Module {
 public:
  /// `out_bias_init` seeds the output bias; heads feeding a final ReLU over
  /// non-negative targets should pass a positive value to avoid dead units.
  Mlp(int64_t in, int64_t hidden, int64_t out, Rng* rng,
      float out_bias_init = 0.0f);

  Var Forward(const Var& x) const;

 private:
  std::shared_ptr<Linear> fc1_;
  std::shared_ptr<Linear> fc2_;
};

}  // namespace gaia::nn

#endif  // GAIA_NN_LAYERS_H_
