#include "nn/layers.h"

#include <cmath>

#include "nn/init.h"
#include "util/check.h"

namespace gaia::nn {

using autograd::Var;
namespace ag = autograd;

Linear::Linear(int64_t in_features, int64_t out_features, Rng* rng,
               bool use_bias)
    : in_features_(in_features), out_features_(out_features) {
  weight_ = AddParameter("weight", LinearInit(in_features, out_features, rng));
  if (use_bias) {
    bias_ = AddParameter("bias", Tensor({out_features}));
  }
}

Var Linear::Forward(const Var& x) const {
  GAIA_CHECK_EQ(x->value.ndim(), 2);
  GAIA_CHECK_EQ(x->value.dim(1), in_features_);
  Var out = ag::MatMul(x, weight_);
  if (bias_) out = ag::AddRowVector(out, bias_);
  return out;
}

Conv1dLayer::Conv1dLayer(int64_t c_in, int64_t c_out, int64_t kernel,
                         PadMode mode, Rng* rng, int64_t dilation,
                         bool use_bias)
    : kernel_(kernel), mode_(mode), dilation_(dilation) {
  weight_ = AddParameter("weight", Conv1dInit(c_out, kernel, c_in, rng));
  if (use_bias) {
    bias_ = AddParameter("bias", Tensor({c_out}));
  }
}

Var Conv1dLayer::Forward(const Var& x, int64_t num_seqs) const {
  return ag::Conv1d(x, weight_, bias_, mode_, dilation_, num_seqs);
}

Var Dropout::Forward(const Var& x, bool training, Rng* rng) const {
  if (!training || p_ <= 0.0f) return x;
  GAIA_CHECK(rng != nullptr);
  const float keep = 1.0f - p_;
  Tensor mask(x->value.shape());
  for (int64_t i = 0; i < mask.size(); ++i) {
    mask.data()[i] = rng->Bernoulli(keep) ? 1.0f / keep : 0.0f;
  }
  return ag::Mul(x, ag::Constant(std::move(mask)));
}

Embedding::Embedding(int64_t num_embeddings, int64_t dim, Rng* rng)
    : num_embeddings_(num_embeddings), dim_(dim) {
  table_ = AddParameter(
      "table", Tensor::Randn({num_embeddings, dim}, rng,
                             1.0f / std::sqrt(static_cast<float>(dim))));
}

Var Embedding::Forward(int64_t id) const {
  GAIA_CHECK_GE(id, 0);
  GAIA_CHECK_LT(id, num_embeddings_);
  return ag::SelectRow(table_, id);
}

LayerNorm::LayerNorm(int64_t features) {
  gamma_ = AddParameter("gamma", Tensor::Ones({features}));
  beta_ = AddParameter("beta", Tensor({features}));
}

Var LayerNorm::Forward(const Var& x) const {
  return ag::LayerNormRows(x, gamma_, beta_);
}

LstmCell::LstmCell(int64_t input_size, int64_t hidden_size, Rng* rng)
    : input_size_(input_size), hidden_size_(hidden_size) {
  w_ih_ = AddParameter("w_ih", LinearInit(input_size, 4 * hidden_size, rng));
  w_hh_ = AddParameter("w_hh", LinearInit(hidden_size, 4 * hidden_size, rng));
  Tensor b({4 * hidden_size});
  // Forget-gate bias starts at 1 so early training does not forget.
  for (int64_t i = hidden_size; i < 2 * hidden_size; ++i) b.at(i) = 1.0f;
  bias_ = AddParameter("bias", std::move(b));
}

LstmCell::State LstmCell::InitialState() const {
  return State{ag::Constant(Tensor({hidden_size_})),
               ag::Constant(Tensor({hidden_size_}))};
}

LstmCell::State LstmCell::Forward(const Var& x, const State& state) const {
  GAIA_CHECK_EQ(x->value.ndim(), 1);
  GAIA_CHECK_EQ(x->value.dim(0), input_size_);
  // gates = x W_ih + h W_hh + b, computed with row-matrix reshapes.
  Var xr = ag::Reshape(x, {1, input_size_});
  Var hr = ag::Reshape(state.h, {1, hidden_size_});
  Var gates = ag::AddRowVector(
      ag::Add(ag::MatMul(xr, w_ih_), ag::MatMul(hr, w_hh_)), bias_);
  gates = ag::Reshape(gates, {4 * hidden_size_});
  Var i_gate = ag::Sigmoid(ag::SelectSpan(gates, 0, hidden_size_));
  Var f_gate = ag::Sigmoid(ag::SelectSpan(gates, hidden_size_, hidden_size_));
  Var g_gate = ag::Tanh(ag::SelectSpan(gates, 2 * hidden_size_, hidden_size_));
  Var o_gate = ag::Sigmoid(ag::SelectSpan(gates, 3 * hidden_size_, hidden_size_));
  Var c_next = ag::Add(ag::Mul(f_gate, state.c), ag::Mul(i_gate, g_gate));
  Var h_next = ag::Mul(o_gate, ag::Tanh(c_next));
  return State{h_next, c_next};
}

GruCell::GruCell(int64_t input_size, int64_t hidden_size, Rng* rng)
    : input_size_(input_size), hidden_size_(hidden_size) {
  w_ih_ = AddParameter("w_ih", LinearInit(input_size, 3 * hidden_size, rng));
  w_hh_ = AddParameter("w_hh", LinearInit(hidden_size, 3 * hidden_size, rng));
  bias_ = AddParameter("bias", Tensor({3 * hidden_size}));
}

Var GruCell::InitialState() const {
  return ag::Constant(Tensor({hidden_size_}));
}

Var GruCell::Forward(const Var& x, const Var& h) const {
  GAIA_CHECK_EQ(x->value.dim(0), input_size_);
  GAIA_CHECK_EQ(h->value.dim(0), hidden_size_);
  Var xr = ag::Reshape(x, {1, input_size_});
  Var hr = ag::Reshape(h, {1, hidden_size_});
  Var gx = ag::Reshape(ag::AddRowVector(ag::MatMul(xr, w_ih_), bias_),
                       {3 * hidden_size_});
  Var gh = ag::Reshape(ag::MatMul(hr, w_hh_), {3 * hidden_size_});
  Var r = ag::Sigmoid(ag::Add(ag::SelectSpan(gx, 0, hidden_size_),
                              ag::SelectSpan(gh, 0, hidden_size_)));
  Var z = ag::Sigmoid(
      ag::Add(ag::SelectSpan(gx, hidden_size_, hidden_size_),
              ag::SelectSpan(gh, hidden_size_, hidden_size_)));
  // Candidate state gates the recurrent contribution with r.
  Var n = ag::Tanh(ag::Add(
      ag::SelectSpan(gx, 2 * hidden_size_, hidden_size_),
      ag::Mul(r, ag::SelectSpan(gh, 2 * hidden_size_, hidden_size_))));
  // h' = (1 - z) * n + z * h
  Var ones = ag::Constant(Tensor::Ones({hidden_size_}));
  return ag::Add(ag::Mul(ag::Sub(ones, z), n), ag::Mul(z, h));
}

SelfAttention::SelfAttention(int64_t dim, int64_t num_heads, Rng* rng)
    : dim_(dim), num_heads_(num_heads), head_dim_(dim / num_heads) {
  GAIA_CHECK_EQ(head_dim_ * num_heads_, dim_)
      << "dim must be divisible by num_heads";
  proj_q_ = AddModule("q", std::make_shared<Linear>(dim, dim, rng));
  proj_k_ = AddModule("k", std::make_shared<Linear>(dim, dim, rng));
  proj_v_ = AddModule("v", std::make_shared<Linear>(dim, dim, rng));
  proj_out_ = AddModule("out", std::make_shared<Linear>(dim, dim, rng));
}

Var SelfAttention::Forward(const Var& x, const Tensor& mask) const {
  GAIA_CHECK_EQ(x->value.ndim(), 2);
  GAIA_CHECK_EQ(x->value.dim(1), dim_);
  const int64_t t_len = x->value.dim(0);
  if (!mask.empty()) {
    GAIA_CHECK_EQ(mask.dim(0), t_len);
    GAIA_CHECK_EQ(mask.dim(1), t_len);
  }
  Var q = proj_q_->Forward(x);
  Var k = proj_k_->Forward(x);
  Var v = proj_v_->Forward(x);
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim_));
  std::vector<Var> heads;
  heads.reserve(num_heads_);
  for (int64_t h = 0; h < num_heads_; ++h) {
    Var qh = ag::SliceCols(q, h * head_dim_, head_dim_);
    Var kh = ag::SliceCols(k, h * head_dim_, head_dim_);
    Var vh = ag::SliceCols(v, h * head_dim_, head_dim_);
    Var logits = ag::ScalarMul(ag::MatMul(qh, ag::Transpose(kh)), scale);
    if (!mask.empty()) logits = ag::Add(logits, ag::Constant(mask));
    Var attn = ag::SoftmaxRows(logits);
    heads.push_back(ag::MatMul(attn, vh));
  }
  return proj_out_->Forward(ag::ConcatCols(heads));
}

Mlp::Mlp(int64_t in, int64_t hidden, int64_t out, Rng* rng,
         float out_bias_init) {
  fc1_ = AddModule("fc1", std::make_shared<Linear>(in, hidden, rng));
  fc2_ = AddModule("fc2", std::make_shared<Linear>(hidden, out, rng));
  if (out_bias_init != 0.0f) {
    // fc2's bias is its second registered parameter.
    fc2_->Parameters()[1]->value.Fill(out_bias_init);
  }
}

Var Mlp::Forward(const Var& x) const {
  return fc2_->Forward(ag::Relu(fc1_->Forward(x)));
}

}  // namespace gaia::nn
