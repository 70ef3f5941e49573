#include "core/ffl.h"

#include "nn/init.h"
#include "obs/obs.h"
#include "util/cancel.h"
#include "util/check.h"

namespace gaia::core {

namespace ag = autograd;

FeatureFusionLayer::FeatureFusionLayer(int64_t t_len, int64_t d_temporal,
                                       int64_t d_static, int64_t channels,
                                       Rng* rng)
    : t_len_(t_len),
      d_temporal_(d_temporal),
      d_static_(d_static),
      channels_(channels) {
  w_gmv_ = AddParameter("w_gmv", nn::GlorotUniform({1, channels}, 1, channels,
                                                   rng));
  b_gmv_ = AddParameter("b_gmv", Tensor({channels}));
  w_temp_ = AddParameter("w_temp", nn::LinearInit(d_temporal, channels, rng));
  b_temp_t_ = AddParameter("b_temp_t", Tensor({t_len, channels}));
  w_stat_ = AddParameter("w_stat", nn::LinearInit(d_static, channels, rng));
  b_stat_ = AddParameter("b_stat", Tensor({channels}));
  w_fuse_ = AddParameter("w_fuse", nn::LinearInit(3 * channels, channels, rng));
  b_fuse_t_ = AddParameter("b_fuse_t", Tensor({t_len, channels}));
}

Var FeatureFusionLayer::Forward(const Var& z, const Var& f_temporal,
                                const Var& f_static) const {
  GAIA_CHECK_EQ(f_static->value.ndim(), 1);
  return ForwardNodes(z, f_temporal, ag::Reshape(f_static, {1, d_static_}));
}

Var FeatureFusionLayer::ForwardNodes(const Var& z, const Var& f_temporal,
                                     const Var& f_static) const {
  GAIA_OBS_SPAN("ffl.forward");
  GAIA_CHECK_EQ(z->value.ndim(), 1);
  GAIA_CHECK_EQ(f_static->value.ndim(), 2);
  GAIA_CHECK_EQ(f_static->value.dim(1), d_static_);
  const int64_t nodes = f_static->value.dim(0);
  const int64_t rows = nodes * t_len_;
  GAIA_CHECK_EQ(z->value.dim(0), rows);
  GAIA_CHECK_EQ(f_temporal->value.dim(0), rows);
  GAIA_CHECK_EQ(f_temporal->value.dim(1), d_temporal_);
  // Cooperative cancellation: once the ambient token fires, the whole
  // forward is going to be discarded at the next checked boundary, so skip
  // the kernels and return a correctly shaped zero to keep downstream
  // shape checks happy.
  if (util::CurrentCancelled()) {
    return ag::Constant(Tensor({rows, channels_}));
  }

  // Eq. 1: per-timestep scalar projection z_t * w^I + b^I.
  Var z_col = ag::Reshape(z, {rows, 1});
  Var z_emb = ag::AddRowVector(ag::MatMul(z_col, w_gmv_), b_gmv_);

  // Eq. 2: temporal features with per-timestep bias.
  Var temp_emb = ag::AddRowsTiled(ag::MatMul(f_temporal, w_temp_), b_temp_t_);

  // Eq. 3: static features, broadcast over each node's T rows.
  Var stat_emb_rows =
      ag::AddRowVector(ag::MatMul(f_static, w_stat_), b_stat_);  // [N, C]
  Var stat_emb = ag::RepeatRows(stat_emb_rows, t_len_);        // [N*T, C]

  // Eq. 4: concatenate and fuse with per-timestep bias.
  Var fused = ag::MatMul(ag::ConcatCols({z_emb, temp_emb, stat_emb}), w_fuse_);
  return ag::AddRowsTiled(fused, b_fuse_t_);
}

}  // namespace gaia::core
