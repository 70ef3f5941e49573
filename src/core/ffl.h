#ifndef GAIA_CORE_FFL_H_
#define GAIA_CORE_FFL_H_

#include "nn/layers.h"
#include "nn/module.h"

namespace gaia::core {

using autograd::Var;

/// \brief Feature Fusion Layer (paper §IV-A, Eq. 1-4).
///
/// Per timestamp t, projects the scalar GMV z_{v,t}, the temporal auxiliary
/// vector f^T_{v,t} and the static vector f^S_v into a shared C-dimensional
/// space, concatenates and fuses with a final affine map. As in the paper,
/// the temporal-projection and fusion biases are *per timestep* ({b^T_t} and
/// {b^F_t}), which lets the fusion adapt to calendar position.
class FeatureFusionLayer : public nn::Module {
 public:
  FeatureFusionLayer(int64_t t_len, int64_t d_temporal, int64_t d_static,
                     int64_t channels, Rng* rng);

  /// z: [T], f_temporal: [T, D^T], f_static: [D^S]  ->  S_v: [T, C].
  /// The one-node case of ForwardNodes.
  Var Forward(const Var& z, const Var& f_temporal, const Var& f_static) const;

  /// Node-batched form over N nodes stacked along rows: z [N*T],
  /// f_temporal [N*T, D^T], f_static [N, D^S]  ->  S [N*T, C], node n in
  /// rows [n*T, (n+1)*T). Each node's rows are bitwise its Forward output.
  Var ForwardNodes(const Var& z, const Var& f_temporal,
                   const Var& f_static) const;

  int64_t channels() const { return channels_; }

 private:
  int64_t t_len_;
  int64_t d_temporal_;
  int64_t d_static_;
  int64_t channels_;
  Var w_gmv_;     ///< w^I: [1, C] projection of the scalar GMV
  Var b_gmv_;     ///< b^I: [C]
  Var w_temp_;    ///< W^T: [D^T, C]
  Var b_temp_t_;  ///< {b^T_t}: [T, C] per-timestep bias
  Var w_stat_;    ///< W^S: [D^S, C]
  Var b_stat_;    ///< b^S: [C]
  Var w_fuse_;    ///< W^F: [3C, C]
  Var b_fuse_t_;  ///< {b^F_t}: [T, C] per-timestep bias
};

}  // namespace gaia::core

#endif  // GAIA_CORE_FFL_H_
