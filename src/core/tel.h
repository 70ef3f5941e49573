#ifndef GAIA_CORE_TEL_H_
#define GAIA_CORE_TEL_H_

#include <memory>
#include <vector>

#include "nn/layers.h"
#include "nn/module.h"

namespace gaia::core {

using autograd::Var;

/// \brief Temporal Embedding Layer (paper §IV-B, Eq. 5-7).
///
/// Two coupled banks of multi-scale temporal convolutions: the *capture*
/// bank extracts temporal patterns, the *denoise* bank gates them. Bank k
/// uses C/K kernels of width 2^k (k = 1..K) with zero "same" padding; bank
/// outputs are concatenated back to C channels and combined as
/// E = ReLU(S^C) ⊙ Sigmoid(S^D).
///
/// `single_kernel` reproduces the paper's "w/o TEL" ablation: one {4 x C; C}
/// convolution per bank instead of the kernel group.
class TemporalEmbeddingLayer : public nn::Module {
 public:
  TemporalEmbeddingLayer(int64_t channels, int64_t num_groups, Rng* rng,
                         bool single_kernel = false);

  /// S: [T, C] -> E: [T, C]. With `num_nodes` > 1, S holds that many
  /// node sequences stacked along rows ([N*T, C]) and each bank runs once
  /// over all of them; every node's rows are bitwise its one-node output.
  Var Forward(const Var& s, int64_t num_nodes = 1) const;

  int64_t num_groups() const { return num_groups_; }

 private:
  int64_t channels_;
  int64_t num_groups_;
  std::vector<std::shared_ptr<nn::Conv1dLayer>> capture_;
  std::vector<std::shared_ptr<nn::Conv1dLayer>> denoise_;
};

}  // namespace gaia::core

#endif  // GAIA_CORE_TEL_H_
