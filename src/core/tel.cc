#include "core/tel.h"

#include <string>

#include "obs/obs.h"
#include "util/cancel.h"
#include "util/check.h"

namespace gaia::core {

namespace ag = autograd;

TemporalEmbeddingLayer::TemporalEmbeddingLayer(int64_t channels,
                                               int64_t num_groups, Rng* rng,
                                               bool single_kernel)
    : channels_(channels), num_groups_(single_kernel ? 1 : num_groups) {
  if (single_kernel) {
    // Ablation: one {4 x C; C} kernel per bank (paper §V-B2).
    capture_.push_back(AddModule(
        "capture0", std::make_shared<nn::Conv1dLayer>(
                        channels, channels, /*kernel=*/4, PadMode::kSame, rng)));
    denoise_.push_back(AddModule(
        "denoise0", std::make_shared<nn::Conv1dLayer>(
                        channels, channels, /*kernel=*/4, PadMode::kSame, rng)));
    return;
  }
  GAIA_CHECK_GT(num_groups, 0);
  GAIA_CHECK_EQ(channels % num_groups, 0)
      << "channels must divide evenly into kernel groups";
  const int64_t per_group = channels / num_groups;
  for (int64_t k = 1; k <= num_groups; ++k) {
    const int64_t width = int64_t{1} << k;  // 2, 4, 8, ...
    capture_.push_back(AddModule(
        "capture" + std::to_string(k),
        std::make_shared<nn::Conv1dLayer>(channels, per_group, width,
                                          PadMode::kSame, rng)));
    denoise_.push_back(AddModule(
        "denoise" + std::to_string(k),
        std::make_shared<nn::Conv1dLayer>(channels, per_group, width,
                                          PadMode::kSame, rng)));
  }
}

Var TemporalEmbeddingLayer::Forward(const Var& s, int64_t num_nodes) const {
  GAIA_OBS_SPAN("tel.forward");
  GAIA_CHECK_EQ(s->value.ndim(), 2);
  GAIA_CHECK_EQ(s->value.dim(1), channels_);
  // Cancelled forwards are discarded at the next checked boundary; a
  // shape-correct zero skips the convolution banks.
  if (util::CurrentCancelled()) {
    return ag::Constant(Tensor({s->value.dim(0), channels_}));
  }
  std::vector<Var> capture_parts, denoise_parts;
  capture_parts.reserve(capture_.size());
  denoise_parts.reserve(denoise_.size());
  for (const auto& conv : capture_) {
    capture_parts.push_back(conv->Forward(s, num_nodes));
  }
  for (const auto& conv : denoise_) {
    denoise_parts.push_back(conv->Forward(s, num_nodes));
  }
  Var s_capture = capture_parts.size() == 1 ? capture_parts[0]
                                            : ag::ConcatCols(capture_parts);
  Var s_denoise = denoise_parts.size() == 1 ? denoise_parts[0]
                                            : ag::ConcatCols(denoise_parts);
  // Eq. 7: gated combination.
  return ag::Mul(ag::Relu(s_capture), ag::Sigmoid(s_denoise));
}

}  // namespace gaia::core
