#include "optim/lr_schedule.h"

#include <algorithm>
#include <cmath>

namespace gaia::optim {

namespace {
constexpr double kPi = 3.14159265358979323846;
}  // namespace

float CosineDecayLr::LearningRate(int step, int total_steps) const {
  if (total_steps <= 1) return peak_;
  const double progress = std::clamp(
      static_cast<double>(step) / (total_steps - 1), 0.0, 1.0);
  const double amplitude = peak_ - floor_;
  return static_cast<float>(floor_ +
                            amplitude * 0.5 * (1.0 + std::cos(progress * kPi)));
}

}  // namespace gaia::optim
