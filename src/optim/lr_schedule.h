#ifndef GAIA_OPTIM_LR_SCHEDULE_H_
#define GAIA_OPTIM_LR_SCHEDULE_H_

namespace gaia::optim {

/// Half-cosine decay from `peak` to `floor` across the run — the default
/// trainer schedule (damps late-training oscillation in attention models).
/// Steps are 0-based; a run of total_steps <= 1 stays at `peak`.
class CosineDecayLr {
 public:
  CosineDecayLr(float peak, float floor) : peak_(peak), floor_(floor) {}
  float LearningRate(int step, int total_steps) const;

 private:
  float peak_;
  float floor_;
};

}  // namespace gaia::optim

#endif  // GAIA_OPTIM_LR_SCHEDULE_H_
