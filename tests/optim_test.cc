#include "optim/optimizer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "autograd/ops.h"
#include "optim/lr_schedule.h"

namespace gaia::optim {
namespace {

namespace ag = autograd;
using ag::Var;

/// Minimizes f(x) = ||x - target||^2 with the given optimizer; returns the
/// final distance to the optimum.
template <typename MakeOpt>
double MinimizeQuadratic(MakeOpt make_opt, int steps) {
  Var x = ag::Parameter(Tensor({3}, {5.0f, -4.0f, 2.0f}));
  Tensor target({3}, {1.0f, 1.0f, 1.0f});
  auto opt = make_opt(std::vector<Var>{x});
  for (int i = 0; i < steps; ++i) {
    opt->ZeroGrad();
    Var loss = ag::MseLoss(x, target);
    ag::Backward(loss);
    opt->Step();
  }
  double dist = 0.0;
  for (int64_t j = 0; j < 3; ++j) {
    const double d = x->value.at(j) - target.at(j);
    dist += d * d;
  }
  return std::sqrt(dist);
}

TEST(SgdTest, ConvergesOnQuadratic) {
  const double dist = MinimizeQuadratic(
      [](std::vector<Var> p) {
        return std::make_unique<Sgd>(std::move(p), 0.1f);
      },
      200);
  EXPECT_LT(dist, 1e-3);
}

TEST(SgdTest, MomentumAcceleratesConvergence) {
  const double plain = MinimizeQuadratic(
      [](std::vector<Var> p) {
        return std::make_unique<Sgd>(std::move(p), 0.02f);
      },
      50);
  const double momentum = MinimizeQuadratic(
      [](std::vector<Var> p) {
        return std::make_unique<Sgd>(std::move(p), 0.02f, 0.9f);
      },
      50);
  EXPECT_LT(momentum, plain);
}

TEST(AdamTest, ConvergesOnQuadratic) {
  const double dist = MinimizeQuadratic(
      [](std::vector<Var> p) {
        return std::make_unique<Adam>(std::move(p), 0.1f);
      },
      300);
  EXPECT_LT(dist, 1e-2);
}

TEST(AdamTest, StepCountAdvances) {
  Var x = ag::Parameter(Tensor({1}, {1.0f}));
  Adam adam({x}, 0.01f);
  EXPECT_EQ(adam.step_count(), 0);
  x->AccumulateGrad(Tensor({1}, {1.0f}));
  adam.Step();
  adam.Step();
  EXPECT_EQ(adam.step_count(), 2);
}

TEST(AdamTest, WeightDecayShrinksParameters) {
  Var x = ag::Parameter(Tensor({1}, {10.0f}));
  Adam adam({x}, 0.1f, 0.9f, 0.999f, 1e-8f, /*weight_decay=*/1.0f);
  for (int i = 0; i < 100; ++i) {
    adam.ZeroGrad();
    x->AccumulateGrad(Tensor({1}));  // zero task gradient
    adam.Step();
  }
  EXPECT_LT(std::fabs(x->value.at(0)), 5.0f);
}

TEST(AdamTest, SkipsParametersWithoutGradients) {
  Var x = ag::Parameter(Tensor({2}, {1.0f, 2.0f}));
  Adam adam({x}, 0.5f);
  adam.Step();  // no gradient accumulated yet
  EXPECT_FLOAT_EQ(x->value.at(0), 1.0f);
  EXPECT_FLOAT_EQ(x->value.at(1), 2.0f);
}

TEST(ClipGradNormTest, RescalesLargeGradients) {
  Var x = ag::Parameter(Tensor({2}, {0.0f, 0.0f}));
  x->AccumulateGrad(Tensor({2}, {3.0f, 4.0f}));  // norm 5
  const double pre = ClipGradNorm({x}, 1.0);
  EXPECT_NEAR(pre, 5.0, 1e-6);
  EXPECT_NEAR(x->grad.Norm(), 1.0, 1e-5);
  // Direction preserved.
  EXPECT_NEAR(x->grad.at(0) / x->grad.at(1), 0.75, 1e-5);
}

TEST(ClipGradNormTest, LeavesSmallGradientsAlone) {
  Var x = ag::Parameter(Tensor({2}));
  x->AccumulateGrad(Tensor({2}, {0.1f, 0.1f}));
  ClipGradNorm({x}, 10.0);
  EXPECT_FLOAT_EQ(x->grad.at(0), 0.1f);
}

TEST(EarlyStoppingTest, StopsAfterPatienceExhausted) {
  EarlyStopping stopper(2);
  EXPECT_FALSE(stopper.Update(1.0));   // best
  EXPECT_FALSE(stopper.Update(0.5));   // improves
  EXPECT_FALSE(stopper.Update(0.6));   // bad 1
  EXPECT_TRUE(stopper.Update(0.7));    // bad 2 -> stop
  EXPECT_DOUBLE_EQ(stopper.best(), 0.5);
}

TEST(EarlyStoppingTest, ImprovementResetsCounter) {
  EarlyStopping stopper(2);
  stopper.Update(1.0);
  stopper.Update(1.1);              // bad 1
  EXPECT_FALSE(stopper.Update(0.9));  // improvement resets
  EXPECT_EQ(stopper.bad_epochs(), 0);
}

TEST(EarlyStoppingTest, MinDeltaCountsTinyImprovementsAsBad) {
  EarlyStopping stopper(1, /*min_delta=*/0.1);
  stopper.Update(1.0);
  EXPECT_TRUE(stopper.Update(0.95));  // within min_delta -> bad -> stop
}

// ---------------------------------------------------------------------------
// Learning-rate schedules
// ---------------------------------------------------------------------------

TEST(LrScheduleTest, CosineDecayEndpointsAndMonotonicity) {
  CosineDecayLr schedule(1.0f, 0.1f);
  EXPECT_FLOAT_EQ(schedule.LearningRate(0, 50), 1.0f);
  EXPECT_NEAR(schedule.LearningRate(49, 50), 0.1f, 1e-6);
  float prev = 2.0f;
  for (int step = 0; step < 50; ++step) {
    const float lr = schedule.LearningRate(step, 50);
    EXPECT_LE(lr, prev);
    prev = lr;
  }
}

TEST(LrScheduleTest, CosineDegenerateRunLength) {
  CosineDecayLr schedule(0.5f, 0.05f);
  EXPECT_FLOAT_EQ(schedule.LearningRate(0, 1), 0.5f);
}

}  // namespace
}  // namespace gaia::optim
