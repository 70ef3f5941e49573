// Property-style parameterized sweep over the 1-D convolution configuration
// space: every (kernel width, dilation, padding mode, channel combo) must
// (a) preserve sequence length, (b) keep causality when causal, and
// (c) have analytic gradients that match finite differences.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <ostream>
#include <string>
#include <tuple>

#include "autograd/grad_check.h"
#include "autograd/ops.h"
#include "core/cau.h"
#include "tensor/tensor_ops.h"

namespace gaia {
namespace {

namespace ag = autograd;
using ag::Var;

struct ConvCase {
  int64_t kernel;
  int64_t dilation;
  PadMode mode;
  int64_t c_in;
  int64_t c_out;
};

std::string ConvCaseName(const ConvCase& c) {
  return "k" + std::to_string(c.kernel) + "_d" + std::to_string(c.dilation) +
         (c.mode == PadMode::kCausal ? "_causal" : "_same") + "_ci" +
         std::to_string(c.c_in) + "_co" + std::to_string(c.c_out);
}

// Without this gtest prints the parameter as its raw bytes (padding
// included), which leaks into the ctest names.
void PrintTo(const ConvCase& c, std::ostream* os) { *os << ConvCaseName(c); }

class ConvPropertyTest : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvPropertyTest, PreservesSequenceLength) {
  const ConvCase& c = GetParam();
  Rng rng(1);
  const int64_t t_len = 12;
  Tensor input = Tensor::Randn({t_len, c.c_in}, &rng);
  Tensor weight = Tensor::Randn({c.c_out, c.kernel, c.c_in}, &rng);
  Tensor out = Conv1d(input, weight, Tensor(), c.mode, c.dilation);
  EXPECT_EQ(out.dim(0), t_len);
  EXPECT_EQ(out.dim(1), c.c_out);
  EXPECT_TRUE(out.AllFinite());
}

TEST_P(ConvPropertyTest, CausalModeNeverReadsFuture) {
  const ConvCase& c = GetParam();
  if (c.mode != PadMode::kCausal) GTEST_SKIP();
  Rng rng(2);
  const int64_t t_len = 12;
  Tensor input = Tensor::Randn({t_len, c.c_in}, &rng);
  Tensor weight = Tensor::Randn({c.c_out, c.kernel, c.c_in}, &rng);
  Tensor base = Conv1d(input, weight, Tensor(), c.mode, c.dilation);
  for (int64_t t_perturb : {t_len - 1, t_len / 2}) {
    Tensor perturbed = input;
    for (int64_t ch = 0; ch < c.c_in; ++ch) {
      perturbed.at(t_perturb, ch) += 100.0f;
    }
    Tensor out = Conv1d(perturbed, weight, Tensor(), c.mode, c.dilation);
    for (int64_t t = 0; t < t_perturb; ++t) {
      for (int64_t o = 0; o < c.c_out; ++o) {
        ASSERT_EQ(out.at(t, o), base.at(t, o))
            << "future leak at t=" << t << " after perturbing " << t_perturb;
      }
    }
  }
}

TEST_P(ConvPropertyTest, GradientsMatchFiniteDifferences) {
  const ConvCase& c = GetParam();
  Rng rng(3);
  const int64_t t_len = 9;
  std::vector<Var> params = {
      ag::Parameter(Tensor::Randn({t_len, c.c_in}, &rng, 0.5f)),
      ag::Parameter(Tensor::Randn({c.c_out, c.kernel, c.c_in}, &rng, 0.5f)),
      ag::Parameter(Tensor::Randn({c.c_out}, &rng, 0.5f))};
  auto build = [&](const std::vector<Var>& p) {
    Var out = ag::Conv1d(p[0], p[1], p[2], c.mode, c.dilation);
    return ag::SumAll(ag::Mul(out, out));
  };
  auto result = ag::CheckGradients(build, params);
  EXPECT_TRUE(result.ok) << result.detail;
}

std::vector<ConvCase> MakeConvCases() {
  std::vector<ConvCase> cases;
  for (int64_t kernel : {1, 2, 3, 5}) {
    for (int64_t dilation : {1, 2}) {
      for (PadMode mode : {PadMode::kSame, PadMode::kCausal}) {
        cases.push_back(ConvCase{kernel, dilation, mode, 2, 3});
      }
    }
  }
  cases.push_back(ConvCase{3, 4, PadMode::kCausal, 1, 1});  // extreme dilation
  cases.push_back(ConvCase{4, 1, PadMode::kSame, 4, 2});    // even width
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ConvPropertyTest, ::testing::ValuesIn(MakeConvCases()),
    [](const ::testing::TestParamInfo<ConvCase>& info) {
      return ConvCaseName(info.param);
    });

// ---------------------------------------------------------------------------
// Softmax property sweep over row/column sizes.
// ---------------------------------------------------------------------------

class SoftmaxPropertyTest
    : public ::testing::TestWithParam<std::tuple<int64_t, int64_t>> {};

TEST_P(SoftmaxPropertyTest, RowsAreDistributions) {
  const auto [rows, cols] = GetParam();
  Rng rng(static_cast<uint64_t>(rows * 31 + cols));
  Tensor logits = Tensor::Randn({rows, cols}, &rng, 5.0f);
  Tensor probs = SoftmaxRows(logits);
  for (int64_t i = 0; i < rows; ++i) {
    double sum = 0.0;
    float max_p = 0.0f;
    int64_t argmax_p = 0, argmax_l = 0;
    float max_l = -1e30f;
    for (int64_t j = 0; j < cols; ++j) {
      EXPECT_GE(probs.at(i, j), 0.0f);
      sum += probs.at(i, j);
      if (probs.at(i, j) > max_p) {
        max_p = probs.at(i, j);
        argmax_p = j;
      }
      if (logits.at(i, j) > max_l) {
        max_l = logits.at(i, j);
        argmax_l = j;
      }
    }
    EXPECT_NEAR(sum, 1.0, 1e-5);
    EXPECT_EQ(argmax_p, argmax_l);  // order preserved
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SoftmaxPropertyTest,
                         ::testing::Combine(::testing::Values<int64_t>(1, 3,
                                                                       24),
                                            ::testing::Values<int64_t>(1, 7,
                                                                       24)));

// ---------------------------------------------------------------------------
// ConvAttentionUnit properties, parameterized over the head count.
// ---------------------------------------------------------------------------

class CauHeadsTest : public ::testing::TestWithParam<int64_t> {};

// The multi-head path (SliceCols / per-head softmax / ConcatCols) has its own
// backward composition; finite differences must agree through the full CAU
// for both the unit's parameters and the node representations.
TEST_P(CauHeadsTest, MultiHeadGradientsMatchFiniteDifferences) {
  const int64_t heads = GetParam();
  Rng rng(41);
  const int64_t t_len = 6, c = 4;
  core::ConvAttentionUnit cau(c, &rng, /*dense_projections=*/false,
                              /*causal=*/true, heads);
  Var h_u = ag::Parameter(Tensor::Randn({t_len, c}, &rng, 0.5f));
  Var h_v = ag::Parameter(Tensor::Randn({t_len, c}, &rng, 0.5f));
  std::vector<Var> params = cau.Parameters();
  params.push_back(h_u);
  params.push_back(h_v);
  auto build = [&](const std::vector<Var>&) {
    Var out = cau.Forward(h_u, h_v);
    return ag::SumAll(ag::Mul(out, out));
  };
  auto result = ag::CheckGradients(build, params);
  EXPECT_TRUE(result.ok) << result.detail;
}

// Causal property of the whole unit: since Q/K/V projections are causal
// convolutions and the mask kills rightward attention, the output at t is a
// function of inputs at <= t only. Perturbing timestamps >= t_perturb (on
// both endpoints of the edge) must leave every earlier row untouched.
TEST_P(CauHeadsTest, CausalMaskBlocksFutureInfluence) {
  const int64_t heads = GetParam();
  const int64_t t_len = 10, c = 4;
  Rng rng(51);
  core::ConvAttentionUnit cau(c, &rng, /*dense_projections=*/false,
                              /*causal=*/true, heads);
  Rng data_rng(52);
  Tensor h_u = Tensor::Randn({t_len, c}, &data_rng);
  Tensor h_v = Tensor::Randn({t_len, c}, &data_rng);
  Tensor base = cau.Forward(ag::Constant(h_u), ag::Constant(h_v))->value;
  for (int64_t t_perturb : {t_len - 1, t_len - 4}) {
    Tensor pu = h_u, pv = h_v;
    for (int64_t t = t_perturb; t < t_len; ++t) {
      for (int64_t ch = 0; ch < c; ++ch) {
        pu.at(t, ch) += 50.0f;
        pv.at(t, ch) -= 50.0f;
      }
    }
    Tensor out = cau.Forward(ag::Constant(pu), ag::Constant(pv))->value;
    for (int64_t t = 0; t < t_perturb; ++t) {
      for (int64_t ch = 0; ch < c; ++ch) {
        ASSERT_FLOAT_EQ(out.at(t, ch), base.at(t, ch))
            << "future leak at t=" << t << " after perturbing >= " << t_perturb
            << " with " << heads << " heads";
      }
    }
  }
}

// Control for the property above: with the mask disabled (the w/o-causal
// ablation) the same perturbation *must* reach earlier rows through the
// attention weights — otherwise the previous test proves nothing.
TEST_P(CauHeadsTest, NonCausalAttentionSeesFuturePerturbations) {
  const int64_t heads = GetParam();
  const int64_t t_len = 10, c = 4;
  Rng rng(51);
  core::ConvAttentionUnit cau(c, &rng, /*dense_projections=*/false,
                              /*causal=*/false, heads);
  Rng data_rng(52);
  Tensor h_u = Tensor::Randn({t_len, c}, &data_rng);
  Tensor h_v = Tensor::Randn({t_len, c}, &data_rng);
  Tensor base = cau.Forward(ag::Constant(h_u), ag::Constant(h_v))->value;
  const int64_t t_perturb = t_len - 2;
  Tensor pv = h_v;
  for (int64_t t = t_perturb; t < t_len; ++t) {
    for (int64_t ch = 0; ch < c; ++ch) pv.at(t, ch) += 50.0f;
  }
  Tensor out = cau.Forward(ag::Constant(h_u), ag::Constant(pv))->value;
  float max_diff = 0.0f;
  for (int64_t t = 0; t < t_perturb; ++t) {
    for (int64_t ch = 0; ch < c; ++ch) {
      max_diff = std::max(max_diff, std::fabs(out.at(t, ch) - base.at(t, ch)));
    }
  }
  EXPECT_GT(max_diff, 1e-6f)
      << "unmasked attention should leak the future into earlier rows";
}

INSTANTIATE_TEST_SUITE_P(Heads, CauHeadsTest,
                         ::testing::Values<int64_t>(1, 2, 4),
                         [](const ::testing::TestParamInfo<int64_t>& info) {
                           return "h" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace gaia
