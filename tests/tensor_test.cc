#include "tensor/tensor.h"

#include <gtest/gtest.h>

#include <cmath>

#include "obs/metrics.h"

namespace gaia {
namespace {

TEST(TensorTest, DefaultIsEmpty) {
  Tensor t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.size(), 0);
  EXPECT_EQ(t.ndim(), 0);
}

TEST(TensorTest, ZeroInitialized) {
  Tensor t({2, 3});
  EXPECT_EQ(t.size(), 6);
  for (int64_t i = 0; i < 2; ++i) {
    for (int64_t j = 0; j < 3; ++j) EXPECT_EQ(t.at(i, j), 0.0f);
  }
}

TEST(TensorTest, ConstructFromData) {
  Tensor t({2, 2}, {1, 2, 3, 4});
  EXPECT_EQ(t.at(0, 0), 1.0f);
  EXPECT_EQ(t.at(0, 1), 2.0f);
  EXPECT_EQ(t.at(1, 0), 3.0f);
  EXPECT_EQ(t.at(1, 1), 4.0f);
}

TEST(TensorDeathTest, ShapeDataMismatchAborts) {
  EXPECT_DEATH(Tensor({2, 2}, {1.0f, 2.0f}), "GAIA_CHECK failed");
}

TEST(TensorTest, FullAndOnes) {
  EXPECT_EQ(Tensor::Full({3}, 2.5f).at(1), 2.5f);
  EXPECT_EQ(Tensor::Ones({2, 2}).at(1, 1), 1.0f);
}

TEST(TensorTest, EyeIsIdentity) {
  Tensor eye = Tensor::Eye(3);
  for (int64_t i = 0; i < 3; ++i) {
    for (int64_t j = 0; j < 3; ++j) {
      EXPECT_EQ(eye.at(i, j), i == j ? 1.0f : 0.0f);
    }
  }
}

TEST(TensorTest, RandnIsDeterministicGivenSeed) {
  Rng a(4), b(4);
  Tensor x = Tensor::Randn({4, 4}, &a);
  Tensor y = Tensor::Randn({4, 4}, &b);
  EXPECT_TRUE(AllClose(x, y, 0.0f));
}

TEST(TensorTest, RandUniformRespectsBounds) {
  Rng rng(5);
  Tensor t = Tensor::RandUniform({100}, &rng, -0.25f, 0.25f);
  EXPECT_GE(t.Min(), -0.25f);
  EXPECT_LT(t.Max(), 0.25f);
}

TEST(TensorTest, ThreeDimIndexing) {
  Tensor t({2, 3, 4});
  t.at(1, 2, 3) = 9.0f;
  EXPECT_EQ(t.at(1, 2, 3), 9.0f);
  EXPECT_EQ(t.data()[1 * 12 + 2 * 4 + 3], 9.0f);
}

TEST(TensorDeathTest, OutOfBoundsAborts) {
  Tensor t({2, 2});
  EXPECT_DEATH(t.at(2, 0), "GAIA_CHECK failed");
  EXPECT_DEATH(t.at(0, -1), "GAIA_CHECK failed");
  EXPECT_DEATH(t.at(5), "GAIA_CHECK failed");  // wrong arity
}

TEST(TensorTest, ReshapePreservesData) {
  Tensor t({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor r = t.Reshape({3, 2});
  EXPECT_EQ(r.at(0, 0), 1.0f);
  EXPECT_EQ(r.at(2, 1), 6.0f);
}

TEST(TensorDeathTest, ReshapeSizeMismatchAborts) {
  Tensor t({2, 3});
  EXPECT_DEATH(t.Reshape({4, 2}), "GAIA_CHECK failed");
}

TEST(TensorTest, ShapeString) {
  EXPECT_EQ(Tensor({24, 32}).ShapeString(), "[24, 32]");
  EXPECT_EQ(Tensor({5}).ShapeString(), "[5]");
}

TEST(TensorTest, FillScaleAccumulate) {
  Tensor t({2, 2});
  t.Fill(2.0f);
  t.Scale(3.0f);
  EXPECT_EQ(t.at(1, 1), 6.0f);
  Tensor u = Tensor::Ones({2, 2});
  t.Accumulate(u);
  EXPECT_EQ(t.at(0, 0), 7.0f);
}

TEST(TensorTest, Reductions) {
  Tensor t({4}, {1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(t.Sum(), 10.0);
  EXPECT_DOUBLE_EQ(t.Mean(), 2.5);
  EXPECT_EQ(t.Max(), 4.0f);
  EXPECT_EQ(t.Min(), 1.0f);
  EXPECT_NEAR(t.Norm(), std::sqrt(30.0), 1e-9);
}

TEST(TensorTest, AllFiniteDetectsNanAndInf) {
  Tensor t({2}, {1.0f, 2.0f});
  EXPECT_TRUE(t.AllFinite());
  t.at(0) = std::numeric_limits<float>::quiet_NaN();
  EXPECT_FALSE(t.AllFinite());
  t.at(0) = std::numeric_limits<float>::infinity();
  EXPECT_FALSE(t.AllFinite());
}

TEST(TensorTest, ElementwiseArithmetic) {
  Tensor a({2}, {1, 2});
  Tensor b({2}, {3, 5});
  EXPECT_TRUE(AllClose(a + b, Tensor({2}, {4, 7})));
  EXPECT_TRUE(AllClose(b - a, Tensor({2}, {2, 3})));
  EXPECT_TRUE(AllClose(a * b, Tensor({2}, {3, 10})));
  EXPECT_TRUE(AllClose(b / a, Tensor({2}, {3, 2.5f})));
}

TEST(TensorTest, ScalarArithmetic) {
  Tensor a({2}, {1, 2});
  EXPECT_TRUE(AllClose(a + 1.0f, Tensor({2}, {2, 3})));
  EXPECT_TRUE(AllClose(a - 1.0f, Tensor({2}, {0, 1})));
  EXPECT_TRUE(AllClose(a * 2.0f, Tensor({2}, {2, 4})));
  EXPECT_TRUE(AllClose(2.0f * a, Tensor({2}, {2, 4})));
}

TEST(TensorDeathTest, ShapeMismatchedArithmeticAborts) {
  Tensor a({2});
  Tensor b({3});
  EXPECT_DEATH(a + b, "GAIA_CHECK failed");
}

TEST(TensorTest, AllCloseToleratesSmallDifferences) {
  Tensor a({2}, {1.0f, 2.0f});
  Tensor b({2}, {1.0f + 5e-6f, 2.0f});
  EXPECT_TRUE(AllClose(a, b, 1e-5f));
  EXPECT_FALSE(AllClose(a, b, 1e-7f));
  EXPECT_FALSE(AllClose(a, Tensor({3})));
}

TEST(TensorTest, ToStringTruncates) {
  Tensor t({100});
  const std::string s = t.ToString(4);
  EXPECT_NE(s.find("..."), std::string::npos);
}

TEST(TensorTest, ShapeConstructionFeedsAllocCountersOnlyWhenObsIsOn) {
  const obs::Level saved_level = obs::CurrentLevel();
  auto& registry = obs::MetricsRegistry::Global();
  auto& tensors = registry.GetCounter("gaia_alloc_tensors_total");
  auto& bytes = registry.GetCounter("gaia_alloc_bytes_total");

  obs::SetLevel(obs::Level::kOn);
  uint64_t tensors_before = tensors.value();
  uint64_t bytes_before = bytes.value();
  Tensor counted({3, 4});
  EXPECT_EQ(tensors.value() - tensors_before, 1u);
  EXPECT_EQ(bytes.value() - bytes_before, 48u);

  obs::SetLevel(obs::Level::kOff);
  tensors_before = tensors.value();
  bytes_before = bytes.value();
  Tensor uncounted({3, 4});
  EXPECT_EQ(tensors.value(), tensors_before);
  EXPECT_EQ(bytes.value(), bytes_before);

  obs::SetLevel(saved_level);
}

}  // namespace
}  // namespace gaia
