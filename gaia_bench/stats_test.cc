#include "stats.h"

#include <gtest/gtest.h>

#include <vector>

namespace gaia::bench {
namespace {

std::vector<double> Ramp(int n) {
  std::vector<double> samples;
  // Reverse order: TailQuantile must sort its input.
  for (int i = n; i >= 1; --i) samples.push_back(i);
  return samples;
}

TEST(TailQuantileTest, PicksHighestLevelWithTenBeyond) {
  // 10000 samples: p99.9 has exactly 10 ranked after it.
  Tail tail = TailQuantile(Ramp(10000));
  EXPECT_DOUBLE_EQ(tail.level, 0.999);
  EXPECT_EQ(tail.beyond, 10);
  EXPECT_DOUBLE_EQ(tail.value, 9990.0);

  // 9999 samples leave only 9 beyond p99.9, so p99 is the highest supported.
  tail = TailQuantile(Ramp(9999));
  EXPECT_DOUBLE_EQ(tail.level, 0.99);
  EXPECT_EQ(tail.beyond, 99);
}

TEST(TailQuantileTest, FallsBackThroughP95AndP90) {
  Tail tail = TailQuantile(Ramp(1000));
  EXPECT_DOUBLE_EQ(tail.level, 0.99);
  EXPECT_EQ(tail.beyond, 10);
  EXPECT_DOUBLE_EQ(tail.value, 990.0);

  tail = TailQuantile(Ramp(999));
  EXPECT_DOUBLE_EQ(tail.level, 0.95);
  EXPECT_EQ(tail.beyond, 49);

  tail = TailQuantile(Ramp(100));
  EXPECT_DOUBLE_EQ(tail.level, 0.9);
  EXPECT_EQ(tail.beyond, 10);
  EXPECT_DOUBLE_EQ(tail.value, 90.0);
}

TEST(TailQuantileTest, UnsupportedBelowOneHundredSamples) {
  EXPECT_FALSE(TailQuantile(Ramp(99)).supported());
  EXPECT_FALSE(TailQuantile({}).supported());
}

TEST(TailQuantileTest, HonoursMinBeyondAndCap) {
  EXPECT_DOUBLE_EQ(TailQuantile(Ramp(1000), 1).level, 0.999);
  EXPECT_DOUBLE_EQ(TailQuantile(Ramp(1000), 11).level, 0.95);
  const Tail capped = TailQuantile(Ramp(10000), 10, 950);
  EXPECT_DOUBLE_EQ(capped.level, 0.95);
  EXPECT_EQ(capped.beyond, 500);
}

}  // namespace
}  // namespace gaia::bench
