// Packed-vs-naive MatMul equivalence: the kernel gate that the perf CI leg
// (`ctest -L perf`) runs before it trusts any benchmark win. A fast kernel
// that changes a single bit must fail here, not pass the bench gate.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace gaia {
namespace {

Tensor RandomNonZero(std::vector<int64_t> shape, Rng* rng) {
  // Strictly non-zero entries: the naive kernel's zero-skip is the one spot
  // where its accumulation chain could diverge from the packed kernel's (a
  // skipped +0.0 vs an added -0.0), so the equivalence property is stated
  // over zero-free operands.
  Tensor t = Tensor::RandUniform(std::move(shape), rng, 0.25f, 1.0f);
  Tensor sign = Tensor::RandUniform(t.shape(), rng, -1.0f, 1.0f);
  for (int64_t i = 0; i < t.size(); ++i) {
    if (sign.data()[i] < 0.0f) t.data()[i] = -t.data()[i];
  }
  return t;
}

void ExpectExactlyEqual(const Tensor& a, const Tensor& b,
                        const std::string& what) {
  ASSERT_TRUE(a.SameShape(b)) << what;
  ASSERT_EQ(std::memcmp(a.data(), b.data(),
                        static_cast<size_t>(a.size()) * sizeof(float)),
            0)
      << what << ": packed and naive kernels diverged bitwise";
}

TEST(MatMulEquivalenceTest, PackedMatchesNaiveExactlyOverRandomShapes) {
  Rng rng(99);
  // Deliberate edge coverage: sub-tile dims, exact tile multiples, one-off
  // remainders, k crossing the KC=128 block boundary, m crossing MC=128.
  const std::vector<std::vector<int64_t>> shapes = {
      {1, 1, 1},     {3, 5, 7},     {8, 8, 8},     {7, 9, 16},
      {16, 16, 16},  {24, 130, 24}, {64, 64, 64},  {65, 127, 63},
      {128, 128, 8}, {130, 257, 9}, {33, 300, 65}, {256, 96, 40},
  };
  for (const auto& s : shapes) {
    const int64_t m = s[0], k = s[1], n = s[2];
    Tensor a = RandomNonZero({m, k}, &rng);
    Tensor b = RandomNonZero({k, n}, &rng);
    const std::string what = "m=" + std::to_string(m) + " k=" +
                             std::to_string(k) + " n=" + std::to_string(n);
    Tensor naive = MatMulNaive(a, b);
    Tensor packed = MatMulPacked(a, b);
    ExpectExactlyEqual(naive, packed, what);
    // The public entry point dispatches to one of the two; either way the
    // result must be the same bits.
    ExpectExactlyEqual(naive, MatMul(a, b), what + " (dispatch)");
  }
}

TEST(MatMulEquivalenceTest, PackedIsThreadCountInvariant) {
  Rng rng(7);
  Tensor a = RandomNonZero({130, 257}, &rng);
  Tensor b = RandomNonZero({257, 96}, &rng);
  util::ThreadPool::SetGlobalThreads(1);
  Tensor serial = MatMulPacked(a, b);
  util::ThreadPool::SetGlobalThreads(4);
  Tensor parallel = MatMulPacked(a, b);
  util::ThreadPool::SetGlobalThreads(util::ThreadPool::DefaultThreads());
  ExpectExactlyEqual(serial, parallel, "1 thread vs 4 threads");
}

}  // namespace
}  // namespace gaia
