#include "tensor/tensor_ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#if defined(__AVX__)
#include <immintrin.h>
#endif

#include "util/check.h"
#include "util/compiler.h"
#include "util/thread_pool.h"

namespace gaia {

namespace {

/// Approximate per-chunk work (in scalar ops) for the parallel kernels.
/// Anything smaller than one chunk runs serially — parallel dispatch costs a
/// few microseconds, so only tensors well past cache size benefit. Chunk
/// boundaries depend on shape only (never thread count), and every output
/// row/element is produced by the same serial inner loop either way, so the
/// parallel kernels are bitwise identical to the serial ones.
constexpr int64_t kGrainWork = int64_t{1} << 15;

/// Splits [0, rows) into chunks carrying ~kGrainWork of `work_per_row` each
/// and runs them on the global pool (inline when one chunk suffices).
template <typename Body>
void ParallelRows(int64_t rows, int64_t work_per_row, const Body& body) {
  const int64_t grain =
      std::max<int64_t>(1, kGrainWork / std::max<int64_t>(1, work_per_row));
  util::ParallelForRange(rows, grain, body);
}

template <typename Fn>
Tensor Map(const Tensor& a, Fn fn) {
  Tensor out(a.shape());
  const float* GAIA_RESTRICT pa = a.data();
  float* GAIA_RESTRICT po = out.data();
  ParallelRows(a.size(), 1, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) po[i] = fn(pa[i]);
  });
  return out;
}

/// Leftmost input offset covered by kernel tap 0 for output position 0.
int64_t PadLeft(int64_t kernel_size, PadMode mode, int64_t dilation) {
  int64_t span = (kernel_size - 1) * dilation;
  return mode == PadMode::kCausal ? span : span / 2;
}

// ---------------------------------------------------------------------------
// Packed GEMM (design notes in docs/PERFORMANCE.md)
// ---------------------------------------------------------------------------

constexpr int64_t kMR = 8;    ///< micro-tile rows (A panel width)
constexpr int64_t kNR = 8;    ///< micro-tile cols (B panel width)
constexpr int64_t kKC = 128;  ///< k-dimension cache block (panel depth)
constexpr int64_t kMC = 128;  ///< row cache block; one parallel task each

/// Dispatch floor: below this m*k*n (or with a thin k/n), packing overhead
/// beats the cache win and MatMul stays on the naive kernel — which also
/// keeps the golden tests' small matrices on their historical code path.
/// Measured on an AVX2 host: packed/naive crossover is below 32^3 for
/// square-ish shapes (32^3 ratio 1.85x, 48^3 2.1x, 64^3 2.0x) but thin
/// operands (k or n < 16) waste most of each 8-wide panel, so they stay
/// naive regardless of volume.
constexpr int64_t kPackedMinWork = int64_t{1} << 15;
constexpr int64_t kPackedMinDim = 16;

int64_t CeilDiv(int64_t a, int64_t b) { return (a + b - 1) / b; }

/// Thread-local packing scratch, reused across calls. B is packed once per
/// call by the calling thread (workers read it in place — ParallelForRange
/// blocks, so the buffer outlives them); each worker packs A tiles into its
/// own scratch.
thread_local std::vector<float> tl_pack_a;
thread_local std::vector<float> tl_pack_b;

/// Packs all of B [k, n] into panel-major form: for each KC block of rows,
/// for each NR-panel of columns, `kc` rows of kNR contiguous values,
/// zero-padded on the right edge. The panel for (k0, j0) starts at
/// k0 * padded_n + (j0 / kNR) * kc * kNR.
void PackB(const float* GAIA_RESTRICT b, int64_t k, int64_t n,
           float* GAIA_RESTRICT out) {
  int64_t offset = 0;
  for (int64_t k0 = 0; k0 < k; k0 += kKC) {
    const int64_t kc = std::min(kKC, k - k0);
    for (int64_t j0 = 0; j0 < n; j0 += kNR) {
      const int64_t nr = std::min(kNR, n - j0);
      for (int64_t kk = 0; kk < kc; ++kk) {
        const float* GAIA_RESTRICT row = b + (k0 + kk) * n + j0;
        float* GAIA_RESTRICT dst = out + offset + kk * kNR;
        for (int64_t j = 0; j < nr; ++j) dst[j] = row[j];
        for (int64_t j = nr; j < kNR; ++j) dst[j] = 0.0f;
      }
      offset += kc * kNR;
    }
  }
}

/// Packs the A block rows [i0, i0+mc) x cols [k0, k0+kc) into MR-row panels,
/// k-major within a panel (out[panel][kk][row]), zero-padding the bottom
/// edge. Strided column loads happen once here; the micro-kernel then reads
/// A purely sequentially.
void PackA(const float* GAIA_RESTRICT a, int64_t lda, int64_t i0, int64_t mc,
           int64_t k0, int64_t kc, float* GAIA_RESTRICT out) {
  int64_t offset = 0;
  for (int64_t r0 = 0; r0 < mc; r0 += kMR) {
    const int64_t mr = std::min(kMR, mc - r0);
    for (int64_t kk = 0; kk < kc; ++kk) {
      const float* GAIA_RESTRICT col = a + (i0 + r0) * lda + (k0 + kk);
      float* GAIA_RESTRICT dst = out + offset + kk * kMR;
      for (int64_t rr = 0; rr < mr; ++rr) dst[rr] = col[rr * lda];
      for (int64_t rr = mr; rr < kMR; ++rr) dst[rr] = 0.0f;
    }
    offset += kc * kMR;
  }
}

/// 8x8 register-tiled micro-kernel: C += Ap * Bp over `kc` packed k-steps.
/// The C tile is loaded into registers, accumulated with k ascending, and
/// stored once — per element that is the chain ((c + a0*b0) + a1*b1) + ...,
/// exactly the naive kernel's per-element order, so packed and naive agree
/// bitwise on finite inputs (this file builds with -ffp-contract=off so FMA
/// contraction cannot perturb either side). All vector arithmetic is
/// lane-wise — no horizontal ops, no reassociation.
///
/// The accumulators are eight named GCC vector-extension values rather than
/// a float[8][8]: GCC does not reliably scalarize the 2-D array into
/// registers, and a spilled C tile costs 2x over the naive kernel. An
/// 8-lane vector op lowers to one YMM instruction under -mavx2 and to two
/// XMM instructions on baseline x86-64, with identical per-lane results.
#if defined(__GNUC__) || defined(__clang__)
#define GAIA_GEMM_VECTOR_KERNEL 1
typedef float Vec8 __attribute__((vector_size(32)));

GAIA_ALWAYS_INLINE Vec8 Load8(const float* GAIA_RESTRICT p) {
  Vec8 v;
  __builtin_memcpy(&v, p, sizeof(v));  // unaligned-safe
  return v;
}

GAIA_ALWAYS_INLINE void Store8(float* GAIA_RESTRICT p, Vec8 v) {
  __builtin_memcpy(p, &v, sizeof(v));
}

GAIA_ALWAYS_INLINE void MicroKernelFull(int64_t kc,
                                        const float* GAIA_RESTRICT ap,
                                        const float* GAIA_RESTRICT bp,
                                        float* GAIA_RESTRICT c, int64_t ldc) {
  Vec8 acc0 = Load8(c + 0 * ldc), acc1 = Load8(c + 1 * ldc);
  Vec8 acc2 = Load8(c + 2 * ldc), acc3 = Load8(c + 3 * ldc);
  Vec8 acc4 = Load8(c + 4 * ldc), acc5 = Load8(c + 5 * ldc);
  Vec8 acc6 = Load8(c + 6 * ldc), acc7 = Load8(c + 7 * ldc);
  for (int64_t kk = 0; kk < kc; ++kk) {
    const float* GAIA_RESTRICT a_col = ap + kk * kMR;
    const Vec8 b = Load8(bp + kk * kNR);
    // `vector + scalar` broadcasts the scalar across lanes.
    acc0 += (Vec8{} + a_col[0]) * b;
    acc1 += (Vec8{} + a_col[1]) * b;
    acc2 += (Vec8{} + a_col[2]) * b;
    acc3 += (Vec8{} + a_col[3]) * b;
    acc4 += (Vec8{} + a_col[4]) * b;
    acc5 += (Vec8{} + a_col[5]) * b;
    acc6 += (Vec8{} + a_col[6]) * b;
    acc7 += (Vec8{} + a_col[7]) * b;
  }
  Store8(c + 0 * ldc, acc0);
  Store8(c + 1 * ldc, acc1);
  Store8(c + 2 * ldc, acc2);
  Store8(c + 3 * ldc, acc3);
  Store8(c + 4 * ldc, acc4);
  Store8(c + 5 * ldc, acc5);
  Store8(c + 6 * ldc, acc6);
  Store8(c + 7 * ldc, acc7);
}
#else
// Portable fallback; same per-element accumulation chain.
GAIA_ALWAYS_INLINE void MicroKernelFull(int64_t kc,
                                        const float* GAIA_RESTRICT ap,
                                        const float* GAIA_RESTRICT bp,
                                        float* GAIA_RESTRICT c, int64_t ldc) {
  float acc[kMR][kNR];
  for (int64_t r = 0; r < kMR; ++r) {
    for (int64_t j = 0; j < kNR; ++j) acc[r][j] = c[r * ldc + j];
  }
  for (int64_t kk = 0; kk < kc; ++kk) {
    const float* GAIA_RESTRICT a_col = ap + kk * kMR;
    const float* GAIA_RESTRICT b_row = bp + kk * kNR;
    for (int64_t r = 0; r < kMR; ++r) {
      const float a_val = a_col[r];
      for (int64_t j = 0; j < kNR; ++j) acc[r][j] += a_val * b_row[j];
    }
  }
  for (int64_t r = 0; r < kMR; ++r) {
    for (int64_t j = 0; j < kNR; ++j) c[r * ldc + j] = acc[r][j];
  }
}
#endif

/// Edge-tile variant: runs the same constant-bound accumulation over the
/// zero-padded panels (padded lanes accumulate zeros and are never stored),
/// loading/storing only the valid mr x nr sub-tile. Valid elements see the
/// identical chain as MicroKernelFull.
void MicroKernelEdge(int64_t kc, const float* GAIA_RESTRICT ap,
                     const float* GAIA_RESTRICT bp, float* GAIA_RESTRICT c,
                     int64_t ldc, int64_t mr, int64_t nr) {
  float acc[kMR][kNR] = {};
  for (int64_t r = 0; r < mr; ++r) {
    for (int64_t j = 0; j < nr; ++j) acc[r][j] = c[r * ldc + j];
  }
  for (int64_t kk = 0; kk < kc; ++kk) {
    const float* GAIA_RESTRICT a_col = ap + kk * kMR;
    const float* GAIA_RESTRICT b_row = bp + kk * kNR;
    for (int64_t r = 0; r < kMR; ++r) {
      const float a_val = a_col[r];
      for (int64_t j = 0; j < kNR; ++j) acc[r][j] += a_val * b_row[j];
    }
  }
  for (int64_t r = 0; r < mr; ++r) {
    for (int64_t j = 0; j < nr; ++j) c[r * ldc + j] = acc[r][j];
  }
}

}  // namespace

Tensor MatMulNaive(const Tensor& a, const Tensor& b) {
  GAIA_CHECK_EQ(a.ndim(), 2);
  GAIA_CHECK_EQ(b.ndim(), 2);
  const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  GAIA_CHECK_EQ(k, b.dim(0)) << "MatMul " << a.ShapeString() << " x "
                             << b.ShapeString();
  Tensor out({m, n});
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  ParallelRows(m, k * n, [&](int64_t row_begin, int64_t row_end) {
    for (int64_t i = row_begin; i < row_end; ++i) {
      for (int64_t p = 0; p < k; ++p) {
        const float aip = pa[i * k + p];
        if (aip == 0.0f) continue;
        const float* GAIA_RESTRICT brow = pb + p * n;
        float* GAIA_RESTRICT orow = po + i * n;
        for (int64_t j = 0; j < n; ++j) orow[j] += aip * brow[j];
      }
    }
  });
  return out;
}

Tensor MatMulPacked(const Tensor& a, const Tensor& b) {
  GAIA_CHECK_EQ(a.ndim(), 2);
  GAIA_CHECK_EQ(b.ndim(), 2);
  const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  GAIA_CHECK_EQ(k, b.dim(0)) << "MatMul " << a.ShapeString() << " x "
                             << b.ShapeString();
  Tensor out({m, n});
  if (m == 0 || n == 0 || k == 0) return out;
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();

  const int64_t padded_n = CeilDiv(n, kNR) * kNR;
  std::vector<float>& bpack = tl_pack_b;
  if (static_cast<int64_t>(bpack.size()) < k * padded_n) {
    bpack.resize(static_cast<size_t>(k * padded_n));
  }
  PackB(pb, k, n, bpack.data());
  const float* bp_base = bpack.data();

  // One task per MC row block. Block boundaries depend on shape only and
  // each output element is written by exactly one task, so the result is
  // identical at any thread count.
  const int64_t row_blocks = CeilDiv(m, kMC);
  util::ParallelForRange(
      row_blocks, 1, [&](int64_t blk_begin, int64_t blk_end) {
        std::vector<float>& apack = tl_pack_a;
        if (static_cast<int64_t>(apack.size()) < kMC * kKC) {
          apack.resize(static_cast<size_t>(kMC * kKC));
        }
        for (int64_t blk = blk_begin; blk < blk_end; ++blk) {
          const int64_t i0 = blk * kMC;
          const int64_t mc = std::min(kMC, m - i0);
          for (int64_t k0 = 0; k0 < k; k0 += kKC) {
            const int64_t kc = std::min(kKC, k - k0);
            PackA(pa, k, i0, mc, k0, kc, apack.data());
            const float* bp_block = bp_base + k0 * padded_n;
            for (int64_t j0 = 0; j0 < n; j0 += kNR) {
              const int64_t nr = std::min(kNR, n - j0);
              const float* bp = bp_block + (j0 / kNR) * (kc * kNR);
              for (int64_t r0 = 0; r0 < mc; r0 += kMR) {
                const int64_t mr = std::min(kMR, mc - r0);
                const float* ap = apack.data() + (r0 / kMR) * (kc * kMR);
                float* c = po + (i0 + r0) * n + j0;
                if (mr == kMR && nr == kNR) {
                  MicroKernelFull(kc, ap, bp, c, n);
                } else {
                  MicroKernelEdge(kc, ap, bp, c, n, mr, nr);
                }
              }
            }
          }
        }
      });
  return out;
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  GAIA_CHECK_EQ(a.ndim(), 2);
  GAIA_CHECK_EQ(b.ndim(), 2);
  const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  GAIA_CHECK_EQ(k, b.dim(0)) << "MatMul " << a.ShapeString() << " x "
                             << b.ShapeString();
  // Shape-only dispatch: results at a given shape never depend on thread
  // count or any runtime state.
  if (k >= kPackedMinDim && n >= kPackedMinDim && m * k * n >= kPackedMinWork) {
    return MatMulPacked(a, b);
  }
  return MatMulNaive(a, b);
}

Tensor MatVec(const Tensor& a, const Tensor& x) {
  GAIA_CHECK_EQ(a.ndim(), 2);
  GAIA_CHECK_EQ(x.ndim(), 1);
  const int64_t m = a.dim(0), n = a.dim(1);
  GAIA_CHECK_EQ(n, x.dim(0));
  Tensor out({m});
  for (int64_t i = 0; i < m; ++i) {
    double acc = 0.0;
    for (int64_t j = 0; j < n; ++j) acc += a.data()[i * n + j] * x.data()[j];
    out.at(i) = static_cast<float>(acc);
  }
  return out;
}

float Dot(const Tensor& a, const Tensor& b) {
  GAIA_CHECK_EQ(a.ndim(), 1);
  GAIA_CHECK(a.SameShape(b));
  double acc = 0.0;
  for (int64_t i = 0; i < a.size(); ++i) {
    acc += static_cast<double>(a.data()[i]) * b.data()[i];
  }
  return static_cast<float>(acc);
}

Tensor Transpose(const Tensor& a) {
  GAIA_CHECK_EQ(a.ndim(), 2);
  const int64_t m = a.dim(0), n = a.dim(1);
  Tensor out({n, m});
  const float* GAIA_RESTRICT pa = a.data();
  float* GAIA_RESTRICT po = out.data();
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) po[j * m + i] = pa[i * n + j];
  }
  return out;
}

Tensor Outer(const Tensor& a, const Tensor& b) {
  GAIA_CHECK_EQ(a.ndim(), 1);
  GAIA_CHECK_EQ(b.ndim(), 1);
  Tensor out({a.dim(0), b.dim(0)});
  for (int64_t i = 0; i < a.dim(0); ++i) {
    for (int64_t j = 0; j < b.dim(0); ++j) out.at(i, j) = a.at(i) * b.at(j);
  }
  return out;
}

Tensor Relu(const Tensor& a) {
  return Map(a, [](float v) { return v > 0.0f ? v : 0.0f; });
}

Tensor Sigmoid(const Tensor& a) {
  return Map(a, [](float v) { return 1.0f / (1.0f + std::exp(-v)); });
}

Tensor Tanh(const Tensor& a) {
  return Map(a, [](float v) { return std::tanh(v); });
}

Tensor Exp(const Tensor& a) {
  return Map(a, [](float v) { return std::exp(v); });
}

Tensor Log(const Tensor& a) {
  return Map(a, [](float v) { return std::log(v); });
}

Tensor Sqrt(const Tensor& a) {
  return Map(a, [](float v) { return std::sqrt(v); });
}

Tensor Abs(const Tensor& a) {
  return Map(a, [](float v) { return std::fabs(v); });
}

void SoftmaxRowInPlace(float* row, int64_t cols) {
  float row_max = kMaskNegInf;
  for (int64_t j = 0; j < cols; ++j) row_max = std::max(row_max, row[j]);
  if (row_max <= kMaskNegInf) {  // fully masked row -> zeros
    std::fill(row, row + cols, 0.0f);
    return;
  }
  double denom = 0.0;
  for (int64_t j = 0; j < cols; ++j) {
    const float e = row[j] <= kMaskNegInf ? 0.0f : std::exp(row[j] - row_max);
    row[j] = e;
    denom += e;
  }
  const float inv = static_cast<float>(1.0 / denom);
  // Stride-1 scale; vectorizes lane-wise (no reassociation involved).
  for (int64_t j = 0; j < cols; ++j) row[j] *= inv;
}

Tensor SoftmaxRows(const Tensor& logits) {
  GAIA_CHECK_EQ(logits.ndim(), 2);
  const int64_t rows = logits.dim(0), cols = logits.dim(1);
  Tensor out = logits;
  float* pout = out.data();
  // exp dominates the per-row cost; weight it when sizing parallel chunks.
  ParallelRows(rows, cols * 8, [&](int64_t row_begin, int64_t row_end) {
    for (int64_t i = row_begin; i < row_end; ++i) {
      SoftmaxRowInPlace(pout + i * cols, cols);
    }
  });
  return out;
}

Tensor SoftmaxRowsBackward(const Tensor& y, const Tensor& dy) {
  GAIA_CHECK(y.SameShape(dy));
  GAIA_CHECK_EQ(y.ndim(), 2);
  const int64_t rows = y.dim(0), cols = y.dim(1);
  Tensor dx({rows, cols});
  for (int64_t i = 0; i < rows; ++i) {
    const float* GAIA_RESTRICT py = y.data() + i * cols;
    const float* GAIA_RESTRICT pdy = dy.data() + i * cols;
    float* GAIA_RESTRICT pdx = dx.data() + i * cols;
    double inner = 0.0;
    for (int64_t j = 0; j < cols; ++j) inner += static_cast<double>(py[j]) * pdy[j];
    for (int64_t j = 0; j < cols; ++j) {
      pdx[j] = py[j] * (pdy[j] - static_cast<float>(inner));
    }
  }
  return dx;
}

Tensor Softmax1D(const Tensor& logits) {
  GAIA_CHECK_EQ(logits.ndim(), 1);
  Tensor row = logits.Reshape({1, logits.dim(0)});
  return SoftmaxRows(row).Reshape({logits.dim(0)});
}

Tensor SumAxis0(const Tensor& a) {
  GAIA_CHECK_EQ(a.ndim(), 2);
  const int64_t rows = a.dim(0), cols = a.dim(1);
  Tensor out({cols});
  float* GAIA_RESTRICT po = out.data();
  for (int64_t i = 0; i < rows; ++i) {
    const float* GAIA_RESTRICT row = a.data() + i * cols;
    for (int64_t j = 0; j < cols; ++j) po[j] += row[j];
  }
  return out;
}

Tensor SumAxis1(const Tensor& a) {
  GAIA_CHECK_EQ(a.ndim(), 2);
  const int64_t rows = a.dim(0), cols = a.dim(1);
  Tensor out({rows});
  for (int64_t i = 0; i < rows; ++i) {
    double acc = 0.0;
    for (int64_t j = 0; j < cols; ++j) acc += a.at(i, j);
    out.at(i) = static_cast<float>(acc);
  }
  return out;
}

Tensor AddRowVector(const Tensor& a, const Tensor& v) {
  GAIA_CHECK_EQ(a.ndim(), 2);
  GAIA_CHECK_EQ(v.ndim(), 1);
  GAIA_CHECK_EQ(a.dim(1), v.dim(0));
  Tensor out = a;
  const int64_t cols = a.dim(1);
  const float* GAIA_RESTRICT pv = v.data();
  for (int64_t i = 0; i < a.dim(0); ++i) {
    float* GAIA_RESTRICT row = out.data() + i * cols;
    for (int64_t j = 0; j < cols; ++j) row[j] += pv[j];
  }
  return out;
}

Tensor AddColVector(const Tensor& a, const Tensor& v) {
  GAIA_CHECK_EQ(a.ndim(), 2);
  GAIA_CHECK_EQ(v.ndim(), 1);
  GAIA_CHECK_EQ(a.dim(0), v.dim(0));
  Tensor out = a;
  for (int64_t i = 0; i < a.dim(0); ++i) {
    for (int64_t j = 0; j < a.dim(1); ++j) out.at(i, j) += v.at(i);
  }
  return out;
}

Tensor ConcatCols(const std::vector<Tensor>& parts) {
  GAIA_CHECK(!parts.empty());
  const int64_t rows = parts[0].dim(0);
  int64_t total_cols = 0;
  for (const Tensor& p : parts) {
    GAIA_CHECK_EQ(p.ndim(), 2);
    GAIA_CHECK_EQ(p.dim(0), rows);
    total_cols += p.dim(1);
  }
  Tensor out({rows, total_cols});
  int64_t offset = 0;
  for (const Tensor& p : parts) {
    const int64_t cols = p.dim(1);
    for (int64_t i = 0; i < rows; ++i) {
      const float* src = p.data() + i * cols;
      std::copy(src, src + cols, out.data() + i * total_cols + offset);
    }
    offset += cols;
  }
  return out;
}

Tensor ConcatRows(const std::vector<Tensor>& parts) {
  GAIA_CHECK(!parts.empty());
  const int64_t cols = parts[0].dim(1);
  int64_t total_rows = 0;
  for (const Tensor& p : parts) {
    GAIA_CHECK_EQ(p.ndim(), 2);
    GAIA_CHECK_EQ(p.dim(1), cols);
    total_rows += p.dim(0);
  }
  Tensor out({total_rows, cols});
  float* po = out.data();
  for (const Tensor& p : parts) {
    po = std::copy(p.data(), p.data() + p.size(), po);
  }
  return out;
}

Tensor SliceCols(const Tensor& a, int64_t start, int64_t len) {
  GAIA_CHECK_EQ(a.ndim(), 2);
  GAIA_CHECK_GE(start, 0);
  GAIA_CHECK_LE(start + len, a.dim(1));
  Tensor out({a.dim(0), len});
  const int64_t cols = a.dim(1);
  for (int64_t i = 0; i < a.dim(0); ++i) {
    const float* src = a.data() + i * cols + start;
    std::copy(src, src + len, out.data() + i * len);
  }
  return out;
}

Tensor SliceRows(const Tensor& a, int64_t start, int64_t len) {
  GAIA_CHECK_EQ(a.ndim(), 2);
  GAIA_CHECK_GE(start, 0);
  GAIA_CHECK_LE(start + len, a.dim(0));
  Tensor out({len, a.dim(1)});
  const float* src = a.data() + start * a.dim(1);
  std::copy(src, src + out.size(), out.data());
  return out;
}

namespace {

/// Lane-per-sequence Conv1d (design notes in docs/PERFORMANCE.md).
///
/// The per-sequence kernel accumulates each output along one dependent
/// chain of K*Cin double adds, so it is latency-bound. Here sequences sit in
/// SIMD lanes instead: the input is transposed to [T][Cin][N] (N padded to
/// the lane width with zeros) and each accumulator holds kLanes sequences'
/// copies of one output. Every lane still runs the exact chain of the
/// per-sequence kernel — bias, then float product, widened to double, added
/// in ascending (tap, channel) order — so the output bits do not depend on
/// how many sequences share the call. kTile independent accumulators, taken
/// over the flattened (output channel, lane block) pairs, keep the adder
/// pipeline full even for one sequence.
typedef float LaneF __attribute__((vector_size(16)));
typedef double LaneD __attribute__((vector_size(32)));
constexpr int64_t kLanes = 4;
constexpr int kTile = 4;  // the switch in Conv1dImpl covers 1..kTile

/// Exact float -> double widening of the four lanes. GCC lowers the generic
/// __builtin_convertvector to two 2-lane converts plus an insert; with AVX
/// one vcvtps2pd does it.
GAIA_ALWAYS_INLINE LaneD Widen(LaneF x) {
#if defined(__AVX__)
  return reinterpret_cast<LaneD>(_mm256_cvtps_pd(reinterpret_cast<__m128>(x)));
#else
  return __builtin_convertvector(x, LaneD);
#endif
}

/// Thread-local lane-transposed input, reused across calls (workers read
/// the caller's buffer in place; ParallelForRange blocks until they finish).
thread_local std::vector<float> tl_conv_lanes;

/// Per-accumulator operands of one tile: the lane block it reads and the
/// weight row (tap k_lo) it multiplies by.
struct ConvTileSlot {
  const float* in;  ///< lanes at [s0][0][block * kLanes]
  const float* w;   ///< weight[o][k_lo][0]
  double bias;
  float* out;       ///< out row of sequence block*kLanes at (t, o)
};

template <int G>
GAIA_ALWAYS_INLINE void ConvTile(const ConvTileSlot* slot, int64_t taps,
                                 int64_t tap_stride, int64_t c_in,
                                 int64_t padded, int64_t lanes_valid[],
                                 int64_t out_stride) {
  LaneD acc[G];
  for (int i = 0; i < G; ++i) {
    const double b = slot[i].bias;
    acc[i] = LaneD{b, b, b, b};
  }
  for (int64_t k = 0; k < taps; ++k) {
    for (int64_t c = 0; c < c_in; ++c) {
      const int64_t at = k * tap_stride + c * padded;
      for (int i = 0; i < G; ++i) {
        LaneF x;
        std::memcpy(&x, slot[i].in + at, sizeof(x));
        const float w = slot[i].w[k * c_in + c];
        const LaneF prod = x * LaneF{w, w, w, w};
        acc[i] += Widen(prod);
      }
    }
  }
  for (int i = 0; i < G; ++i) {
    for (int64_t l = 0; l < lanes_valid[i]; ++l) {
      slot[i].out[l * out_stride] = static_cast<float>(acc[i][l]);
    }
  }
}

/// Shared Conv1d body; shape validity established by the caller (Conv1d via
/// GAIA_CHECK, Conv1dChecked via Status). Per output position t the valid
/// kernel-tap window [k_lo, k_hi) is hoisted out of the tap loop; only the
/// surviving taps run.
Tensor Conv1dImpl(const Tensor& input, const Tensor& weight, const Tensor& bias,
                  PadMode mode, int64_t dilation, int64_t num_seqs) {
  const int64_t c_in = input.dim(1);
  const int64_t t_len = input.dim(0) / num_seqs;
  const int64_t c_out = weight.dim(0), kernel = weight.dim(1);
  const bool has_bias = !bias.empty();
  const int64_t left = PadLeft(kernel, mode, dilation);
  const int64_t blocks = CeilDiv(num_seqs, kLanes);
  const int64_t padded = blocks * kLanes;
  Tensor out({num_seqs * t_len, c_out});

  std::vector<float>& lanes = tl_conv_lanes;
  lanes.assign(static_cast<size_t>(t_len * c_in * padded), 0.0f);
  const float* GAIA_RESTRICT pin = input.data();
  for (int64_t n = 0; n < num_seqs; ++n) {
    for (int64_t t = 0; t < t_len; ++t) {
      const float* row = pin + (n * t_len + t) * c_in;
      float* dst = lanes.data() + t * c_in * padded + n;
      for (int64_t c = 0; c < c_in; ++c) dst[c * padded] = row[c];
    }
  }
  const float* pl = lanes.data();
  const float* pw = weight.data();
  const float* pb = has_bias ? bias.data() : nullptr;
  float* po = out.data();
  const int64_t seq_stride = t_len * c_out;  // output rows between lanes
  const int64_t tap_stride = dilation * c_in * padded;
  const int64_t pairs = c_out * blocks;
  ParallelRows(t_len, c_out * kernel * c_in * padded,
               [&](int64_t t_begin, int64_t t_end) {
    for (int64_t t = t_begin; t < t_end; ++t) {
      const int64_t k_lo =
          left > t ? (left - t + dilation - 1) / dilation : 0;
      const int64_t k_hi =
          std::min(kernel, (t_len - 1 - t + left) / dilation + 1);
      const int64_t s0 = t + k_lo * dilation - left;
      const int64_t taps = k_hi - k_lo;
      for (int64_t p0 = 0; p0 < pairs; p0 += kTile) {
        const int g = static_cast<int>(std::min<int64_t>(kTile, pairs - p0));
        ConvTileSlot slot[kTile];
        int64_t valid[kTile];
        for (int i = 0; i < g; ++i) {
          const int64_t o = (p0 + i) / blocks, block = (p0 + i) % blocks;
          slot[i].in = pl + s0 * c_in * padded + block * kLanes;
          slot[i].w = pw + (o * kernel + k_lo) * c_in;
          slot[i].bias = has_bias ? static_cast<double>(pb[o]) : 0.0;
          slot[i].out = po + block * kLanes * seq_stride + t * c_out + o;
          valid[i] = std::min(kLanes, num_seqs - block * kLanes);
        }
        switch (g) {
          case 4: ConvTile<4>(slot, taps, tap_stride, c_in, padded, valid,
                              seq_stride); break;
          case 3: ConvTile<3>(slot, taps, tap_stride, c_in, padded, valid,
                              seq_stride); break;
          case 2: ConvTile<2>(slot, taps, tap_stride, c_in, padded, valid,
                              seq_stride); break;
          default: ConvTile<1>(slot, taps, tap_stride, c_in, padded, valid,
                               seq_stride); break;
        }
      }
    }
  });
  return out;
}

}  // namespace

Tensor Conv1d(const Tensor& input, const Tensor& weight, const Tensor& bias,
              PadMode mode, int64_t dilation, int64_t num_seqs) {
  GAIA_CHECK_EQ(input.ndim(), 2);
  GAIA_CHECK_EQ(weight.ndim(), 3);
  GAIA_CHECK_GE(dilation, 1);
  GAIA_CHECK_GE(num_seqs, 1);
  GAIA_CHECK_EQ(input.dim(0) % num_seqs, 0);
  GAIA_CHECK_EQ(weight.dim(2), input.dim(1))
      << "Conv1d channel mismatch: input " << input.ShapeString()
      << " weight " << weight.ShapeString();
  if (!bias.empty()) {
    GAIA_CHECK_EQ(bias.ndim(), 1);
    GAIA_CHECK_EQ(bias.dim(0), weight.dim(0));
  }
  return Conv1dImpl(input, weight, bias, mode, dilation, num_seqs);
}

Result<Tensor> Conv1dChecked(const Tensor& input, const Tensor& weight,
                             const Tensor& bias, PadMode mode,
                             int64_t dilation, int64_t num_seqs) {
  if (input.ndim() != 2) {
    return Status::InvalidArgument("Conv1d: input must be [T, Cin], got " +
                                   input.ShapeString());
  }
  if (weight.ndim() != 3) {
    return Status::InvalidArgument(
        "Conv1d: weight must be [Cout, K, Cin], got " + weight.ShapeString());
  }
  if (dilation < 1) {
    return Status::InvalidArgument("Conv1d: dilation must be >= 1, got " +
                                   std::to_string(dilation));
  }
  if (num_seqs < 1 || input.dim(0) % num_seqs != 0) {
    return Status::InvalidArgument(
        "Conv1d: " + input.ShapeString() + " does not split into " +
        std::to_string(num_seqs) + " equal sequences");
  }
  if (weight.dim(0) < 1 || weight.dim(1) < 1) {
    return Status::InvalidArgument("Conv1d: degenerate weight shape " +
                                   weight.ShapeString());
  }
  if (weight.dim(2) != input.dim(1)) {
    return Status::InvalidArgument("Conv1d: channel mismatch, input " +
                                   input.ShapeString() + " vs weight " +
                                   weight.ShapeString());
  }
  if (!bias.empty() &&
      (bias.ndim() != 1 || bias.dim(0) != weight.dim(0))) {
    return Status::InvalidArgument("Conv1d: bias must be [Cout], got " +
                                   bias.ShapeString() + " for weight " +
                                   weight.ShapeString());
  }
  return Conv1dImpl(input, weight, bias, mode, dilation, num_seqs);
}

Tensor Conv1dBackwardInput(const Tensor& grad_out, const Tensor& weight,
                           int64_t input_len, PadMode mode, int64_t dilation,
                           int64_t num_seqs) {
  GAIA_CHECK_EQ(grad_out.ndim(), 2);
  GAIA_CHECK_EQ(weight.ndim(), 3);
  const int64_t rows = grad_out.dim(0), c_out = grad_out.dim(1);
  const int64_t kernel = weight.dim(1), c_in = weight.dim(2);
  GAIA_CHECK_EQ(weight.dim(0), c_out);
  GAIA_CHECK_EQ(rows, input_len) << "Conv1d preserves length";
  GAIA_CHECK_EQ(rows % num_seqs, 0);
  const int64_t t_len = rows / num_seqs;
  const int64_t left = PadLeft(kernel, mode, dilation);
  Tensor grad_in({input_len, c_in});
  // Sequences write disjoint row blocks, so they fan out freely.
  util::ParallelFor(num_seqs, [&](int64_t n) {
    const float* GAIA_RESTRICT go = grad_out.data() + n * t_len * c_out;
    float* gi = grad_in.data() + n * t_len * c_in;
    for (int64_t t = 0; t < t_len; ++t) {
      // Same hoisted tap window as the forward kernel.
      const int64_t k_lo =
          left > t ? (left - t + dilation - 1) / dilation : 0;
      const int64_t k_hi =
          std::min(kernel, (t_len - 1 - t + left) / dilation + 1);
      const int64_t s0 = t + k_lo * dilation - left;
      for (int64_t o = 0; o < c_out; ++o) {
        const float g = go[t * c_out + o];
        if (g == 0.0f) continue;
        int64_t s = s0;
        for (int64_t k = k_lo; k < k_hi; ++k, s += dilation) {
          float* GAIA_RESTRICT gi_row = gi + s * c_in;
          const float* GAIA_RESTRICT w_row =
              weight.data() + (o * kernel + k) * c_in;
          for (int64_t c = 0; c < c_in; ++c) gi_row[c] += g * w_row[c];
        }
      }
    }
  });
  return grad_in;
}

Tensor Conv1dBackwardWeight(const Tensor& grad_out, const Tensor& input,
                            int64_t kernel_size, PadMode mode,
                            int64_t dilation, int64_t num_seqs) {
  GAIA_CHECK_EQ(grad_out.ndim(), 2);
  GAIA_CHECK_EQ(input.ndim(), 2);
  const int64_t rows = grad_out.dim(0), c_out = grad_out.dim(1);
  const int64_t c_in = input.dim(1);
  GAIA_CHECK_EQ(input.dim(0), rows);
  GAIA_CHECK_EQ(rows % num_seqs, 0);
  const int64_t t_len = rows / num_seqs;
  const int64_t left = PadLeft(kernel_size, mode, dilation);
  Tensor grad_w({c_out, kernel_size, c_in});
  // One task per output channel; each sums its slice over sequences and
  // timesteps in a fixed order, so the result is thread-count invariant.
  util::ParallelFor(c_out, [&](int64_t o) {
    for (int64_t n = 0; n < num_seqs; ++n) {
      const float* go = grad_out.data() + n * t_len * c_out;
      const float* in = input.data() + n * t_len * c_in;
      for (int64_t t = 0; t < t_len; ++t) {
        const float g = go[t * c_out + o];
        if (g == 0.0f) continue;
        const int64_t k_lo =
            left > t ? (left - t + dilation - 1) / dilation : 0;
        const int64_t k_hi =
            std::min(kernel_size, (t_len - 1 - t + left) / dilation + 1);
        int64_t s = t + k_lo * dilation - left;
        for (int64_t k = k_lo; k < k_hi; ++k, s += dilation) {
          const float* GAIA_RESTRICT in_row = in + s * c_in;
          float* GAIA_RESTRICT gw_row =
              grad_w.data() + (o * kernel_size + k) * c_in;
          for (int64_t c = 0; c < c_in; ++c) gw_row[c] += g * in_row[c];
        }
      }
    }
  });
  return grad_w;
}

Tensor Conv1dBackwardBias(const Tensor& grad_out) { return SumAxis0(grad_out); }

Tensor CausalMask(int64_t t) {
  Tensor mask({t, t});
  for (int64_t i = 0; i < t; ++i) {
    for (int64_t j = i + 1; j < t; ++j) mask.at(i, j) = kMaskNegInf;
  }
  return mask;
}

}  // namespace gaia
