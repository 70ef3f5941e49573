#ifndef GAIA_TENSOR_TENSOR_OPS_H_
#define GAIA_TENSOR_TENSOR_OPS_H_

#include <vector>

#include "tensor/tensor.h"
#include "util/status.h"

namespace gaia {

/// Additive mask value treated as "minus infinity" by SoftmaxRows. A finite
/// large-negative value avoids NaN from (-inf) - (-inf) in the max-shift.
inline constexpr float kMaskNegInf = -1e9f;

// ---------------------------------------------------------------------------
// Linear algebra
// ---------------------------------------------------------------------------

/// Matrix product of a [m,k] and b [k,n] -> [m,n].
///
/// Dispatches by shape alone (so results are identical at every thread
/// count): large-enough products run the cache-blocked packed kernel,
/// small ones the row-streaming naive kernel. See docs/PERFORMANCE.md for
/// the blocking design and why the two kernels agree bitwise on finite
/// inputs.
Tensor MatMul(const Tensor& a, const Tensor& b);

/// The row-streaming reference kernel (pre-blocking implementation). Public
/// so the packed-vs-naive equivalence property test and the bench suite can
/// pin the packed kernel against it; model code should call MatMul.
Tensor MatMulNaive(const Tensor& a, const Tensor& b);

/// The cache-blocked, register-tiled kernel: packs A into MR-row panels and
/// B into NR-column panels once per call, then drives an 8x8 micro-kernel
/// whose per-element accumulation order is exactly the naive kernel's
/// ascending-k chain — so packed and naive agree bitwise on finite inputs,
/// at any thread count. Parallelism is ParallelForRange over row blocks;
/// chunk boundaries depend on shape only.
Tensor MatMulPacked(const Tensor& a, const Tensor& b);

/// Matrix-vector product of a [m,n] and x [n] -> [m].
Tensor MatVec(const Tensor& a, const Tensor& x);

/// Dot product of two equal-length 1-D tensors.
float Dot(const Tensor& a, const Tensor& b);

/// Transpose of a 2-D tensor.
Tensor Transpose(const Tensor& a);

/// Outer product of a [m] and b [n] -> [m,n].
Tensor Outer(const Tensor& a, const Tensor& b);

// ---------------------------------------------------------------------------
// Activations (elementwise)
// ---------------------------------------------------------------------------

Tensor Relu(const Tensor& a);
Tensor Sigmoid(const Tensor& a);
Tensor Tanh(const Tensor& a);
Tensor Exp(const Tensor& a);
Tensor Log(const Tensor& a);  ///< Natural log; pre: strictly positive input.
Tensor Sqrt(const Tensor& a);
Tensor Abs(const Tensor& a);

// ---------------------------------------------------------------------------
// Softmax
// ---------------------------------------------------------------------------

/// Row-wise softmax of a 2-D tensor. Entries <= kMaskNegInf contribute zero
/// probability. Rows where every entry is masked yield a uniform row of
/// zeros (callers that mask whole rows must handle that themselves).
Tensor SoftmaxRows(const Tensor& logits);

/// SoftmaxRows' kernel for one row, in place on `cols` contiguous logits.
/// Fused ops whose softmax must match SoftmaxRows bit for bit call it.
void SoftmaxRowInPlace(float* row, int64_t cols);

/// Gradient of SoftmaxRows: given y = SoftmaxRows(x) and dL/dy, returns dL/dx.
Tensor SoftmaxRowsBackward(const Tensor& y, const Tensor& dy);

/// Softmax over a 1-D tensor.
Tensor Softmax1D(const Tensor& logits);

// ---------------------------------------------------------------------------
// Reductions and broadcasting
// ---------------------------------------------------------------------------

/// Column sums of a [R,C] tensor -> [C].
Tensor SumAxis0(const Tensor& a);

/// Row sums of a [R,C] tensor -> [R].
Tensor SumAxis1(const Tensor& a);

/// Adds a length-C row vector to every row of a [R,C] tensor.
Tensor AddRowVector(const Tensor& a, const Tensor& v);

/// Adds a length-R column vector to every column of a [R,C] tensor.
Tensor AddColVector(const Tensor& a, const Tensor& v);

// ---------------------------------------------------------------------------
// Shape manipulation
// ---------------------------------------------------------------------------

/// Concatenates 2-D tensors with equal row counts along columns.
Tensor ConcatCols(const std::vector<Tensor>& parts);

/// Concatenates 2-D tensors with equal column counts along rows.
Tensor ConcatRows(const std::vector<Tensor>& parts);

/// Column slice [R, len] of a 2-D tensor starting at column `start`.
Tensor SliceCols(const Tensor& a, int64_t start, int64_t len);

/// Row slice [len, C] of a 2-D tensor starting at row `start`.
Tensor SliceRows(const Tensor& a, int64_t start, int64_t len);

// ---------------------------------------------------------------------------
// 1-D convolution along the time axis
// ---------------------------------------------------------------------------

/// Zero-padding mode for Conv1d. The paper's TEL uses centered ("same") zero
/// padding (Eq. 5-6); CAU projections use causal padding so convolution
/// features never peek past the current timestamp.
enum class PadMode { kSame, kCausal };

/// 1-D convolution: input [T, Cin], weight [Cout, K, Cin], optional bias
/// [Cout] (pass an empty tensor to skip), output [T, Cout]. `dilation`
/// spaces kernel taps (2^k dilations give the TEL multi-scale receptive
/// fields). Output length always equals input length.
///
/// `num_seqs` > 1 convolves that many independent sequences stacked along
/// rows (input [num_seqs*T, Cin], sequence n in rows [n*T, (n+1)*T)); taps
/// never cross a sequence boundary. The kernel runs one sequence per SIMD
/// lane, and every output is the same float-multiply/double-accumulate
/// chain in ascending (tap, channel) order whatever `num_seqs` is, so a
/// sequence's output bits do not depend on what it is batched with.
Tensor Conv1d(const Tensor& input, const Tensor& weight, const Tensor& bias,
              PadMode mode, int64_t dilation = 1, int64_t num_seqs = 1);

/// Validated Conv1d: returns kInvalidArgument on any shape mismatch
/// (rank, channel count, bias length, non-positive kernel/dilation, rows
/// not divisible into `num_seqs` sequences) instead of aborting — the
/// single source of truth for Conv1d shape rules (the checked autograd path
/// routes through it, so a mismatched weight can never silently drop taps
/// or truncate the output). On success the output is exactly Conv1d's.
Result<Tensor> Conv1dChecked(const Tensor& input, const Tensor& weight,
                             const Tensor& bias, PadMode mode,
                             int64_t dilation = 1, int64_t num_seqs = 1);

/// Gradient of Conv1d w.r.t. its input (`input_len` = total input rows).
Tensor Conv1dBackwardInput(const Tensor& grad_out, const Tensor& weight,
                           int64_t input_len, PadMode mode,
                           int64_t dilation = 1, int64_t num_seqs = 1);

/// Gradient of Conv1d w.r.t. its weight, summed over sequences in order.
Tensor Conv1dBackwardWeight(const Tensor& grad_out, const Tensor& input,
                            int64_t kernel_size, PadMode mode,
                            int64_t dilation = 1, int64_t num_seqs = 1);

/// Gradient of Conv1d w.r.t. its bias (column sums of grad_out).
Tensor Conv1dBackwardBias(const Tensor& grad_out);

// ---------------------------------------------------------------------------
// Masks
// ---------------------------------------------------------------------------

/// Lower-triangular causal attention mask M in {0, kMaskNegInf}^{T x T}:
/// M[i][j] = 0 when j <= i (may attend to past/self), else kMaskNegInf.
Tensor CausalMask(int64_t t);

}  // namespace gaia

#endif  // GAIA_TENSOR_TENSOR_OPS_H_
