#ifndef GAIA_AUTOGRAD_OPS_H_
#define GAIA_AUTOGRAD_OPS_H_

#include <vector>

#include "autograd/variable.h"
#include "tensor/tensor_ops.h"

namespace gaia::autograd {

// All ops build a fresh graph node whose backward closure propagates
// gradients to any parent with requires_grad. Shape preconditions mirror the
// underlying tensor ops and abort on violation.

/// Creates an op node holding `value`. It keeps `parents` and `backward_fn`
/// only when some parent requires grad and no InferenceScope is active;
/// otherwise it is a bare value node. Fused ops defined outside this file
/// (the CAU and ITA-GCN kernels) build their nodes through it too.
Var MakeOp(Tensor value, std::vector<Var> parents,
           std::function<void(AutogradNode&)> backward_fn);

/// True when an op over `parents` would record a tape node: some parent
/// requires grad and no InferenceScope is active. Fused ops use it to skip
/// saving what only their backward reads.
bool RecordsTape(const std::vector<Var>& parents);

// -- arithmetic -------------------------------------------------------------

Var Add(const Var& a, const Var& b);            ///< Elementwise a + b.
Var Sub(const Var& a, const Var& b);            ///< Elementwise a - b.
Var Mul(const Var& a, const Var& b);            ///< Hadamard product.
Var Div(const Var& a, const Var& b);            ///< Elementwise a / b.
Var Neg(const Var& a);                          ///< Elementwise negation.
Var ScalarMul(const Var& a, float s);           ///< a * s with constant s.

/// Elementwise sum of several same-shaped vars (neighbour aggregation).
Var AddN(const std::vector<Var>& parts);

/// Matrix (or any tensor) scaled by a differentiable scalar of shape [1].
Var ScaleByScalar(const Var& a, const Var& scalar);

// -- linear algebra ----------------------------------------------------------

Var MatMul(const Var& a, const Var& b);         ///< [m,k] x [k,n] -> [m,n].
Var Transpose(const Var& a);                    ///< 2-D transpose.
Var Dot(const Var& a, const Var& b);            ///< [n] . [n] -> [1].

// -- activations --------------------------------------------------------------

Var Relu(const Var& a);
Var Sigmoid(const Var& a);
Var Tanh(const Var& a);
Var Exp(const Var& a);
Var Log(const Var& a);   ///< Natural log; pre: strictly positive values.
Var Sqrt(const Var& a);  ///< Elementwise square root; pre: positive values.

// -- softmax ------------------------------------------------------------------

/// Row-wise softmax; apply additive masks (e.g. CausalMask) to the logits
/// before calling. Fully masked rows yield zero rows.
Var SoftmaxRows(const Var& logits);

/// Softmax over a 1-D logits vector.
Var Softmax1D(const Var& logits);

// -- shape --------------------------------------------------------------------

Var Reshape(const Var& a, std::vector<int64_t> shape);
Var ConcatCols(const std::vector<Var>& parts);
Var ConcatRows(const std::vector<Var>& parts);
Var SliceCols(const Var& a, int64_t start, int64_t len);
Var SliceRows(const Var& a, int64_t start, int64_t len);

/// Row `i` of a 2-D tensor as a 1-D var (embedding lookup).
Var SelectRow(const Var& a, int64_t i);

/// Stacks scalar vars of shape [1] into a 1-D var of shape [n].
Var StackScalars(const std::vector<Var>& scalars);

/// Element `i` of a 1-D var, as shape [1].
Var SelectScalar(const Var& a, int64_t i);

/// Contiguous span [start, start+len) of a 1-D var.
Var SelectSpan(const Var& a, int64_t start, int64_t len);

// -- broadcasting -------------------------------------------------------------

/// Adds 1-D var `v` (length C) to every row of 2-D var `a` ([R,C]).
Var AddRowVector(const Var& a, const Var& v);

/// Adds `b` ([P, C]) to every P-row block of `a` ([N*P, C]): a per-timestep
/// bias applied to N node-stacked sequences of length P.
Var AddRowsTiled(const Var& a, const Var& b);

/// Row blocks `blocks[i]` of `a` ([N*R, C], block b = rows [b*R, (b+1)*R),
/// R = `block_rows`) stacked in that order -> [|blocks|*R, C].
Var GatherRowBlocks(const Var& a, const std::vector<int32_t>& blocks,
                    int64_t block_rows);

/// Repeats every row of `a` ([N, C]) `times` times -> [N*times, C]
/// (one per-node row broadcast over that node's timesteps).
Var RepeatRows(const Var& a, int64_t times);

// -- convolution ----------------------------------------------------------------

/// 1-D convolution along time over `num_seqs` row-stacked sequences.
/// `bias` may be null. See tensor_ops Conv1d.
Var Conv1d(const Var& input, const Var& weight, const Var& bias, PadMode mode,
           int64_t dilation = 1, int64_t num_seqs = 1);

// -- normalization ----------------------------------------------------------------

/// Fused per-row layer normalization with affine parameters gamma/beta [C].
Var LayerNormRows(const Var& a, const Var& gamma, const Var& beta,
                  float eps = 1e-5f);

// -- reductions and losses ---------------------------------------------------------

Var SumAll(const Var& a);                        ///< -> [1].
Var MeanAll(const Var& a);                       ///< -> [1].

/// Mean squared error between prediction and a constant target (Eq. 10).
Var MseLoss(const Var& pred, const Tensor& target);

/// Mean absolute error (used by some baseline training recipes).
Var MaeLoss(const Var& pred, const Tensor& target);

}  // namespace gaia::autograd

#endif  // GAIA_AUTOGRAD_OPS_H_
