#ifndef GAIA_AUTOGRAD_VARIABLE_H_
#define GAIA_AUTOGRAD_VARIABLE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "tensor/tensor.h"

namespace gaia::autograd {

class AutogradNode;

/// A differentiable value: shared handle to a node in the dynamically built
/// computation graph. Ops (see ops.h) take and return Vars.
using Var = std::shared_ptr<AutogradNode>;

/// \brief One node of the reverse-mode tape.
///
/// Nodes may be created concurrently (forward passes parallelize over nodes
/// and edges); ids come from an atomic counter and are only a debugging aid.
/// Backward derives its reverse-topological order from the graph structure
/// itself, so gradients are bitwise identical at any thread count.
/// Leaf parameters persist across steps (grads accumulate until ZeroGrad);
/// interior nodes are released when the last Var referencing the loss dies.
class AutogradNode {
 public:
  explicit AutogradNode(Tensor value_in);

  /// Value computed in the forward pass.
  Tensor value;

  /// Accumulated gradient dL/d(value); empty until first touched.
  Tensor grad;

  /// True when this node or any ancestor is a trainable parameter.
  bool requires_grad = false;

  /// Creation sequence number (diagnostic only; see class comment).
  uint64_t id = 0;

  /// Direct inputs of the op that produced this node.
  std::vector<Var> parents;

  /// Propagates this->grad into parents' grads. Null for leaves.
  std::function<void(AutogradNode&)> backward_fn;

  /// Lazily allocates a zero gradient matching `value`'s shape.
  void EnsureGrad();

  /// Adds `delta` into the gradient (allocating it first if needed).
  void AccumulateGrad(const Tensor& delta);

  /// Clears the gradient to zeros (keeps allocation if present).
  void ZeroGrad();
};

/// Wraps a tensor as a non-trainable graph input.
Var Constant(Tensor value);

/// Wraps a tensor as a trainable parameter (requires_grad = true).
Var Parameter(Tensor value);

/// Runs backpropagation from `root`, seeding d(root)/d(root) with ones.
/// Typically `root` is a scalar loss of shape [1].
void Backward(const Var& root);

/// Runs backpropagation with an explicit seed gradient (same shape as root).
void Backward(const Var& root, const Tensor& seed);

/// \brief RAII scope under which ops record no tape.
///
/// Inside the scope every op returns a bare value node: no parents, no
/// backward closure, nothing captured, requires_grad false, so a forward
/// that no Backward will read builds no graph. Values are computed by the
/// same kernels, so they are bitwise those of a taped forward. The scope is
/// thread-ambient and nests; ParallelFor workers re-install the submitting
/// thread's setting for their chunks (see util::TapeDisabled), so ops built
/// on pool threads honour it too.
class InferenceScope {
 public:
  InferenceScope();
  ~InferenceScope();
  InferenceScope(const InferenceScope&) = delete;
  InferenceScope& operator=(const InferenceScope&) = delete;

  /// True when the calling thread is inside an InferenceScope.
  static bool Active();

 private:
  bool previous_;
};

}  // namespace gaia::autograd

#endif  // GAIA_AUTOGRAD_VARIABLE_H_
