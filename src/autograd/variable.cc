#include "autograd/variable.h"

#include <atomic>
#include <unordered_set>

#include "obs/obs.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace gaia::autograd {

namespace {
std::atomic<uint64_t> g_next_id{1};
}  // namespace

AutogradNode::AutogradNode(Tensor value_in)
    : value(std::move(value_in)), id(g_next_id.fetch_add(1)) {}

void AutogradNode::EnsureGrad() {
  if (grad.empty() && value.size() > 0) grad = Tensor(value.shape());
}

void AutogradNode::AccumulateGrad(const Tensor& delta) {
  EnsureGrad();
  grad.Accumulate(delta);
}

void AutogradNode::ZeroGrad() {
  if (!grad.empty()) grad.Fill(0.0f);
}

Var Constant(Tensor value) {
  return std::make_shared<AutogradNode>(std::move(value));
}

Var Parameter(Tensor value) {
  Var node = std::make_shared<AutogradNode>(std::move(value));
  node->requires_grad = true;
  return node;
}

void Backward(const Var& root, const Tensor& seed) {
  GAIA_CHECK(root != nullptr);
  GAIA_CHECK(root->value.SameShape(seed));
  GAIA_OBS_SPAN("autograd.backward");
  // Reverse-topological order via iterative DFS post-order over the parents
  // of grad-requiring nodes. For every child -> parent edge the child
  // finishes after the parent, so the reversed finish order processes each
  // node before any of its parents — i.e. a node's grad is fully accumulated
  // before its backward_fn fires. Unlike a creation-id sort, this order
  // depends only on graph structure (root identity and the parents vectors),
  // not on how node ids interleaved during a multi-threaded forward pass, so
  // gradient accumulation order — and hence every gradient bit — is
  // identical at any thread count.
  struct Frame {
    AutogradNode* node;
    size_t next_parent;
  };
  std::vector<AutogradNode*> post_order;
  std::unordered_set<AutogradNode*> seen;
  std::vector<Frame> stack;
  stack.push_back(Frame{root.get(), 0});
  seen.insert(root.get());
  while (!stack.empty()) {
    Frame& frame = stack.back();
    if (frame.next_parent < frame.node->parents.size()) {
      AutogradNode* parent = frame.node->parents[frame.next_parent++].get();
      if (parent->requires_grad && seen.insert(parent).second) {
        stack.push_back(Frame{parent, 0});
      }
    } else {
      post_order.push_back(frame.node);
      stack.pop_back();
    }
  }
  if (obs::Enabled()) {
    obs::MetricsRegistry::Global()
        .GetCounter("gaia_autograd_backward_total",
                    "Backward passes executed")
        .Increment();
    obs::MetricsRegistry::Global()
        .GetCounter("gaia_autograd_nodes_total",
                    "Grad-requiring nodes visited by Backward")
        .Increment(post_order.size());
  }
  root->AccumulateGrad(seed);
  for (auto it = post_order.rbegin(); it != post_order.rend(); ++it) {
    AutogradNode* node = *it;
    if (node->backward_fn && node->requires_grad && !node->grad.empty()) {
      node->backward_fn(*node);
    }
  }
}

void Backward(const Var& root) {
  GAIA_CHECK(root != nullptr);
  Backward(root, Tensor::Ones(root->value.shape()));
}

InferenceScope::InferenceScope() : previous_(util::TapeDisabled()) {
  util::SetTapeDisabled(true);
}

InferenceScope::~InferenceScope() { util::SetTapeDisabled(previous_); }

bool InferenceScope::Active() { return util::TapeDisabled(); }

}  // namespace gaia::autograd
