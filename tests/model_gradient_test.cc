// Whole-model gradient check: central finite differences against Backward
// through a complete tiny GaiaModel (FFL -> TEL -> 2 x ITA-GCN -> head) plus
// the Eq. 10 MSE, for every ablation switch. The per-component checks in
// core_components_test cannot see a fault in how the model wires its
// modules together (the TEL residual, the head, the neighbour softmax across
// layers); this one covers every parameter of the assembled model.
//
// Also here: the inference scope's contract on the same model — an
// untaped forward is bitwise the taped one and leaves no graph behind, on
// the caller and on pool workers alike.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "autograd/ops.h"
#include "core/gaia_model.h"
#include "graph/eseller_graph.h"
#include "util/thread_pool.h"

namespace gaia::core {
namespace {

namespace ag = autograd;

constexpr int64_t kT = 8;   // history length
constexpr int64_t kH = 3;   // horizon
constexpr int64_t kDt = 3;  // temporal features
constexpr int64_t kDs = 2;  // static features
constexpr int32_t kNodes = 4;
/// Largest |numeric - analytic| allowed per parameter tensor:
/// kRelTolerance of the tensor's largest gradient component plus
/// kAbsTolerance for the float-precision noise of central differences
/// (some tensors, such as the key bias that a row softmax cancels, have a
/// true gradient of zero).
constexpr double kRelTolerance = 0.03;
constexpr double kAbsTolerance = 3e-3;

/// A 4-node market: node 0 has three in-neighbours of both relation
/// types, nodes 1 and 2 form a 2-cycle, and node 3 has no in-neighbours.
graph::EsellerGraph TinyGraph() {
  const std::vector<graph::Edge> edges = {
      {1, 0, graph::EdgeType::kSupplyChain},
      {2, 0, graph::EdgeType::kSameOwner},
      {3, 0, graph::EdgeType::kSupplyChain},
      {2, 1, graph::EdgeType::kSupplyChain},
      {1, 2, graph::EdgeType::kSameOwner},
  };
  auto g = graph::EsellerGraph::Create(kNodes, edges);
  GAIA_CHECK(g.ok()) << g.status().ToString();
  return std::move(g).value();
}

struct TinyInputs {
  std::vector<Tensor> z, temporal, statics, target;
};

TinyInputs MakeInputs() {
  Rng rng(31);
  TinyInputs in;
  for (int32_t v = 0; v < kNodes; ++v) {
    in.z.push_back(Tensor::RandUniform({kT}, &rng, 0.5f, 1.5f));
    in.temporal.push_back(Tensor::Randn({kT, kDt}, &rng, 0.5f));
    in.statics.push_back(Tensor::Randn({kDs}, &rng, 0.5f));
    in.target.push_back(Tensor::RandUniform({kH}, &rng, 0.5f, 1.5f));
  }
  return in;
}

struct AblationCase {
  const char* name;
  void (*configure)(GaiaConfig*);
};

/// Tiny model (C=4, K=2, L=2) with every parameter pushed well off its
/// initialiser: zero-init biases and the edge-type bias then carry
/// gradients, and the attention and tanh scorer leave their near-linear
/// regime, so a dropped factor in their backward shows.
std::unique_ptr<GaiaModel> TinyModel(void (*configure)(GaiaConfig*)) {
  GaiaConfig cfg;
  cfg.channels = 4;
  cfg.tel_groups = 2;
  cfg.num_layers = 2;
  cfg.seed = 3;
  configure(&cfg);
  auto created = GaiaModel::Create(cfg, kT, kH, kDt, kDs);
  GAIA_CHECK(created.ok()) << created.status().ToString();
  std::unique_ptr<GaiaModel> model = std::move(created).value();
  Rng nudge(7);
  for (const ag::Var& p : model->Parameters()) {
    for (int64_t i = 0; i < p->value.size(); ++i) {
      p->value.data()[i] += static_cast<float>(nudge.Uniform(-0.5, 0.5));
    }
  }
  return model;
}

std::vector<GaiaModel::NodeInput> NodeInputs(const TinyInputs& in) {
  std::vector<GaiaModel::NodeInput> inputs;
  for (int32_t v = 0; v < kNodes; ++v) {
    inputs.push_back(
        GaiaModel::NodeInput{&in.z[v], &in.temporal[v], &in.statics[v]});
  }
  return inputs;
}

/// CheckGrad(Model&, ComputationGraph&) over a whole model: central
/// differences on every parameter element against one Backward. Each
/// parameter tensor is judged against the scale of its own gradient (the
/// largest analytic component), so a wrong factor in a tensor with small
/// gradients fails as surely as one in a tensor with large gradients.
/// Returns the worst tensor's error over its allowance (pass: < 1).
double ModelGradientError(GaiaModel& model,
                          const std::function<ag::Var()>& loss,
                          std::string* worst) {
  const std::vector<std::pair<std::string, ag::Var>> params =
      model.NamedParameters();
  model.ZeroGrad();
  ag::Backward(loss());
  double worst_error = 0.0;
  constexpr float kEps = 1e-3f;
  for (const auto& [name, p] : params) {
    p->EnsureGrad();
    const Tensor analytic = p->grad;
    double scale = 0.0;
    for (int64_t i = 0; i < analytic.size(); ++i) {
      scale = std::max(scale, std::fabs(static_cast<double>(analytic.data()[i])));
    }
    double error = 0.0;
    for (int64_t i = 0; i < p->value.size(); ++i) {
      const float original = p->value.data()[i];
      p->value.data()[i] = original + kEps;
      const double plus = loss()->value.data()[0];
      p->value.data()[i] = original - kEps;
      const double minus = loss()->value.data()[0];
      p->value.data()[i] = original;
      const double numeric = (plus - minus) / (2.0 * kEps);
      error = std::max(error, std::fabs(numeric - analytic.data()[i]));
    }
    const double allowed = kRelTolerance * scale + kAbsTolerance;
    if (error / allowed > worst_error) {
      worst_error = error / allowed;
      *worst = name + " (gradient scale " + std::to_string(scale) +
               ", error " + std::to_string(error) + ")";
    }
  }
  return worst_error;
}

class ModelGradientTest : public ::testing::TestWithParam<AblationCase> {};

/// Mean MSE over `preds` against the targets of `nodes`.
ag::Var MeanMse(const std::vector<ag::Var>& preds,
                const std::vector<int32_t>& nodes, const TinyInputs& in) {
  GAIA_CHECK_EQ(preds.size(), nodes.size());
  std::vector<ag::Var> losses;
  for (size_t i = 0; i < nodes.size(); ++i) {
    losses.push_back(
        ag::MseLoss(preds[i], in.target[static_cast<size_t>(nodes[i])]));
  }
  return ag::ScalarMul(ag::AddN(losses),
                       1.0f / static_cast<float>(nodes.size()));
}

TEST_P(ModelGradientTest, BackwardMatchesFiniteDifferences) {
  std::unique_ptr<GaiaModel> model = TinyModel(GetParam().configure);
  const graph::EsellerGraph graph = TinyGraph();
  const TinyInputs in = MakeInputs();
  const std::vector<GaiaModel::NodeInput> inputs = NodeInputs(in);
  auto loss = [&] {
    return MeanMse(model->ForwardGraph(graph, inputs), {0, 1, 2, 3}, in);
  };
  std::string worst;
  const double error = ModelGradientError(*model, loss, &worst);
  EXPECT_LT(error, 1.0) << "worst parameter: " << worst;
}

// A loss over nodes {3, 2} needs only nodes 1-3: the forward then runs the
// pruned path, gathering rows at the last layer and at the head.
TEST_P(ModelGradientTest, PrunedForwardBackwardMatchesFiniteDifferences) {
  std::unique_ptr<GaiaModel> model = TinyModel(GetParam().configure);
  const graph::EsellerGraph graph = TinyGraph();
  const TinyInputs in = MakeInputs();
  const std::vector<GaiaModel::NodeInput> inputs = NodeInputs(in);
  const std::vector<int32_t> outputs = {3, 2};
  auto loss = [&] {
    ag::Var preds = model->ForwardGraphBatched(graph, inputs, outputs);
    GAIA_CHECK(preds != nullptr);
    return MeanMse({ag::SelectRow(preds, 0), ag::SelectRow(preds, 1)},
                   outputs, in);
  };
  std::string worst;
  const double error = ModelGradientError(*model, loss, &worst);
  EXPECT_LT(error, 1.0) << "worst parameter: " << worst;
}

INSTANTIATE_TEST_SUITE_P(
    Ablations, ModelGradientTest,
    ::testing::Values(
        AblationCase{"gaia", [](GaiaConfig*) {}},
        AblationCase{"no_ita", [](GaiaConfig* c) { c->use_ita = false; }},
        AblationCase{"no_ffl", [](GaiaConfig* c) { c->use_ffl = false; }},
        AblationCase{"no_tel", [](GaiaConfig* c) { c->use_tel = false; }},
        AblationCase{"no_causal_mask",
                     [](GaiaConfig* c) { c->causal_mask = false; }},
        AblationCase{"two_cau_heads",
                     [](GaiaConfig* c) { c->cau_heads = 2; }}),
    [](const ::testing::TestParamInfo<AblationCase>& info) {
      return std::string(info.param.name);
    });

TEST(InferenceScopeTest, ForwardIsBitwiseTheTapedOneAndKeepsNoGraph) {
  std::unique_ptr<GaiaModel> model = TinyModel([](GaiaConfig*) {});
  const graph::EsellerGraph graph = TinyGraph();
  const TinyInputs in = MakeInputs();
  const std::vector<GaiaModel::NodeInput> inputs = NodeInputs(in);
  const std::vector<ag::Var> taped = model->ForwardGraph(graph, inputs);
  ASSERT_EQ(taped.size(), static_cast<size_t>(kNodes));
  ASSERT_FALSE(taped[0]->parents.empty()) << "a taped forward records parents";
  ASSERT_FALSE(ag::InferenceScope::Active());
  std::vector<ag::Var> untaped;
  {
    ag::InferenceScope no_tape;
    EXPECT_TRUE(ag::InferenceScope::Active());
    untaped = model->ForwardGraph(graph, inputs);
  }
  EXPECT_FALSE(ag::InferenceScope::Active());
  ASSERT_EQ(untaped.size(), taped.size());
  for (size_t v = 0; v < taped.size(); ++v) {
    SCOPED_TRACE(v);
    ASSERT_TRUE(untaped[v]->value.SameShape(taped[v]->value));
    EXPECT_EQ(std::memcmp(untaped[v]->value.data(), taped[v]->value.data(),
                          sizeof(float) * static_cast<size_t>(
                                              taped[v]->value.size())),
              0);
    EXPECT_TRUE(untaped[v]->parents.empty());
    EXPECT_FALSE(untaped[v]->backward_fn);
    EXPECT_FALSE(untaped[v]->requires_grad);
  }
}

TEST(InferenceScopeTest, PoolWorkersRecordNoTapeEither) {
  const int saved = util::ThreadPool::GlobalThreads();
  util::ThreadPool::SetGlobalThreads(4);
  ag::Var param = ag::Parameter(Tensor::Ones({2, 2}));
  constexpr int64_t kChunks = 32;
  auto build_on_pool = [&](std::set<std::thread::id>* threads) {
    std::vector<ag::Var> out(kChunks);
    std::mutex mu;
    util::ParallelFor(kChunks, [&](int64_t i) {
      // Long enough that idle workers claim chunks too.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      out[static_cast<size_t>(i)] = ag::Mul(param, param);
      std::lock_guard<std::mutex> lock(mu);
      threads->insert(std::this_thread::get_id());
    });
    return out;
  };
  std::set<std::thread::id> taped_threads, untaped_threads;
  const std::vector<ag::Var> taped = build_on_pool(&taped_threads);
  std::vector<ag::Var> untaped;
  {
    ag::InferenceScope no_tape;
    untaped = build_on_pool(&untaped_threads);
  }
  util::ThreadPool::SetGlobalThreads(saved);
  EXPECT_GT(untaped_threads.size(), 1u) << "no pool worker ran a chunk";
  for (int64_t i = 0; i < kChunks; ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(taped[static_cast<size_t>(i)]->parents.size(), 2u);
    EXPECT_TRUE(untaped[static_cast<size_t>(i)]->parents.empty());
    EXPECT_FALSE(untaped[static_cast<size_t>(i)]->requires_grad);
  }
}

}  // namespace
}  // namespace gaia::core
