// Tensor-kernel layer of the perf suite: the hot kernels under Gaia (the
// cases formerly in the google-benchmark bench/micro_ops driver). Small
// kernels run an inner batch per repetition so one repetition stays well
// above timer resolution; items_per_rep reflects the batch.

#include <memory>
#include <string>

#include "bench/harness/suites.h"
#include "core/cau.h"
#include "core/gaia_model.h"
#include "data/dataset.h"
#include "data/market_simulator.h"
#include "graph/eseller_graph.h"
#include "tensor/tensor_ops.h"
#include "util/rng.h"

namespace gaia::bench::harness {

namespace {

/// Shared 200-shop market for the graph/inference cases — the same fixture
/// shape the scaling and deployment suites use, so numbers are comparable
/// across layers.
struct InferenceFixture {
  InferenceFixture() {
    data::MarketConfig cfg;
    cfg.num_shops = 200;
    cfg.seed = 9;
    auto market = data::MarketSimulator(cfg).Generate();
    dataset = std::make_unique<data::ForecastDataset>(
        std::move(data::ForecastDataset::Create(market.value(),
                                                data::DatasetOptions{}))
            .value());
    core::GaiaConfig gaia_cfg;
    gaia_cfg.channels = 16;
    model = std::move(core::GaiaModel::Create(
                          gaia_cfg, dataset->history_len(), dataset->horizon(),
                          dataset->temporal_dim(), dataset->static_dim()))
                .value();
  }
  std::unique_ptr<data::ForecastDataset> dataset;
  std::unique_ptr<core::GaiaModel> model;
};

InferenceFixture& Fixture() {
  static InferenceFixture* fixture = new InferenceFixture();
  return *fixture;
}

}  // namespace

void RegisterTensorCases(Harness& harness) {
  const CaseOptions tensor_tag{{"tensor"}, 0, -1, -1};

  for (int64_t n : {int64_t{24}, int64_t{64}, int64_t{128}}) {
    const int inner = n <= 24 ? 32 : (n <= 64 ? 4 : 1);
    Rng rng(1);
    auto a = std::make_shared<Tensor>(Tensor::Randn({n, n}, &rng));
    auto b = std::make_shared<Tensor>(Tensor::Randn({n, n}, &rng));
    CaseOptions options = tensor_tag;
    options.items_per_rep = inner * n * n * n;  // multiply-adds
    harness.AddCase(
        "tensor.matmul_" + std::to_string(n),
        [a, b, inner] {
          for (int i = 0; i < inner; ++i) KeepAlive(MatMul(*a, *b));
        },
        options);
  }

  // Packed-vs-naive pair at a shape squarely in the packed regime. The CI
  // perf job requires matmul_packed_256 to beat matmul_naive_256 within the
  // same run (tools/ci.sh perf), so the blocked kernel can never silently
  // regress back to memory-bound behavior.
  {
    const int64_t n = 256;
    Rng rng(11);
    auto a = std::make_shared<Tensor>(Tensor::Randn({n, n}, &rng));
    auto b = std::make_shared<Tensor>(Tensor::Randn({n, n}, &rng));
    CaseOptions options = tensor_tag;
    options.items_per_rep = n * n * n;  // multiply-adds
    harness.AddCase(
        "tensor.matmul_packed_256",
        [a, b] { KeepAlive(MatMulPacked(*a, *b)); }, options);
    harness.AddCase(
        "tensor.matmul_naive_256",
        [a, b] { KeepAlive(MatMulNaive(*a, *b)); }, options);
  }

  for (int64_t c : {int64_t{16}, int64_t{32}}) {
    const int inner = c <= 16 ? 16 : 8;
    const int64_t t_len = 24;
    Rng rng(2);
    auto input = std::make_shared<Tensor>(Tensor::Randn({t_len, c}, &rng));
    auto weight = std::make_shared<Tensor>(Tensor::Randn({c, 3, c}, &rng));
    auto bias = std::make_shared<Tensor>(Tensor::Randn({c}, &rng));
    CaseOptions options = tensor_tag;
    options.items_per_rep = inner;
    harness.AddCase(
        "tensor.conv1d_" + std::to_string(c),
        [input, weight, bias, inner] {
          for (int i = 0; i < inner; ++i) {
            KeepAlive(Conv1d(*input, *weight, *bias, PadMode::kCausal, 1));
          }
        },
        options);
  }

  for (int64_t t_len : {int64_t{24}, int64_t{96}}) {
    const int inner = t_len <= 24 ? 64 : 8;
    Rng rng(3);
    auto logits =
        std::make_shared<Tensor>(Tensor::Randn({t_len, t_len}, &rng));
    CaseOptions options = tensor_tag;
    options.items_per_rep = inner;
    harness.AddCase(
        "tensor.softmax_rows_" + std::to_string(t_len),
        [logits, inner] {
          for (int i = 0; i < inner; ++i) KeepAlive(SoftmaxRows(*logits));
        },
        options);
  }

  for (int64_t c : {int64_t{16}, int64_t{32}}) {
    const int inner = c <= 16 ? 8 : 4;
    const int64_t t_len = 24;
    auto rng = std::make_shared<Rng>(4);
    auto cau = std::make_shared<core::ConvAttentionUnit>(c, rng.get());
    auto h_u = std::make_shared<autograd::Var>(
        autograd::Constant(Tensor::Randn({t_len, c}, rng.get())));
    auto h_v = std::make_shared<autograd::Var>(
        autograd::Constant(Tensor::Randn({t_len, c}, rng.get())));
    CaseOptions options = tensor_tag;
    options.items_per_rep = inner;
    harness.AddCase(
        "tensor.cau_forward_" + std::to_string(c),
        [cau, h_u, h_v, inner] {
          for (int i = 0; i < inner; ++i) KeepAlive(cau->Forward(*h_u, *h_v));
        },
        options);
  }

  {
    const int inner = 32;
    CaseOptions options = tensor_tag;
    options.items_per_rep = inner;  // subgraphs extracted
    harness.AddCase(
        "tensor.ego_extraction",
        [inner] {
          auto& fx = Fixture();
          Rng rng(5);  // reseeded per repetition: identical subgraph sample
          int32_t shop = 0;
          for (int i = 0; i < inner; ++i) {
            KeepAlive(
                graph::ExtractEgoSubgraph(fx.dataset->graph(), shop, 2, 10,
                                          &rng));
            shop = (shop + 1) %
                   static_cast<int32_t>(fx.dataset->num_nodes());
          }
        },
        options);
  }

  {
    const int inner = 4;
    CaseOptions options = tensor_tag;
    options.items_per_rep = inner;  // shops predicted
    harness.AddCase(
        "tensor.single_shop_inference",
        [inner] {
          auto& fx = Fixture();
          Rng rng(6);
          int32_t shop = 0;
          for (int i = 0; i < inner; ++i) {
            auto ego = graph::ExtractEgoSubgraph(fx.dataset->graph(), shop, 2,
                                                 10, &rng);
            KeepAlive(fx.model->PredictEgo(*fx.dataset, ego).value());
            shop = (shop + 1) %
                   static_cast<int32_t>(fx.dataset->num_nodes());
          }
        },
        options);
  }
}

}  // namespace gaia::bench::harness
