// Thread-scaling layer of the perf suite: the fixed workloads formerly in
// the google-benchmark bench/parallel_scaling driver, swept over pool
// sizes. Forecast values are bitwise identical across the sweep (see
// tests/parallel_determinism_test.cc); only wall time may change.

#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "autograd/variable.h"
#include "bench/harness/suites.h"
#include "core/gaia_model.h"
#include "data/dataset.h"
#include "data/market_simulator.h"
#include "tensor/tensor_ops.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace gaia::bench::harness {

namespace {

// Same market as the tensor suite so numbers are comparable across layers.
struct ScalingFixture {
  ScalingFixture() {
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
    all_nodes.resize(dataset->num_nodes());
    std::iota(all_nodes.begin(), all_nodes.end(), 0);
  }
  std::unique_ptr<data::ForecastDataset> dataset;
  std::unique_ptr<core::GaiaModel> model;
  std::vector<int32_t> all_nodes;
};

ScalingFixture& Fixture() {
  static ScalingFixture* fixture = new ScalingFixture();
  return *fixture;
}

}  // namespace

void RegisterScalingCases(Harness& harness, std::vector<int> thread_counts) {
  for (int threads : thread_counts) {
    const std::string suffix = "_t" + std::to_string(threads);
    CaseOptions options{{"scaling"}, 0, -1, -1};

    // Full-graph Gaia forward over every shop: the headline number for the
    // >= 2x-at-4-threads scaling claim (flat on single-core hosts).
    options.items_per_rep = 200;  // shops
    harness.AddCase(
        "scaling.forward_graph" + suffix,
        [threads] {
          auto& fx = Fixture();
          util::ThreadPool::SetGlobalThreads(threads);
          KeepAlive(fx.model->PredictNodes(*fx.dataset, fx.all_nodes,
                                           /*training=*/false, nullptr));
        },
        options);

    // One full training step: forward + loss + backward over the whole
    // graph. Backward stays serial, so this shows the Amdahl ceiling.
    options.items_per_rep = 0;
    harness.AddCase(
        "scaling.train_step" + suffix,
        [threads] {
          auto& fx = Fixture();
          util::ThreadPool::SetGlobalThreads(threads);
          Rng rng(11);
          autograd::Var loss = fx.model->TrainingLoss(
              *fx.dataset, fx.all_nodes, /*training=*/true, &rng);
          fx.model->ZeroGrad();
          autograd::Backward(loss);
          KeepAlive(loss->value.data());
        },
        options);

    // Raw tensor kernel above the parallel grain threshold.
    options.items_per_rep = int64_t{256} * 256 * 256;  // multiply-adds
    harness.AddCase(
        "scaling.matmul256" + suffix,
        [threads] {
          util::ThreadPool::SetGlobalThreads(threads);
          static Rng rng(1);
          static const Tensor a = Tensor::Randn({256, 256}, &rng);
          static const Tensor b = Tensor::Randn({256, 256}, &rng);
          KeepAlive(MatMul(a, b));
        },
        options);
  }
}

}  // namespace gaia::bench::harness
