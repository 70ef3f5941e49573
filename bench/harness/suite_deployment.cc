// Deployment layer of the perf suite: the end-to-end serve path behind
// bench/deployment_sim — single ego-subgraph predictions, the monthly
// batch sweep shape, and the checkpoint save + verify-then-swap reload that
// the scheduler runs every cycle.

#include <cstdio>
#include <memory>
#include <string>
#include <unistd.h>
#include <vector>

#include "bench/harness/suites.h"
#include "core/gaia_model.h"
#include "data/dataset.h"
#include "data/market_simulator.h"
#include "serving/model_server.h"
#include "util/thread_pool.h"

namespace gaia::bench::harness {

namespace {

// Same 200-shop market as the other suites. The model is untrained —
// weights do not change the serve-path cost — and the fixture pins the pool
// back to the process default so a preceding scaling sweep cannot leak its
// last thread count into the serving numbers.
struct DeploymentFixture {
  DeploymentFixture() {
    data::MarketConfig cfg;
    cfg.num_shops = 200;
    cfg.seed = 9;
    auto market = data::MarketSimulator(cfg).Generate();
    dataset = std::make_shared<data::ForecastDataset>(
        std::move(data::ForecastDataset::Create(market.value(),
                                                data::DatasetOptions{}))
            .value());
    core::GaiaConfig gaia_cfg;
    gaia_cfg.channels = 16;
    model = std::move(core::GaiaModel::Create(
                          gaia_cfg, dataset->history_len(), dataset->horizon(),
                          dataset->temporal_dim(), dataset->static_dim()))
                .value();
    util::ThreadPool::SetGlobalThreads(util::ThreadPool::DefaultThreads());
    serving::ServerConfig server_cfg;
    server = std::make_unique<serving::ModelServer>(model, dataset,
                                                    server_cfg);
    checkpoint_path = "/tmp/gaia_bench_ckpt_" +
                      std::to_string(static_cast<long>(::getpid())) + ".bin";
    batch.reserve(32);
    const std::vector<int32_t>& clients = dataset->test_nodes();
    for (int i = 0; i < 32; ++i) {
      batch.push_back(clients[static_cast<size_t>(i) % clients.size()]);
    }
  }
  ~DeploymentFixture() { std::remove(checkpoint_path.c_str()); }

  std::shared_ptr<data::ForecastDataset> dataset;
  std::shared_ptr<core::GaiaModel> model;
  std::unique_ptr<serving::ModelServer> server;
  std::vector<int32_t> batch;
  std::string checkpoint_path;
};

DeploymentFixture& Fixture() {
  static DeploymentFixture* fixture = new DeploymentFixture();
  return *fixture;
}

}  // namespace

void RegisterDeploymentCases(Harness& harness) {
  {
    const int inner = 8;
    CaseOptions options{{"deployment"}, inner, -1, -1};
    harness.AddCase(
        "deployment.predict_single",
        [inner] {
          auto& fx = Fixture();
          for (int i = 0; i < inner; ++i) {
            KeepAlive(fx.server->Predict(
                fx.batch[static_cast<size_t>(i) % fx.batch.size()]));
          }
        },
        options);
  }

  {
    CaseOptions options{{"deployment"}, 32, -1, -1};
    harness.AddCase(
        "deployment.predict_batch_32",
        [] {
          auto& fx = Fixture();
          KeepAlive(fx.server->PredictBatch(fx.batch));
        },
        options);
  }

  {
    CaseOptions options{{"deployment"}, 0, -1, -1};
    harness.AddCase(
        "deployment.checkpoint_save_load",
        [] {
          auto& fx = Fixture();
          KeepAlive(fx.model->Save(fx.checkpoint_path));
          KeepAlive(fx.server->LoadCheckpoint(fx.checkpoint_path));
        },
        options);
  }
}

}  // namespace gaia::bench::harness
