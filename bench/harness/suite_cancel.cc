// Cancellation layer of the perf suite: how much wall clock a cooperative
// mid-flight abort saves over the legacy check-after-forward deadline. Each
// deadline level is measured twice on otherwise identical servers — one with
// cooperative_cancel (the token fires mid-forward and the request unwinds at
// the next chunk boundary), one with the post-hoc check (the forward always
// runs to completion before the overrun is noticed). The per-pair gap IS the
// latency saved; tight budgets show the largest win, a generous budget shows
// the armed-but-unfired token costing nothing.

#include <memory>
#include <vector>

#include "bench/harness/suites.h"
#include "core/gaia_model.h"
#include "data/dataset.h"
#include "data/market_simulator.h"
#include "serving/model_server.h"
#include "util/thread_pool.h"

namespace gaia::bench::harness {

namespace {

// Same 200-shop market as the deployment suite; the fixture pins the pool
// back to the process default so a preceding scaling sweep cannot leak its
// last thread count into these numbers.
struct CancelFixture {
  CancelFixture() {
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
    serving::ServerConfig coop_cfg;
    cooperative = std::make_unique<serving::ModelServer>(model, dataset,
                                                         coop_cfg);
    serving::ServerConfig posthoc_cfg = coop_cfg;
    posthoc_cfg.cooperative_cancel = false;
    posthoc = std::make_unique<serving::ModelServer>(model, dataset,
                                                     posthoc_cfg);
    const std::vector<int32_t>& clients = dataset->test_nodes();
    shops.reserve(8);
    for (int i = 0; i < 8; ++i) {
      shops.push_back(clients[static_cast<size_t>(i) % clients.size()]);
    }
  }

  std::shared_ptr<data::ForecastDataset> dataset;
  std::shared_ptr<core::GaiaModel> model;
  std::unique_ptr<serving::ModelServer> cooperative;
  std::unique_ptr<serving::ModelServer> posthoc;
  std::vector<int32_t> shops;
};

CancelFixture& Fixture() {
  static CancelFixture* fixture = new CancelFixture();
  return *fixture;
}

void AddDeadlinePair(Harness& harness, const char* level, double deadline_ms) {
  const int inner = 8;
  CaseOptions options{{"cancel"}, inner, -1, -1};
  harness.AddCase(
      std::string("cancel.serve_deadline_abort.") + level,
      [inner, deadline_ms] {
        auto& fx = Fixture();
        for (int i = 0; i < inner; ++i) {
          KeepAlive(fx.cooperative->Predict(
              fx.shops[static_cast<size_t>(i) % fx.shops.size()],
              deadline_ms));
        }
      },
      options);
  harness.AddCase(
      std::string("cancel.serve_deadline_posthoc.") + level,
      [inner, deadline_ms] {
        auto& fx = Fixture();
        for (int i = 0; i < inner; ++i) {
          KeepAlive(fx.posthoc->Predict(
              fx.shops[static_cast<size_t>(i) % fx.shops.size()],
              deadline_ms));
        }
      },
      options);
}

}  // namespace

void RegisterCancelCases(Harness& harness) {
  // Three budget levels against a single-shop forward that costs on the
  // order of a millisecond at this scale: one the forward always overruns
  // immediately, one it overruns partway through, one it never hits.
  AddDeadlinePair(harness, "tight_50us", 0.05);
  AddDeadlinePair(harness, "mid_500us", 0.5);
  AddDeadlinePair(harness, "loose_50ms", 50.0);
}

}  // namespace gaia::bench::harness
