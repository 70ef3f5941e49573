// Sharded-serving layer of the perf suite: concurrent-client QPS through
// serving::ShardedServer at 1, 2 and 4 shards, plus one single-caller
// batch. Behind bench/serve_throughput and folded into bench/perf_suite so
// the CI perf gate (tools/bench_compare) tracks the tier's throughput.
//
// Each repetition pushes a fixed request stream through a *persistent*
// sharded server (construction/teardown is measured separately as
// serve.sharded_spinup) from kClients concurrent client threads, so the
// measured wall time is the end-to-end answer rate the tier sustains.
// Requests are answered on their client's thread, so the shard count only
// relabels them; the three QPS cases should read the same. items_per_rep is
// the request count, so gaia.bench/1 carries QPS directly.

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness/suites.h"
#include "core/gaia_model.h"
#include "data/dataset.h"
#include "data/market_simulator.h"
#include "serving/sharded_server.h"
#include "util/thread_pool.h"

namespace gaia::bench::harness {

namespace {

constexpr int kClients = 4;
constexpr int kRequestsPerRep = 64;

/// Same 200-shop market as the deployment suite; one persistent
/// ShardedServer per benchmarked shard count. Predict serves inline on the
/// client thread, so pool size only matters for the batch case.
struct ServeThroughputFixture {
  ServeThroughputFixture() {
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
    const std::vector<int32_t>& clients = dataset->test_nodes();
    stream.reserve(kRequestsPerRep);
    for (int i = 0; i < kRequestsPerRep; ++i) {
      stream.push_back(clients[static_cast<size_t>(i) % clients.size()]);
    }
  }

  serving::ShardedServer& ServerFor(int shards) {
    auto it = servers.find(shards);
    if (it != servers.end()) return *it->second;
    serving::ShardedServerConfig cfg;
    cfg.num_shards = shards;
    auto server =
        std::make_unique<serving::ShardedServer>(model, dataset, cfg);
    auto* raw = server.get();
    servers.emplace(shards, std::move(server));
    return *raw;
  }

  std::shared_ptr<data::ForecastDataset> dataset;
  std::shared_ptr<core::GaiaModel> model;
  std::vector<int32_t> stream;
  std::map<int, std::unique_ptr<serving::ShardedServer>> servers;
};

ServeThroughputFixture& Fixture() {
  static ServeThroughputFixture* fixture = new ServeThroughputFixture();
  return *fixture;
}

/// One repetition: kClients threads drain the shared request stream.
void HammerOnce(serving::ShardedServer& server,
                const std::vector<int32_t>& stream) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      size_t i;
      while ((i = next.fetch_add(1)) < stream.size()) {
        KeepAlive(server.Predict(stream[i]));
      }
    });
  }
  for (auto& t : clients) t.join();
}

}  // namespace

void RegisterServeThroughputCases(Harness& harness) {
  for (int shards : {1, 2, 4}) {
    CaseOptions options{{"serve_throughput"}, kRequestsPerRep, -1, -1};
    harness.AddCase(
        "serve.sharded_qps_" + std::to_string(shards),
        [shards] {
          auto& fx = Fixture();
          HammerOnce(fx.ServerFor(shards), fx.stream);
        },
        options);
  }
  {
    // Single-caller batch through the sharded tier: the pool fan-out the
    // monthly sweep uses, directly comparable to deployment.predict_batch_32.
    CaseOptions options{{"serve_throughput"}, 32, -1, -1};
    harness.AddCase(
        "serve.sharded_batch_32",
        [] {
          auto& fx = Fixture();
          std::vector<int32_t> batch(fx.stream.begin(),
                                     fx.stream.begin() + 32);
          KeepAlive(fx.ServerFor(4).PredictBatch(batch));
        },
        options);
  }
  {
    // Tier spin-up/teardown: one generation and K shard counters.
    CaseOptions options{{"serve_throughput"}, 0, -1, -1};
    harness.AddCase(
        "serve.sharded_spinup_4",
        [] {
          auto& fx = Fixture();
          serving::ShardedServerConfig cfg;
          cfg.num_shards = 4;
          serving::ShardedServer server(fx.model, fx.dataset, cfg);
          KeepAlive(server.Predict(fx.stream.front()));
        },
        options);
  }
}

}  // namespace gaia::bench::harness
