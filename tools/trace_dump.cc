// Captures a Chrome trace_event JSON profile of one training step plus one
// serving batch at detail level: open the output in chrome://tracing or
// https://ui.perfetto.dev to see the span hierarchy (model.forward_graph >
// ita_gcn.forward > ita_gcn.attend > cau.attend) and the batched kernels'
// chunks across pool threads.
//
//   ./build/tools/trace_dump --out /tmp/gaia_trace.json --threads 4
//
// Flags: --out <path>  --threads <n>  --shops <n>  --seed <n>  --phase-only
//        --empty (skip the workload; dump the empty ring as valid JSON)

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "autograd/ops.h"
#include "autograd/variable.h"
#include "core/gaia_model.h"
#include "data/dataset.h"
#include "data/market_simulator.h"
#include "obs/obs.h"
#include "serving/model_server.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace gaia {
namespace {

struct Options {
  std::string out = "gaia_trace.json";
  int threads = 0;
  int64_t shops = 80;
  uint64_t seed = 7;
  bool phase_only = false;  // kOn instead of kDetail
  bool empty = false;       // no workload: prove the empty dump is valid
};

Options ParseArgs(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      GAIA_CHECK_LT(i + 1, argc) << "missing value for " << arg;
      return argv[++i];
    };
    if (arg == "--out") {
      options.out = next();
    } else if (arg == "--threads") {
      options.threads = std::atoi(next());
    } else if (arg == "--shops") {
      options.shops = std::atoll(next());
    } else if (arg == "--seed") {
      options.seed = static_cast<uint64_t>(std::atoll(next()));
    } else if (arg == "--phase-only") {
      options.phase_only = true;
    } else if (arg == "--empty") {
      options.empty = true;
    } else {
      std::cerr << "unknown flag: " << arg << "\n";
      std::exit(2);
    }
  }
  return options;
}

}  // namespace
}  // namespace gaia

int main(int argc, char** argv) {
  using namespace gaia;
  namespace ag = autograd;
  const Options options = ParseArgs(argc, argv);

  obs::SetLevel(options.phase_only ? obs::Level::kOn : obs::Level::kDetail);
  obs::TraceBuffer::Global().Clear();
  if (options.threads > 0) {
    util::ThreadPool::SetGlobalThreads(options.threads);
  }

  if (!options.empty) {
    data::MarketConfig market_cfg;
    market_cfg.num_shops = options.shops;
    market_cfg.seed = options.seed;
    auto market = data::MarketSimulator(market_cfg).Generate();
    GAIA_CHECK(market.ok()) << market.status().ToString();
    auto dataset = std::make_shared<data::ForecastDataset>(
        std::move(data::ForecastDataset::Create(market.value(),
                                                data::DatasetOptions{}))
            .value());

    core::GaiaConfig model_cfg;
    model_cfg.channels = 8;
    model_cfg.tel_groups = 2;
    model_cfg.seed = options.seed;
    auto model_result = core::GaiaModel::Create(
        model_cfg, dataset->history_len(), dataset->horizon(),
        dataset->temporal_dim(), dataset->static_dim());
    GAIA_CHECK(model_result.ok()) << model_result.status().ToString();
    std::shared_ptr<core::GaiaModel> model = std::move(model_result).value();

    // One training step (forward + loss + backward) ...
    Rng rng(options.seed);
    ag::Var loss = model->TrainingLoss(*dataset, dataset->train_nodes(),
                                       /*training=*/true, &rng);
    model->ZeroGrad();
    ag::Backward(loss);

    // ... and one serving sweep over the test shops.
    serving::ServerConfig server_cfg;
    server_cfg.seed = options.seed;
    serving::ModelServer server(model, dataset, server_cfg);
    server.PredictBatch(dataset->test_nodes());
  }

  // With --empty the ring has zero spans; DumpChromeTrace must still emit a
  // well-formed Chrome trace document (pinned by ObsTest regressions).
  std::ofstream file(options.out);
  GAIA_CHECK(file.good()) << "cannot open " << options.out;
  obs::TraceBuffer::Global().DumpChromeTrace(file);
  const obs::TraceBuffer& buffer = obs::TraceBuffer::Global();
  std::cerr << "wrote " << options.out << ": "
            << (buffer.total_recorded() - buffer.dropped())
            << " spans retained, " << buffer.dropped()
            << " dropped (ring capacity "
            << obs::TraceBuffer::kDefaultCapacity << ")\n";
  return 0;
}
