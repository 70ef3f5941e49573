#include "workload.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "bench/harness/stats.h"
#include "core/evaluator.h"
#include "core/gaia_model.h"
#include "core/trainer.h"
#include "data/dataset.h"
#include "data/market_simulator.h"
#include "obs/metrics.h"
#include "replay.h"
#include "serving/checkpoint_store.h"
#include "serving/model_server.h"
#include "serving/sharded_server.h"
#include "spans.h"
#include "stats.h"
#include "util/check.h"
#include "util/fault_injector.h"
#include "util/thread_pool.h"

namespace gaia::bench {

namespace {

namespace fs = std::filesystem;

/// Sizes of one run. The full scale is the workload table in README.md;
/// --smoke shrinks it for the smoke test.
struct Scale {
  int64_t shops = 300;
  int setups = 3;           ///< set-ups per run; setup_s is their median
  int setup_epochs = 2;     ///< epochs of each serving checkpoint
  int cycle_epochs = 20;    ///< epochs of each monthly retrain
  int pass_requests = 300;  ///< online requests between fault re-arms
  int skewed_stream = 6000;
  int churn_stream = 4000;
  int replay_requests = 1000;
  int split_requests = 200;  ///< replayed requests also split into modules
};

Scale ScaleFor(const RunOptions& options) {
  Scale scale;
  if (options.smoke) {
    scale.shops = 60;
    scale.setups = 1;
    scale.cycle_epochs = 2;
    scale.pass_requests = 200;
    scale.skewed_stream = 200;
    scale.churn_stream = 200;
    scale.replay_requests = 100;
    scale.split_requests = 25;
  }
  return scale;
}

/// The market of record: the default 300-shop market (the seed the CLI's
/// `simulate` uses). It is fixed so that runs with different --seed values
/// differ in their traffic, not in the graph the traffic reaches.
constexpr uint64_t kMarketSeed = 42;
constexpr int kClients = 3;
constexpr int kShards = 4;
constexpr double kPublishPeriodMs = 250.0;
/// Forecasts per measurement window: one online pass or one sweep at full
/// scale.
constexpr size_t kWindowForecasts = 300;
/// Swaps an online_churn window must overlap, so that every window the
/// latency and throughput medians are taken over carries publish cost.
constexpr int64_t kChurnWindowSwaps = 2;
constexpr double kFaultProbability = 0.05;
constexpr const char* kFaultSite = "serving.forward";

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// FNV-1a over the bytes of `value`.
void Digest(uint64_t* digest, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    *digest ^= (value >> (8 * i)) & 0xffu;
    *digest *= 0x100000001b3ULL;
  }
}

bool SameBytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

uint64_t Counter(const char* name) {
  return obs::MetricsRegistry::Global().CounterValue(name);
}

double Median(const std::vector<double>& samples) {
  return harness::ComputeStats(samples).median;
}

/// Per span name, the summed self time in ms (duration minus the direct
/// children's) of the spans the trace ring holds, oldest first. Parents are
/// tracked per thread, so children never overlap each other. Once the ring
/// has wrapped, a span that started before the oldest held span ended may
/// have lost children, so it is left out.
std::map<std::string, double> SelfMs(const std::vector<obs::SpanRecord>& spans,
                                     bool wrapped) {
  std::unordered_map<uint64_t, uint64_t> child_ns;
  for (const obs::SpanRecord& span : spans) {
    if (span.parent_id != 0) child_ns[span.parent_id] += span.dur_ns;
  }
  const uint64_t complete_from =
      wrapped ? spans.front().start_ns + spans.front().dur_ns : 0;
  std::map<std::string, double> self_ms;
  for (const obs::SpanRecord& span : spans) {
    if (span.start_ns < complete_from) continue;
    const auto it = child_ns.find(span.id);
    const uint64_t children = it == child_ns.end() ? 0 : it->second;
    self_ms[span.name] +=
        (static_cast<double>(span.dur_ns) - static_cast<double>(children)) * 1e-6;
  }
  return self_ms;
}

/// Writes obs::TraceBuffer::Global() as Chrome trace_event JSON with the
/// request each span id answers in `otherData.request_of_span`; a span's
/// request is that of its nearest ancestor listed there. The Trace Event
/// Format reserves `otherData` for metadata, so viewers load the file as
/// usual.
bool WriteTrace(const std::string& path,
                const std::map<uint64_t, uint64_t>& request_of_span) {
  std::ostringstream dump;
  obs::TraceBuffer::Global().DumpChromeTrace(dump);
  std::string json = dump.str();
  GAIA_CHECK(!json.empty() && json.back() == '}') << "unexpected trace dump";
  json.pop_back();
  json += ",\"otherData\":{\"request_of_span\":{";
  bool first = true;
  for (const auto& [span, request] : request_of_span) {
    json += (first ? "\"" : ",\"") + std::to_string(span) +
            "\":" + std::to_string(request);
    first = false;
  }
  json += "}}}\n";
  std::ofstream out(path);
  out << json;
  return static_cast<bool>(out.flush());
}

/// A model generation that served answers, with everything needed to check
/// and replay them.
struct Generation {
  std::shared_ptr<core::GaiaModel> model;
  /// Per shop, the forecast rebuilt from public calls (ego extraction with
  /// the server's seed mix -> PredictEgo -> denormalize) on the in-memory
  /// model; each served model answer must equal it byte for byte. Empty
  /// until built.
  std::vector<std::vector<double>> reference;
  /// Built on first replay: a ModelServer over the same model, whose Serve
  /// the replay times, and the model's module split.
  std::unique_ptr<serving::ModelServer> replay_server;
  std::unique_ptr<ModuleSplit> split;
};

/// One dataset and the generations that served from it.
struct Scope {
  std::shared_ptr<const data::ForecastDataset> dataset;
  std::vector<Generation> generations;
};

/// One forecast as the measured phase received it.
struct Answer {
  int32_t shop = 0;
  int32_t scope = 0;
  /// Generation whose reference the bytes equal; -1 for fallback answers
  /// and until checked.
  int32_t generation = -1;
  bool fallback = false;
  bool nan_reason = false;  ///< degraded_reason names the poisoned forward
  std::vector<double> gmv;
  double server_ms = 0.0;  ///< Prediction::latency_ms
  double client_ms = 0.0;  ///< caller-timed wait for this forecast
  uint64_t span_id = 0;    ///< the caller's trace span (online, traced only)
};

/// Consecutive passes or sweeps holding at least kWindowForecasts forecasts
/// (and, in online_churn, overlapping at least kChurnWindowSwaps swaps).
/// Median latency, p95 and throughput are computed per window and the run
/// reports the median over its windows: the host's other tenants stall it
/// for a second or so at a time, which spoils a few windows but barely moves
/// their median, while a whole-run statistic takes every stall in.
struct Window {
  std::vector<double> latency_ms;  ///< per-forecast latency
  double seconds = 0.0;            ///< wall time of the window's calls
  int64_t swaps = 0;               ///< swaps completed during its calls
};

/// What one measured phase (untraced or traced) produced.
struct Phase {
  int64_t window_swaps = 0;  ///< swaps a window must overlap before it closes
  std::vector<Answer> answers;
  std::vector<Window> windows;
  double wall_s = 0.0;
  /// Publish + LoadCheckpoint swaps that ran during the phase.
  int64_t swaps = 0;
  int64_t faults_fired = 0;
  uint64_t pool_busy_ns = 0;
  /// Heap tensor allocations made while serving calls ran (they only count
  /// with observability on, i.e. in the traced phase).
  uint64_t serving_heap_allocs = 0;

  bool Full(const Window& window) const {
    return window.latency_ms.size() >= kWindowForecasts &&
           window.swaps >= window_swaps;
  }

  /// Adds one pass or sweep to the open window, opening a new one when the
  /// last is full.
  void AddUnit(const std::vector<double>& latency_ms, double seconds,
               int64_t swaps) {
    if (windows.empty() || Full(windows.back())) windows.emplace_back();
    Window& window = windows.back();
    window.latency_ms.insert(window.latency_ms.end(), latency_ms.begin(),
                             latency_ms.end());
    window.seconds += seconds;
    window.swaps += swaps;
  }

  /// Folds a short last window into the one before it.
  void CloseWindows() {
    if (windows.size() < 2 || Full(windows.back())) return;
    Window last = std::move(windows.back());
    windows.pop_back();
    windows.back().latency_ms.insert(windows.back().latency_ms.end(),
                                     last.latency_ms.begin(),
                                     last.latency_ms.end());
    windows.back().seconds += last.seconds;
    windows.back().swaps += last.swaps;
  }

  std::vector<double> AllLatencies() const {
    std::vector<double> all;
    for (const Window& window : windows) {
      all.insert(all.end(), window.latency_ms.begin(), window.latency_ms.end());
    }
    return all;
  }
};

class Runner {
 public:
  explicit Runner(const RunOptions& options)
      : options_(options),
        scale_(ScaleFor(options)),
        fault_seed_(SplitMix(options.seed ^ 0x5eedfa17ULL)),
        order_seed_(SplitMix(options.seed ^ 0x5eed0de5ULL)),
        workdir_(fs::path(options.workdir) /
                 (std::string(WorkloadName(options.workload)) + "-" +
                  std::to_string(static_cast<long>(::getpid())))) {
    online_ = options.workload == Workload::kOnlineSkewed ||
              options.workload == Workload::kOnlineChurn;
    churn_ = options.workload == Workload::kOnlineChurn;
    BuildStream();
  }

  ~Runner() {
    sharded_.reset();
    std::error_code ignored;
    fs::remove_all(workdir_, ignored);
  }

  RunReport Run();

 private:
  void BuildStream();
  /// The order a sweep asks for the shops in: a permutation drawn from the
  /// seed and the sweep's index.
  std::vector<int32_t> SweepOrder(int64_t shops, int sweep) const;
  std::shared_ptr<core::GaiaModel> NewModel(const data::ForecastDataset& ds,
                                            uint64_t init_seed) const;
  std::shared_ptr<core::GaiaModel> Train(const data::ForecastDataset& ds,
                                         uint64_t init_seed, int epochs,
                                         std::vector<double>* epoch_ms,
                                         core::TrainResult* result);
  std::shared_ptr<const data::ForecastDataset> MakeDataset(
      const data::MarketConfig& config);
  /// Publish -> LoadCheckpoint on the workload's server; returns the swap
  /// wall in ms.
  double Swap(const nn::Module& model, serving::ModelServer* server);

  void SetUp();
  Phase Measure(double seconds, bool traced);
  void MeasureOnline(double seconds, Phase* phase);
  void RunCycle(Phase* phase);
  /// One timed ModelServer::PredictBatch over `order`, recorded as one unit
  /// whose callers all waited for the whole sweep.
  void Sweep(serving::ModelServer& server, const std::vector<int32_t>& order,
             int32_t scope, Phase* phase);

  void BuildReferences(const std::vector<const Phase*>& phases);
  std::vector<double> ReferenceForecast(const core::GaiaModel& model,
                                        const data::ForecastDataset& ds,
                                        int32_t shop) const;
  /// Checks every answer of `phase`; returns how many were fallbacks.
  int64_t Check(Phase* phase, RunReport* report);
  void Replay(const Phase& traced, RunReport* report);

  RunOptions options_;
  Scale scale_;
  uint64_t fault_seed_;
  uint64_t order_seed_;
  fs::path workdir_;
  bool online_ = false;
  bool churn_ = false;
  serving::ServerConfig server_config_;
  core::GaiaConfig gaia_config_;
  std::vector<int32_t> stream_;
  uint64_t stream_digest_ = 0xcbf29ce484222325ULL;
  size_t stream_cursor_ = 0;

  // Live serving state, replaced by every set-up.
  std::vector<Scope> scopes_;
  std::unique_ptr<serving::CheckpointStore> store_;
  std::unique_ptr<serving::ShardedServer> sharded_;
  std::unique_ptr<serving::ModelServer> server_;
  std::vector<int32_t> all_shops_;

  // Replay inputs for the training step loop: the last Fit that served.
  std::shared_ptr<const data::ForecastDataset> fit_dataset_;
  core::TrainConfig fit_config_;
  std::vector<double> fit_history_;

  // Samples accumulated over the whole run.
  std::vector<double> setup_s_;
  std::vector<double> setup_epoch_ms_;
  std::vector<double> cycle_epoch_ms_;
  std::vector<double> cycle_s_;
  std::vector<double> cycle_mae_;
  std::vector<double> generate_ms_;
  std::vector<double> dataset_ms_;
  std::vector<double> publish_ms_;
  std::vector<double> load_ms_;
  std::vector<double> swap_ms_;
  /// Swaps completed so far; read by the clients while the publisher runs.
  std::atomic<int64_t> swaps_done_{0};
  double checkpoint_bytes_ = 0.0;
  /// Traced runs: trace span id -> request id (1 + the traced phase's
  /// answer index) for the caller and replay spans of each request.
  std::map<uint64_t, uint64_t> request_of_span_;
  int cycles_run_ = 0;
  int sweeps_run_ = 0;
};

std::vector<int32_t> Runner::SweepOrder(int64_t shops, int sweep) const {
  std::vector<int32_t> order(static_cast<size_t>(shops));
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int32_t>(i);
  Rng rng(SplitMix(order_seed_ + static_cast<uint64_t>(sweep)));
  rng.Shuffle(&order);
  return order;
}

void Runner::BuildStream() {
  if (!online_) {
    for (int32_t shop : SweepOrder(scale_.shops, 0)) {
      Digest(&stream_digest_, static_cast<uint64_t>(shop));
    }
    return;
  }
  Rng rng(SplitMix(options_.seed ^ 0x57eaf00dULL));
  const auto n = static_cast<int32_t>(scale_.shops);
  if (churn_) {
    stream_.resize(static_cast<size_t>(scale_.churn_stream));
    for (int32_t& shop : stream_) {
      shop = static_cast<int32_t>(rng.UniformInt(static_cast<uint32_t>(n)));
    }
    Digest(&stream_digest_, fault_seed_);
  } else {
    // Zipf(s = 1): popularity rank k has weight 1/k. Which shop holds which
    // rank is part of the market of record, so the hot set is the same for
    // every seed and the seed draws only the request sequence.
    std::vector<int32_t> permutation(static_cast<size_t>(n));
    for (int32_t i = 0; i < n; ++i) permutation[static_cast<size_t>(i)] = i;
    Rng popularity(kMarketSeed);
    popularity.Shuffle(&permutation);
    std::vector<double> cdf(static_cast<size_t>(n));
    double total = 0.0;
    for (int32_t k = 0; k < n; ++k) {
      total += 1.0 / static_cast<double>(k + 1);
      cdf[static_cast<size_t>(k)] = total;
    }
    stream_.resize(static_cast<size_t>(scale_.skewed_stream));
    for (int32_t& shop : stream_) {
      const double u = rng.Uniform() * total;
      const auto rank = static_cast<size_t>(
          std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      shop = permutation[std::min(rank, cdf.size() - 1)];
    }
  }
  for (int32_t shop : stream_) Digest(&stream_digest_, static_cast<uint64_t>(shop));
}

std::shared_ptr<core::GaiaModel> Runner::NewModel(
    const data::ForecastDataset& ds, uint64_t init_seed) const {
  core::GaiaConfig config = gaia_config_;
  config.seed = init_seed;
  auto created = core::GaiaModel::Create(config, ds.history_len(),
                                         ds.horizon(), ds.temporal_dim(),
                                         ds.static_dim());
  GAIA_CHECK(created.ok()) << created.status().ToString();
  return std::move(created).value();
}

std::shared_ptr<core::GaiaModel> Runner::Train(
    const data::ForecastDataset& ds, uint64_t init_seed, int epochs,
    std::vector<double>* epoch_ms, core::TrainResult* result) {
  std::shared_ptr<core::GaiaModel> model = NewModel(ds, init_seed);
  core::TrainConfig config;
  config.max_epochs = epochs;
  config.eval_every = 5;
  config.patience = 1 << 20;  // early stopping off: every epoch runs
  {
    Timed span("bench.fit");
    *result = core::Trainer(config).Fit(model.get(), ds);
  }
  GAIA_CHECK_EQ(result->epochs_run, epochs);
  epoch_ms->push_back(result->seconds * 1e3 / result->epochs_run);
  fit_config_ = config;
  return model;
}

std::shared_ptr<const data::ForecastDataset> Runner::MakeDataset(
    const data::MarketConfig& config) {
  Result<data::MarketData> market = Status::Internal("not generated");
  {
    Timed span("bench.generate");
    market = data::MarketSimulator(config).Generate();
    generate_ms_.push_back(span.Us() * 1e-3);
  }
  GAIA_CHECK(market.ok()) << market.status().ToString();
  Result<data::ForecastDataset> dataset = Status::Internal("not built");
  {
    Timed span("bench.dataset");
    dataset =
        data::ForecastDataset::Create(market.value(), data::DatasetOptions{});
    dataset_ms_.push_back(span.Us() * 1e-3);
  }
  GAIA_CHECK(dataset.ok()) << dataset.status().ToString();
  return std::make_shared<const data::ForecastDataset>(
      std::move(dataset).value());
}

double Runner::Swap(const nn::Module& model, serving::ModelServer* server) {
  Timed swap("bench.swap");
  Result<std::string> published = Status::Internal("not published");
  {
    Timed span("bench.publish");
    published = store_->Publish(model);
    publish_ms_.push_back(span.Us() * 1e-3);
  }
  GAIA_CHECK(published.ok()) << published.status().ToString();
  Status loaded;
  {
    Timed span("bench.load_checkpoint");
    loaded = server != nullptr ? server->LoadCheckpoint(*store_)
                               : sharded_->LoadCheckpoint(*store_);
    load_ms_.push_back(span.Us() * 1e-3);
  }
  const double ms = swap.Us() * 1e-3;
  swap_ms_.push_back(ms);
  swaps_done_.fetch_add(1);
  GAIA_CHECK(loaded.ok()) << loaded.ToString();
  checkpoint_bytes_ =
      static_cast<double>(fs::file_size(published.value()));
  return ms;
}

/// Set-up: market -> dataset -> serving checkpoint(s) -> server -> publish
/// + load -> one warm request per shop. Everything a later change could move
/// out of the request path (tables, caches) lands here and shows in setup_s.
void Runner::SetUp() {
  sharded_.reset();
  server_.reset();
  scopes_.clear();
  Timed setup("bench.setup");
  data::MarketConfig market;
  market.num_shops = scale_.shops;
  market.seed = kMarketSeed;
  std::shared_ptr<const data::ForecastDataset> dataset = MakeDataset(market);

  Scope scope;
  scope.dataset = dataset;
  core::TrainResult trained;
  scope.generations.emplace_back();
  scope.generations.back().model =
      Train(*dataset, 1, scale_.setup_epochs, &setup_epoch_ms_, &trained);
  fit_dataset_ = dataset;
  fit_history_ = trained.train_loss_history;
  if (churn_) {
    // The second checkpoint the publisher alternates with.
    core::TrainResult second;
    scope.generations.emplace_back();
    scope.generations.back().model =
        Train(*dataset, 2, scale_.setup_epochs, &setup_epoch_ms_, &second);
  }

  std::error_code ignored;
  fs::remove_all(workdir_, ignored);
  serving::CheckpointStoreConfig store_config;
  store_config.dir = (workdir_ / "store").string();
  store_ = std::make_unique<serving::CheckpointStore>(store_config);

  // The server starts on an untrained shell, so the set-up's load is what
  // puts the trained weights into service.
  {
    Timed span("bench.start_server");
    std::shared_ptr<core::GaiaModel> shell = NewModel(*dataset, 1);
    if (online_) {
      serving::ShardedServerConfig config;
      config.num_shards = kShards;
      config.server = server_config_;
      sharded_ = std::make_unique<serving::ShardedServer>(shell, dataset,
                                                          config);
    } else {
      server_ = std::make_unique<serving::ModelServer>(shell, dataset,
                                                       server_config_);
    }
  }
  Swap(*scope.generations.front().model, server_.get());
  all_shops_.resize(static_cast<size_t>(dataset->num_nodes()));
  for (size_t i = 0; i < all_shops_.size(); ++i) {
    all_shops_[i] = static_cast<int32_t>(i);
  }
  {
    Timed span("bench.warm");
    if (online_) {
      sharded_->PredictBatch(all_shops_);
    } else {
      server_->PredictBatch(all_shops_);
    }
  }
  scopes_.push_back(std::move(scope));
  setup_s_.push_back(setup.Us() * 1e-6);
}

void Runner::MeasureOnline(double seconds, Phase* phase) {
  util::FaultInjector& faults = util::FaultInjector::Global();
  // Churn: a fourth thread alternates the two checkpoints through the store
  // every kPublishPeriodMs while the clients read.
  std::atomic<bool> stop{false};
  std::thread publisher;
  if (churn_) {
    publisher = std::thread([this, &stop] {
      size_t next = 1;
      const Scope& scope = scopes_.front();
      while (!stop.load()) {
        const int64_t start = NowNs();
        Swap(*scope.generations[next].model, nullptr);
        next = 1 - next;
        const int64_t due = start + static_cast<int64_t>(kPublishPeriodMs * 1e6);
        while (!stop.load() && NowNs() < due) {
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
      }
    });
  }
  const int64_t phase_start = NowNs();
  do {
    if (churn_) {
      // Re-armed per pass from the same seed, so every pass of the run draws
      // the same number of faults and degraded_ratio is exact per seed.
      faults.Reset();
      faults.Reseed(fault_seed_);
      util::FaultSpec spec;
      spec.site = kFaultSite;
      spec.kind = util::FaultKind::kNan;
      spec.probability = kFaultProbability;
      faults.Arm(spec);
    }
    const size_t base = phase->answers.size();
    const auto pass = static_cast<size_t>(scale_.pass_requests);
    phase->answers.resize(base + pass);
    std::atomic<size_t> next{0};
    const int64_t pass_start = NowNs();
    const int64_t swaps_before = swaps_done_.load();
    const uint64_t allocs_before = Counter("gaia_alloc_tensors_total");
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&] {
        for (size_t i = next.fetch_add(1); i < pass; i = next.fetch_add(1)) {
          const int32_t shop = stream_[(stream_cursor_ + i) % stream_.size()];
          Answer& answer = phase->answers[base + i];
          Timed span("bench.predict");
          answer.span_id = obs::TraceSpan::CurrentSpanId();
          serving::ShardedServer::Prediction prediction =
              sharded_->Predict(shop);
          answer.client_ms = span.Us() * 1e-3;
          answer.shop = shop;
          answer.fallback = prediction.served_by ==
                            serving::ModelServer::ServePath::kFallback;
          answer.nan_reason =
              prediction.degraded_reason == "non-finite model output";
          answer.server_ms = prediction.latency_ms;
          answer.gmv = std::move(prediction.gmv);
        }
      });
    }
    for (std::thread& client : clients) client.join();
    phase->serving_heap_allocs +=
        Counter("gaia_alloc_tensors_total") - allocs_before;
    std::vector<double> latency_ms;
    for (size_t i = 0; i < pass; ++i) {
      latency_ms.push_back(phase->answers[base + i].client_ms);
    }
    phase->AddUnit(latency_ms, static_cast<double>(NowNs() - pass_start) * 1e-9,
                   swaps_done_.load() - swaps_before);
    stream_cursor_ = (stream_cursor_ + pass) % stream_.size();
    if (churn_) {
      phase->faults_fired += faults.fired_count(kFaultSite);
      faults.Reset();
    }
  } while (static_cast<double>(NowNs() - phase_start) * 1e-9 < seconds);
  stop.store(true);
  if (publisher.joinable()) publisher.join();
}

void Runner::Sweep(serving::ModelServer& server,
                   const std::vector<int32_t>& order, int32_t scope,
                   Phase* phase) {
  std::vector<serving::ModelServer::Prediction> sweep;
  double wall_ms = 0.0;
  {
    const uint64_t allocs_before = Counter("gaia_alloc_tensors_total");
    Timed span("bench.sweep");
    sweep = server.PredictBatch(order);
    wall_ms = span.Us() * 1e-3;
    phase->serving_heap_allocs +=
        Counter("gaia_alloc_tensors_total") - allocs_before;
  }
  std::vector<double> latency_ms;
  for (serving::ModelServer::Prediction& prediction : sweep) {
    Answer answer;
    answer.shop = prediction.shop;
    answer.scope = scope;
    answer.fallback = prediction.served_by ==
                      serving::ModelServer::ServePath::kFallback;
    answer.server_ms = prediction.latency_ms;
    answer.client_ms = wall_ms;
    answer.gmv = std::move(prediction.gmv);
    latency_ms.push_back(answer.server_ms);
    phase->answers.push_back(std::move(answer));
  }
  phase->AddUnit(latency_ms, wall_ms * 1e-3, 0);
}

/// One Fig. 5 month: the calendar advances and the population is redrawn,
/// Gaia retrains, the checkpoint is published and loaded, and the batch job
/// sweeps every shop once; the sweep is scored against the month's actuals.
void Runner::RunCycle(Phase* phase) {
  const int cycle = cycles_run_++;
  Timed span("bench.cycle");
  data::MarketConfig market;
  market.num_shops = scale_.shops;
  market.seed = kMarketSeed + 1 + static_cast<uint64_t>(cycle);
  market.start_calendar_month = (market.start_calendar_month + 1 + cycle) % 12;
  std::shared_ptr<const data::ForecastDataset> dataset = MakeDataset(market);
  core::TrainResult trained;
  std::shared_ptr<core::GaiaModel> model =
      Train(*dataset, 1, scale_.cycle_epochs, &cycle_epoch_ms_, &trained);
  fit_dataset_ = dataset;
  fit_history_ = trained.train_loss_history;

  serving::ModelServer server(NewModel(*dataset, 1), dataset, server_config_);
  Swap(*model, &server);
  const size_t first = phase->answers.size();
  Sweep(server, SweepOrder(dataset->num_nodes(), sweeps_run_++),
        static_cast<int32_t>(scopes_.size()), phase);
  std::vector<const std::vector<double>*> by_shop(
      static_cast<size_t>(dataset->num_nodes()));
  for (size_t i = first; i < phase->answers.size(); ++i) {
    const Answer& answer = phase->answers[i];
    by_shop[static_cast<size_t>(answer.shop)] = &answer.gmv;
  }
  std::vector<std::vector<double>> test_forecasts;
  for (int32_t shop : dataset->test_nodes()) {
    test_forecasts.push_back(*by_shop[static_cast<size_t>(shop)]);
  }
  {
    Timed eval_span("bench.evaluate");
    const core::EvaluationReport report = core::Evaluator::FromPredictions(
        "Gaia", *dataset, dataset->test_nodes(), test_forecasts);
    cycle_mae_.push_back(report.overall.mae);
  }
  Scope scope;
  scope.dataset = dataset;
  scope.generations.emplace_back();
  scope.generations.back().model = model;
  scopes_.push_back(std::move(scope));
  cycle_s_.push_back(span.Us() * 1e-6);
}

Phase Runner::Measure(double seconds, bool traced) {
  Phase phase;
  if (churn_) phase.window_swaps = kChurnWindowSwaps;
  const uint64_t busy_before = Counter("gaia_pool_busy_ns_total");
  const size_t swaps_before = swap_ms_.size();
  // Observability on records the spans and makes the pool and allocation
  // counters count.
  obs::SetLevel(traced ? obs::Level::kOn : obs::Level::kOff);
  const int64_t start = NowNs();
  if (online_) {
    MeasureOnline(seconds, &phase);
  } else {
    do {
      if (options_.workload == Workload::kBatchSweep) {
        Sweep(*server_, SweepOrder(scale_.shops, sweeps_run_++), 0, &phase);
      } else {
        RunCycle(&phase);
      }
    } while (static_cast<double>(NowNs() - start) * 1e-9 < seconds);
  }
  phase.wall_s = static_cast<double>(NowNs() - start) * 1e-9;
  phase.CloseWindows();
  obs::SetLevel(obs::Level::kOff);
  phase.pool_busy_ns = Counter("gaia_pool_busy_ns_total") - busy_before;
  phase.swaps = static_cast<int64_t>(swap_ms_.size() - swaps_before);
  return phase;
}

/// Reference answers for every shop of every generation that served, each
/// request on the exact single-threaded path, spread over a few harness
/// threads. They come from the public chain, not from the server, so a
/// change to what the server returns shows as failed answers.
void Runner::BuildReferences(const std::vector<const Phase*>& phases) {
  std::set<int32_t> served;
  for (const Phase* phase : phases) {
    for (const Answer& answer : phase->answers) served.insert(answer.scope);
  }
  for (int32_t index : served) {
    Scope& scope = scopes_[static_cast<size_t>(index)];
    for (Generation& gen : scope.generations) {
      if (!gen.reference.empty()) continue;
      gen.reference.resize(static_cast<size_t>(scope.dataset->num_nodes()));
      std::atomic<size_t> next{0};
      std::vector<std::thread> workers;
      for (int w = 0; w < util::ThreadPool::GlobalThreads(); ++w) {
        workers.emplace_back([&] {
          util::ThreadPool::InlineScope inline_scope;
          for (size_t i = next.fetch_add(1); i < gen.reference.size();
               i = next.fetch_add(1)) {
            gen.reference[i] = ReferenceForecast(*gen.model, *scope.dataset,
                                                 static_cast<int32_t>(i));
          }
        });
      }
      for (std::thread& worker : workers) worker.join();
    }
  }
}

std::vector<double> Runner::ReferenceForecast(
    const core::GaiaModel& model, const data::ForecastDataset& ds,
    int32_t shop) const {
  Rng rng(RequestSeed(server_config_.seed, shop));
  const graph::EgoSubgraph ego =
      graph::ExtractEgoSubgraph(ds.graph(), shop, server_config_.ego_hops,
                                server_config_.max_fanout, &rng);
  Result<Tensor> forward = model.PredictEgo(ds, ego);
  GAIA_CHECK(forward.ok()) << forward.status().ToString();
  return Denormalize(ds, shop, forward.value());
}

int64_t Runner::Check(Phase* phase, RunReport* report) {
  int64_t fallbacks = 0;
  std::map<std::pair<int32_t, int32_t>, std::vector<double>> fallback_refs;
  for (Answer& answer : phase->answers) {
    ++report->attempted;
    const Scope& scope = scopes_[static_cast<size_t>(answer.scope)];
    bool ok = static_cast<int64_t>(answer.gmv.size()) ==
              scope.dataset->horizon();
    for (double value : answer.gmv) ok = ok && std::isfinite(value) && value >= 0.0;
    if (ok && answer.fallback) {
      ++fallbacks;
      auto key = std::make_pair(answer.scope, answer.shop);
      auto it = fallback_refs.find(key);
      if (it == fallback_refs.end()) {
        it = fallback_refs
                 .emplace(key, FallbackForecast(*scope.dataset, answer.shop))
                 .first;
      }
      ok = churn_ && answer.nan_reason && SameBytes(answer.gmv, it->second);
    } else if (ok) {
      ok = false;
      for (size_t g = 0; g < scope.generations.size() && !ok; ++g) {
        const auto& reference =
            scope.generations[g].reference[static_cast<size_t>(answer.shop)];
        if (SameBytes(answer.gmv, reference)) {
          answer.generation = static_cast<int32_t>(g);
          ok = true;
        }
      }
    }
    if (!ok) ++report->failed;
  }
  if (fallbacks != phase->faults_fired) {
    report->errors.push_back(
        std::to_string(fallbacks) + " fallback answers for " +
        std::to_string(phase->faults_fired) + " injected faults");
  }
  return fallbacks;
}

void AddMedian(RunReport* report, const std::string& name,
               const std::vector<double>& samples, const std::string& unit) {
  report->metrics.push_back({name, Median(samples), unit});
}

/// Adds `<name>.tail`, the highest supported percentile, and its level as
/// `<name>.tail_level`.
void AddTail(RunReport* report, const std::string& name,
             const std::vector<double>& samples, const std::string& unit) {
  const Tail tail = TailQuantile(samples);
  if (!tail.supported()) {
    report->errors.push_back(name + ": no percentile has 10 samples beyond it (" +
                             std::to_string(samples.size()) + " samples)");
    return;
  }
  report->metrics.push_back({name + ".tail", tail.value, unit});
  report->metrics.push_back({name + ".tail_level", tail.level, "quantile"});
}

/// Traced-run layer attribution: replays the traced phase's first answers
/// through the public serve chain (one thread, the shard workers' inline
/// path) and the last Fit's step loop, checking bytes against what the
/// program served and trained.
void Runner::Replay(const Phase& traced, RunReport* report) {
  std::vector<double> serve_us, self_us, ego_us, ego_nodes, predict_ego_us,
      fallback_us, ffl_us, tel_us, ita_us, head_glue_us;
  int64_t mismatches = 0;
  const int64_t requests =
      traced.answers.empty() ? 0 : scale_.replay_requests;
  {
    util::ThreadPool::InlineScope inline_scope;
    for (int64_t k = 0; k < requests; ++k) {
      const size_t index = static_cast<size_t>(k) % traced.answers.size();
      const Answer& answer = traced.answers[index];
      Scope& scope = scopes_[static_cast<size_t>(answer.scope)];
      Generation& gen = scope.generations[static_cast<size_t>(
          std::max<int32_t>(answer.generation, 0))];
      const data::ForecastDataset& ds = *scope.dataset;
      if (gen.replay_server == nullptr) {
        gen.replay_server = std::make_unique<serving::ModelServer>(
            gen.model, scope.dataset, server_config_);
        gen.split = std::make_unique<ModuleSplit>(*gen.model, ds);
      }
      Timed request("bench.replay_request");
      request_of_span_[obs::TraceSpan::CurrentSpanId()] = index + 1;
      double serve = 0.0;
      {
        Timed span("bench.serve");
        serving::ModelServer::Prediction served =
            gen.replay_server->Serve(answer.shop, 0.0);
        serve = span.Us();
        if (!answer.fallback && !SameBytes(served.gmv, answer.gmv)) ++mismatches;
      }
      graph::EgoSubgraph ego;
      double ego_time = 0.0;
      {
        Timed span("bench.ego_extract");
        Rng rng(RequestSeed(server_config_.seed, answer.shop));
        ego = graph::ExtractEgoSubgraph(ds.graph(), answer.shop,
                                        server_config_.ego_hops,
                                        server_config_.max_fanout, &rng);
        ego_time = span.Us();
      }
      Result<Tensor> forward = Status::Internal("not run");
      double forward_time = 0.0;
      {
        Timed span("bench.predict_ego");
        forward = gen.model->PredictEgo(ds, ego);
        forward_time = span.Us();
      }
      GAIA_CHECK(forward.ok()) << forward.status().ToString();
      if (!answer.fallback &&
          !SameBytes(Denormalize(ds, answer.shop, forward.value()), answer.gmv)) {
        ++mismatches;
      }
      {
        Timed span("bench.fallback");
        const std::vector<double> fallback = FallbackForecast(ds, answer.shop);
        fallback_us.push_back(span.Us());
        if (answer.fallback && !SameBytes(fallback, answer.gmv)) ++mismatches;
      }
      if (k < scale_.split_requests) {
        ModuleSplit::Timing timing;
        const Tensor split = gen.split->Forward(ds, ego, &timing);
        if (split.size() != forward.value().size() ||
            std::memcmp(split.data(), forward.value().data(),
                        sizeof(float) * static_cast<size_t>(split.size())) != 0) {
          ++mismatches;
        }
        ffl_us.push_back(timing.ffl_us);
        tel_us.push_back(timing.tel_us);
        double modules = timing.ffl_us + timing.tel_us;
        for (double layer : timing.ita_layer_us) {
          ita_us.push_back(layer);
          modules += layer;
        }
        head_glue_us.push_back(forward_time - modules);
      }
      serve_us.push_back(serve);
      ego_us.push_back(ego_time);
      ego_nodes.push_back(static_cast<double>(ego.num_nodes()));
      predict_ego_us.push_back(forward_time);
      self_us.push_back(serve - ego_time - forward_time);
    }
  }

  TrainPhases phases;
  std::shared_ptr<core::GaiaModel> fresh = NewModel(*fit_dataset_, 1);
  const std::vector<double> history =
      ReplayFit(fresh.get(), *fit_dataset_, fit_config_, &phases);
  if (!SameBytes(history, fit_history_)) {
    report->errors.push_back("replayed step loop diverged from Fit's loss history");
  }
  if (mismatches > 0) {
    report->errors.push_back(std::to_string(mismatches) +
                             " replayed answers differ from what was served");
  }
  report->metrics.push_back({"replay.requests", static_cast<double>(requests), "count"});
  report->metrics.push_back({"replay.mismatches", static_cast<double>(mismatches), "count"});
  report->metrics.push_back({"replay.train_epochs", static_cast<double>(history.size()), "count"});

  AddMedian(report, "graph.ego_extract_us.p50", ego_us, "us");
  AddTail(report, "graph.ego_extract_us", ego_us, "us");
  report->metrics.push_back(
      {"graph.ego_nodes.mean",
       std::accumulate(ego_nodes.begin(), ego_nodes.end(), 0.0) /
           static_cast<double>(std::max<size_t>(ego_nodes.size(), 1)),
       "nodes"});
  AddMedian(report, "core.predict_ego_us.p50", predict_ego_us, "us");
  AddTail(report, "core.predict_ego_us", predict_ego_us, "us");
  AddMedian(report, "core.ffl_us.p50", ffl_us, "us");
  AddMedian(report, "core.tel_us.p50", tel_us, "us");
  AddMedian(report, "core.ita_gcn_layer_us.p50", ita_us, "us");
  AddMedian(report, "core.head_glue_us.p50", head_glue_us, "us");
  AddMedian(report, "serving.serve_us.p50", serve_us, "us");
  AddMedian(report, "serving.serve_self_us.p50", self_us, "us");
  AddMedian(report, "ts.fallback_us.p50", fallback_us, "us");
  AddMedian(report, "trainer.loss_forward_ms.p50", phases.loss_forward_ms, "ms");
  AddMedian(report, "autograd.backward_ms.p50", phases.backward_ms, "ms");
  AddMedian(report, "optim.clip_adam_ms.p50", phases.clip_adam_ms, "ms");
  AddMedian(report, "trainer.eval_ms.p50", phases.eval_ms, "ms");
}

RunReport Runner::Run() {
  RunReport report;
  report.workload = WorkloadName(options_.workload);
  report.stream_digest = stream_digest_;
  const bool traced = !options_.trace_path.empty();
  // Set-up and the untraced phase run with observability off; only the
  // traced phase and the replays record spans.
  obs::SetLevel(obs::Level::kOff);
  for (int i = 0; i < scale_.setups; ++i) SetUp();

  // A traced run measures half its time untraced and half traced, so the
  // tracing overhead is read off one process with one set-up.
  Phase phase = Measure(traced ? options_.seconds / 2 : options_.seconds, false);
  const double peak_rss_mb = PeakRssMb();
  Phase traced_phase;
  if (traced) traced_phase = Measure(options_.seconds / 2, true);

  BuildReferences({&phase, &traced_phase});
  const int64_t fallbacks = Check(&phase, &report);
  const int64_t traced_fallbacks = Check(&traced_phase, &report);

  // End-to-end metrics, always from the untraced phase: each latency and
  // throughput figure is the median over the run's windows (see Window).
  report.metrics.push_back({"setup_s", Median(setup_s_), "s"});
  std::vector<double> p50s, p95s, rates;
  int64_t beyond = std::numeric_limits<int64_t>::max();
  int64_t window_swaps = std::numeric_limits<int64_t>::max();
  for (const Window& window : phase.windows) {
    p50s.push_back(Median(window.latency_ms));
    rates.push_back(static_cast<double>(window.latency_ms.size()) / window.seconds);
    // Smoke runs are too short to hold 200 forecasts in every window; they
    // check what is printed, not the tail.
    const Tail tail = TailQuantile(window.latency_ms, 10, 950);
    if (!options_.smoke && tail.level < 0.95) {
      report.errors.push_back("a window of " +
                              std::to_string(window.latency_ms.size()) +
                              " forecasts does not support a p95");
    }
    p95s.push_back(tail.value);
    beyond = std::min(beyond, tail.beyond);
    window_swaps = std::min(window_swaps, window.swaps);
  }
  report.metrics.push_back({"predict_p50_ms", Median(p50s), "ms"});
  report.metrics.push_back({"predict_p95_ms", Median(p95s), "ms"});
  report.metrics.push_back(
      {"predict_p95_beyond", static_cast<double>(beyond), "count"});
  report.metrics.push_back({"forecasts_per_s", Median(rates), "1/s"});
  report.metrics.push_back(
      {"windows", static_cast<double>(phase.windows.size()), "count"});
  if (churn_) {
    report.metrics.push_back(
        {"window_swaps_min", static_cast<double>(window_swaps), "count"});
    if (!options_.smoke && window_swaps < kChurnWindowSwaps) {
      report.errors.push_back("a window overlapped fewer than " +
                              std::to_string(kChurnWindowSwaps) + " swaps");
    }
  }
  const std::vector<double>& fits =
      options_.workload == Workload::kMonthlyCycle ? cycle_epoch_ms_
                                                   : setup_epoch_ms_;
  report.metrics.push_back(
      {"train_epoch_ms", *std::min_element(fits.begin(), fits.end()), "ms"});
  report.metrics.push_back({"swap_to_serve_ms",
                            *std::min_element(swap_ms_.begin(), swap_ms_.end()),
                            "ms"});
  report.metrics.push_back({"peak_rss_mb", peak_rss_mb, "MiB"});
  if (options_.workload == Workload::kMonthlyCycle) {
    AddMedian(&report, "cycle_s", cycle_s_, "s");
    report.metrics.push_back({"forecast_mae", cycle_mae_.front(), "GMV"});
  }
  report.metrics.push_back(
      {"degraded_ratio",
       static_cast<double>(fallbacks) / static_cast<double>(phase.answers.size()),
       "ratio"});
  report.metrics.push_back(
      {"failed_ratio",
       static_cast<double>(report.failed) / static_cast<double>(report.attempted),
       "ratio"});
  report.metrics.push_back(
      {"swaps_measured", static_cast<double>(swap_ms_.size()), "count"});
  report.metrics.push_back(
      {"swaps_in_phase", static_cast<double>(phase.swaps), "count"});

  if (traced) {
    obs::SetLevel(obs::Level::kOn);
    Replay(traced_phase, &report);
    obs::SetLevel(obs::Level::kOff);
    for (size_t i = 0; i < traced_phase.answers.size(); ++i) {
      const uint64_t span = traced_phase.answers[i].span_id;
      if (span != 0) request_of_span_[span] = i + 1;
    }
    std::vector<double> queue_wait;
    for (const Phase* p : {&phase, &traced_phase}) {
      for (const Answer& answer : p->answers) {
        queue_wait.push_back(answer.client_ms - answer.server_ms);
      }
    }
    AddMedian(&report, "serving.queue_wait_ms.p50", queue_wait, "ms");
    AddTail(&report, "serving.queue_wait_ms", queue_wait, "ms");
    report.metrics.push_back(
        {"ts.fallback_calls", static_cast<double>(traced_fallbacks), "count"});
    AddMedian(&report, "checkpoint.publish_ms.p50", publish_ms_, "ms");
    report.metrics.push_back({"checkpoint.bytes", checkpoint_bytes_, "bytes"});
    AddMedian(&report, "serving.load_checkpoint_ms.p50", load_ms_, "ms");
    report.metrics.push_back(
        {"serving.swaps", static_cast<double>(load_ms_.size()), "count"});
    AddMedian(&report, "data.generate_ms", generate_ms_, "ms");
    AddMedian(&report, "data.dataset_ms", dataset_ms_, "ms");
    report.metrics.push_back(
        {"util.pool_busy_share",
         static_cast<double>(traced_phase.pool_busy_ns) /
             (static_cast<double>(util::ThreadPool::GlobalThreads()) *
              traced_phase.wall_s * 1e9),
         "ratio"});
    report.metrics.push_back(
        {"tensor.heap_allocs_per_request",
         static_cast<double>(traced_phase.serving_heap_allocs) /
             static_cast<double>(traced_phase.answers.size()),
         "count"});
    const double untraced_p50 = Median(phase.AllLatencies());
    report.metrics.push_back(
        {"trace_overhead_pct",
         (Median(traced_phase.AllLatencies()) - untraced_p50) / untraced_p50 *
             100.0,
         "%"});
    const obs::TraceBuffer& trace = obs::TraceBuffer::Global();
    const std::vector<obs::SpanRecord> spans = trace.Snapshot();
    report.metrics.push_back(
        {"trace.spans", static_cast<double>(spans.size()), "count"});
    report.metrics.push_back(
        {"trace.dropped_spans", static_cast<double>(trace.dropped()), "count"});
    for (const auto& [name, self_ms] : SelfMs(spans, trace.dropped() > 0)) {
      report.metrics.push_back({"self_ms." + name, self_ms, "ms"});
    }
    if (!WriteTrace(options_.trace_path, request_of_span_)) {
      report.errors.push_back("cannot write trace " + options_.trace_path);
    }
  }
  if (report.failed > 0) {
    report.errors.push_back(std::to_string(report.failed) + " of " +
                            std::to_string(report.attempted) +
                            " answers failed their check");
  }
  report.correct = report.errors.empty();
  return report;
}

}  // namespace

const std::vector<Workload>& AllWorkloads() {
  static const std::vector<Workload> all = {
      Workload::kOnlineSkewed, Workload::kOnlineChurn, Workload::kBatchSweep,
      Workload::kMonthlyCycle};
  return all;
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kOnlineSkewed:
      return "online_skewed";
    case Workload::kOnlineChurn:
      return "online_churn";
    case Workload::kBatchSweep:
      return "batch_sweep";
    case Workload::kMonthlyCycle:
      return "monthly_cycle";
  }
  return "unknown";
}

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload workload : AllWorkloads()) {
    if (name == WorkloadName(workload)) {
      *out = workload;
      return true;
    }
  }
  return false;
}

RunReport RunWorkload(const RunOptions& options) {
  Runner runner(options);
  return runner.Run();
}

}  // namespace gaia::bench
