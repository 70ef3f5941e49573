// gaia_cli — command-line workflow around the library:
//
//   gaia_cli simulate --out DIR [--shops N] [--seed S] [--history T]
//       [--regime SPEC|random] [--regime-seed R]
//       Generate a synthetic market and write it as CSVs. --regime layers a
//       scripted adversarial regime (demand shocks, supplier-failure
//       cascades, festival shifts, cold-start floods; see
//       data::RegimeScript) onto the market; "random" draws a script from
//       the regime seed (--regime-seed, else GAIA_REGIME_SEED, else the
//       market seed). The resolved spec is echoed to stderr as
//       "regime: ..." so any shocked market — e.g. one that failed a
//       scenario test — can be re-dumped exactly for offline repro.
//   gaia_cli train --market DIR --checkpoint FILE [--epochs N]
//       [--channels C] [--layers L] [--metrics-out FILE] [--verbose]
//       Train Gaia on a market directory and publish a checkpoint.
//       --verbose (no value) logs the loss at every validation.
//   gaia_cli evaluate --market DIR --checkpoint FILE [--channels C]
//       [--layers L]
//       Evaluate a published checkpoint on the market's test split.
//   gaia_cli serve --market DIR --checkpoint FILE [--requests N]
//       [--deadline-ms D] [--shards K] [--clients C] [--metrics-out FILE]
//       [--admin-port P] [--admin-wait 1]
//       Replay N online requests through the model server and report
//       latency statistics. --deadline-ms arms a per-request budget: an
//       overrunning forward is aborted mid-flight (cooperative cancel) and
//       the request degrades to the fallback forecaster. --shards K routes
//       the replay through the sharded serving tier (each request answered
//       on its client's thread, counted under one of K shards; see
//       docs/ARCHITECTURE.md) with --clients C concurrent client threads
//       hammering it; forecasts are bitwise identical to the unsharded
//       path.
//
// --metrics-out FILE writes the Prometheus metrics export to FILE at exit
// (chaos/CI runs keep an inspectable artifact). It forces the observability
// level to at least "on" so the dump is populated even without GAIA_OBS.
//
// --admin-port P (train and serve) starts the embedded admin HTTP server on
// 127.0.0.1:P (0 = ephemeral; the bound port is echoed to stderr as
// "admin: listening on ..."). It exposes /metrics, /metrics.json, /healthz,
// /readyz, /statusz, /tracez and /requestz (docs/OBSERVABILITY.md, "Live
// endpoints"); /healthz answers 503 until the checkpoint generation is
// adopted, then 200. It forces the observability level on and enables the
// request EventLog. --admin-wait 1 parks the process after the replay until
// GET /quitz arrives (CI scrapes the endpoints, then releases it).
//
// train, evaluate and serve also take --seed S (model init seed). Every
// flag but --verbose takes one value. An unknown flag, a missing value or a
// number with trailing junk ("--epochs 1O") is rejected with an error naming
// the flag.
//
// Exit code 0 on success; a diagnostic on stderr otherwise.

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/evaluator.h"
#include "core/gaia_model.h"
#include "core/trainer.h"
#include "data/market_io.h"
#include "data/market_simulator.h"
#include "obs/admin_server.h"
#include "obs/obs.h"
#include "serving/model_server.h"
#include "serving/sharded_server.h"
#include "util/crc32.h"
#include "util/stopwatch.h"
#include "util/table_printer.h"

namespace gaia::cli {
namespace {

/// How a flag reads argv: a value of some type, or a bare switch.
enum class FlagKind { kString, kInt, kDouble, kSwitch };

struct FlagSpec {
  const char* name;  ///< without the leading "--"
  FlagKind kind;
};

/// Strict --flag parser over argv[2..]. Each subcommand names the flags it
/// accepts; an unknown flag, a stray word, a value flag with no value after
/// it, or a number that does not parse completely is an error naming the
/// flag. Switches (--verbose) take no value.
class Args {
 public:
  static Result<Args> Parse(int argc, char** argv,
                            const std::vector<FlagSpec>& accepted) {
    Args args;
    for (int i = 2; i < argc; ++i) {
      const std::string word = argv[i];
      if (word.rfind("--", 0) != 0) {
        return Status::InvalidArgument("unexpected argument '" + word + "'");
      }
      const std::string key = word.substr(2);
      auto spec = std::find_if(
          accepted.begin(), accepted.end(),
          [&key](const FlagSpec& flag) { return key == flag.name; });
      if (spec == accepted.end()) {
        return Status::InvalidArgument("unknown flag " + word + " for '" +
                                       argv[1] + "'");
      }
      if (spec->kind == FlagKind::kSwitch) {
        args.values_[key] = "";
        continue;
      }
      if (i + 1 >= argc || std::string(argv[i + 1]).rfind("--", 0) == 0) {
        return Status::InvalidArgument("flag " + word + " requires a value");
      }
      const std::string value = argv[++i];
      if ((spec->kind == FlagKind::kInt && !ParseFull<int64_t>(value)) ||
          (spec->kind == FlagKind::kDouble && !ParseFull<double>(value))) {
        return Status::InvalidArgument(
            "flag " + word + " expects " +
            (spec->kind == FlagKind::kInt ? "an integer" : "a number") +
            ", got '" + value + "'");
      }
      args.values_[key] = value;
    }
    return args;
  }

  std::string Get(const std::string& key, const std::string& fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  int64_t GetInt(const std::string& key, int64_t fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback
                               : ParseFull<int64_t>(it->second).value();
  }

  double GetDouble(const std::string& key, double fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback
                               : ParseFull<double>(it->second).value();
  }

  bool Has(const std::string& key) const { return values_.count(key) > 0; }

 private:
  /// The number spelled by all of `text`, or nothing.
  template <typename T>
  static std::optional<T> ParseFull(const std::string& text) {
    T value{};
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || ptr != end || text.empty()) return std::nullopt;
    return value;
  }

  std::map<std::string, std::string> values_;
};

int Fail(const std::string& message) {
  std::cerr << "error: " << message << "\n";
  return 1;
}

/// Scoped --metrics-out support: forces the observability level on at
/// construction (so instruments are populated without GAIA_OBS) and writes
/// the Prometheus export on destruction — every return path, including
/// failures, leaves the artifact for chaos/CI inspection. Write errors are
/// diagnostics only; they never change the command's exit code.
class MetricsDump {
 public:
  explicit MetricsDump(const Args& args)
      : path_(args.Get("metrics-out", "")) {
    if (!path_.empty() && !obs::Enabled()) obs::SetLevel(obs::Level::kOn);
  }

  ~MetricsDump() {
    if (path_.empty()) return;
    std::ofstream file(path_);
    if (file.good()) {
      file << obs::MetricsRegistry::Global().ExportPrometheus();
    }
    if (!file.good()) {
      std::cerr << "warning: could not write metrics to " << path_ << "\n";
    } else {
      std::cerr << "metrics written to " << path_ << "\n";
    }
  }

 private:
  std::string path_;
};

/// Scoped --admin-port support: starts the embedded obs::AdminServer before
/// the heavy lifting, so /healthz is already reachable (answering 503) while
/// the dataset and checkpoint load; MarkReady() flips it to 200 once the
/// serving generation is adopted. Forces the observability level on and
/// enables the request EventLog, mirroring MetricsDump's contract. The
/// caller must destroy (or not outlive) the objects its info lambdas close
/// over — Serve/Train stop the plane before their servers go out of scope.
class AdminPlane {
 public:
  explicit AdminPlane(const Args& args) : enabled_(args.Has("admin-port")) {
    if (!enabled_) return;
    if (!obs::Enabled()) obs::SetLevel(obs::Level::kOn);
    obs::EventLog::Global().SetEnabled(true);
    obs::AdminServerOptions opts;
    opts.port = static_cast<int>(args.GetInt("admin-port", 0));
    server_.AddCheck("checkpoint_loaded", [this](std::string* detail) {
      if (ready_.load(std::memory_order_acquire)) return true;
      if (detail != nullptr) *detail = "no serving generation adopted yet";
      return false;
    });
    std::string error;
    if (!server_.Start(opts, &error)) {
      failed_ = "admin server: " + error;
      enabled_ = false;
      return;
    }
    std::cerr << "admin: listening on http://127.0.0.1:" << server_.port()
              << "\n";
  }

  ~AdminPlane() { Stop(); }

  bool enabled() const { return enabled_; }
  /// Non-empty when --admin-port was given but the server could not start.
  const std::string& failed() const { return failed_; }

  /// Marks the serving generation adopted: /healthz flips 503 -> 200.
  void MarkReady() { ready_.store(true, std::memory_order_release); }

  /// /statusz info: checkpoint path + CRC32 of its bytes (computed once,
  /// here, so the info lambda captures a plain string).
  void NoteCheckpoint(const std::string& path) {
    if (!enabled_) return;
    std::string crc = "unreadable";
    std::ifstream file(path, std::ios::binary);
    if (file.good()) {
      std::ostringstream bytes;
      bytes << file.rdbuf();
      const std::string data = bytes.str();
      char buf[16];
      std::snprintf(buf, sizeof(buf), "%08x",
                    util::Crc32(data.data(), data.size()));
      crc = buf;
    }
    server_.AddInfo("checkpoint", [path] { return path; });
    server_.AddInfo("checkpoint_crc32", [crc] { return crc; });
  }

  void AddInfo(const std::string& key, obs::AdminServer::Info info) {
    if (enabled_) server_.AddInfo(key, std::move(info));
  }

  /// Parks until GET /quitz when --admin-wait is set (CI drives the
  /// endpoints, then releases the process).
  void MaybeWait(const Args& args) {
    if (!enabled_ || args.GetInt("admin-wait", 0) == 0) return;
    std::cerr << "admin: waiting for GET /quitz\n";
    server_.WaitForQuit();
  }

  void Stop() {
    if (enabled_) server_.Stop();
    enabled_ = false;
  }

 private:
  bool enabled_ = false;
  std::string failed_;
  std::atomic<bool> ready_{false};
  obs::AdminServer server_;
};

Result<data::ForecastDataset> LoadDataset(const std::string& dir) {
  // Transient I/O (including injected market.read faults) is retried with
  // backoff; malformed data fails on the first attempt.
  auto market = data::LoadMarketCsvRetry(dir, util::RetryPolicy{});
  if (!market.ok()) return market.status();
  return data::ForecastDataset::Create(market.value(),
                                       data::DatasetOptions{});
}

Result<std::unique_ptr<core::GaiaModel>> BuildModel(
    const data::ForecastDataset& dataset, const Args& args) {
  core::GaiaConfig cfg;
  cfg.channels = args.GetInt("channels", 16);
  cfg.num_layers = args.GetInt("layers", 2);
  cfg.tel_groups = 4;
  while (cfg.tel_groups > 1 && cfg.channels % cfg.tel_groups != 0) {
    --cfg.tel_groups;
  }
  cfg.seed = static_cast<uint64_t>(args.GetInt("seed", 1));
  return core::GaiaModel::Create(cfg, dataset.history_len(),
                                 dataset.horizon(), dataset.temporal_dim(),
                                 dataset.static_dim());
}

void PrintReport(const core::EvaluationReport& report) {
  TablePrinter table({"Slice", "MAE", "RMSE", "MAPE"});
  for (size_t h = 0; h < report.per_month.size(); ++h) {
    const auto& m = report.per_month[h];
    table.AddRow({"month +" + std::to_string(h + 1),
                  TablePrinter::FormatCount(m.mae),
                  TablePrinter::FormatCount(m.rmse),
                  TablePrinter::FormatDouble(m.mape, 4)});
  }
  table.AddSeparator();
  table.AddRow({"overall", TablePrinter::FormatCount(report.overall.mae),
                TablePrinter::FormatCount(report.overall.rmse),
                TablePrinter::FormatDouble(report.overall.mape, 4)});
  table.Print(std::cout);
}

int Simulate(const Args& args) {
  if (!args.Has("out")) return Fail("simulate requires --out DIR");
  data::MarketConfig cfg;
  cfg.num_shops = args.GetInt("shops", 300);
  cfg.history_months = static_cast<int>(args.GetInt("history", 24));
  cfg.seed = static_cast<uint64_t>(args.GetInt("seed", 42));
  // Adversarial regime: --regime SPEC layers scripted shocks onto the
  // market ("random" draws a script from the regime seed). Seed precedence:
  // --regime-seed, then GAIA_REGIME_SEED, then the market seed. The
  // resolved spec + seed are echoed to stderr so any run — in particular a
  // failing chaos CI leg — can be replayed exactly.
  data::RegimeScript regime;
  if (args.Has("regime")) {
    uint64_t regime_seed = cfg.seed;
    bool seed_overridden = false;
    if (const char* env = std::getenv("GAIA_REGIME_SEED")) {
      regime_seed = std::strtoull(env, nullptr, 10);
      seed_overridden = true;
    }
    if (args.Has("regime-seed")) {
      regime_seed = static_cast<uint64_t>(args.GetInt("regime-seed", 0));
      seed_overridden = true;
    }
    const std::string spec = args.Get("regime", "");
    if (spec == "random") {
      regime = data::RegimeScript::Random(regime_seed, cfg.total_months());
    } else {
      auto parsed = data::RegimeScript::Parse(spec);
      if (!parsed.ok()) return Fail(parsed.status().ToString());
      regime = std::move(parsed).value();
      // An explicit seed beats the spec's own seed: clause; otherwise the
      // spec stays authoritative (it round-trips through ToString).
      if (seed_overridden) regime.set_seed(regime_seed);
    }
    std::cerr << "regime: " << regime.ToString()
              << " (GAIA_REGIME_SEED=" << regime.seed() << ")\n";
  }
  auto market = data::MarketSimulator(cfg, regime).Generate();
  if (!market.ok()) return Fail(market.status().ToString());
  const std::string dir = args.Get("out", "");
  Status saved = data::SaveMarketCsv(market.value(), dir);
  if (!saved.ok()) return Fail(saved.ToString());
  std::cout << "wrote market to " << dir << ": "
            << market.value().graph.ToString() << "\n";
  return 0;
}

int Train(const Args& args) {
  if (!args.Has("market") || !args.Has("checkpoint")) {
    return Fail("train requires --market DIR and --checkpoint FILE");
  }
  MetricsDump metrics_dump(args);
  // Training exposes the same admin plane (health stays 503 until the
  // checkpoint is written, /metrics shows training progress live).
  AdminPlane admin(args);
  if (!admin.failed().empty()) return Fail(admin.failed());
  auto dataset = LoadDataset(args.Get("market", ""));
  if (!dataset.ok()) return Fail(dataset.status().ToString());
  auto model = BuildModel(dataset.value(), args);
  if (!model.ok()) return Fail(model.status().ToString());
  core::TrainConfig tc;
  tc.max_epochs = static_cast<int>(args.GetInt("epochs", 100));
  tc.verbose = args.Has("verbose");
  core::TrainResult result =
      core::Trainer(tc).Fit(model.value().get(), dataset.value());
  std::cout << "trained " << result.epochs_run << " epochs in "
            << TablePrinter::FormatDouble(result.seconds, 1)
            << "s, best val MSE "
            << TablePrinter::FormatDouble(result.best_val_loss, 4) << "\n";
  Status saved = model.value()->Save(args.Get("checkpoint", ""));
  if (!saved.ok()) return Fail(saved.ToString());
  std::cout << "checkpoint written to " << args.Get("checkpoint", "") << "\n";
  admin.NoteCheckpoint(args.Get("checkpoint", ""));
  admin.MarkReady();
  PrintReport(core::Evaluator::Evaluate(model.value().get(), dataset.value(),
                                        dataset.value().test_nodes()));
  admin.MaybeWait(args);
  return 0;
}

int Evaluate(const Args& args) {
  if (!args.Has("market") || !args.Has("checkpoint")) {
    return Fail("evaluate requires --market DIR and --checkpoint FILE");
  }
  auto dataset = LoadDataset(args.Get("market", ""));
  if (!dataset.ok()) return Fail(dataset.status().ToString());
  auto model = BuildModel(dataset.value(), args);
  if (!model.ok()) return Fail(model.status().ToString());
  Status loaded = model.value()->Load(args.Get("checkpoint", ""));
  if (!loaded.ok()) return Fail(loaded.ToString());
  PrintReport(core::Evaluator::Evaluate(model.value().get(), dataset.value(),
                                        dataset.value().test_nodes()));
  return 0;
}

int Serve(const Args& args) {
  if (!args.Has("market") || !args.Has("checkpoint")) {
    return Fail("serve requires --market DIR and --checkpoint FILE");
  }
  // Counts and budgets outside their range would divide by zero, fall back
  // to another mode or be clamped without a word; reject them instead.
  const std::pair<const char*, double> minimums[] = {
      {"requests", 1}, {"shards", 0}, {"clients", 1}, {"deadline-ms", 0}};
  for (const auto& [flag, min] : minimums) {
    if (!args.Has(flag)) continue;
    const double value = args.GetDouble(flag, min);
    if (!(value >= min)) {
      return Fail("flag --" + std::string(flag) + " must be >= " +
                  TablePrinter::FormatDouble(min, 0) + ", got " +
                  args.Get(flag, ""));
    }
  }
  MetricsDump metrics_dump(args);
  // The admin plane comes up first: /healthz is reachable (503) while the
  // dataset and checkpoint load, and flips to 200 at adoption.
  AdminPlane admin(args);
  if (!admin.failed().empty()) return Fail(admin.failed());
  auto dataset_result = LoadDataset(args.Get("market", ""));
  if (!dataset_result.ok()) return Fail(dataset_result.status().ToString());
  auto dataset = std::make_shared<data::ForecastDataset>(
      std::move(dataset_result).value());
  auto model = BuildModel(*dataset, args);
  if (!model.ok()) return Fail(model.status().ToString());
  serving::ServerConfig server_cfg;
  // Per-request latency budget: overruns abort the forward mid-flight (a
  // cooperative CancelToken) and degrade to the fallback forecaster.
  server_cfg.deadline_ms = args.GetDouble("deadline-ms", 0.0);
  const int64_t requests = args.GetInt("requests", 50);
  const auto& shops = dataset->test_nodes();
  const int shards = static_cast<int>(args.GetInt("shards", 0));
  if (shards > 0) {
    // Sharded tier, hammered by C concurrent client threads replaying the
    // same request stream; each request is answered on its client's thread.
    serving::ShardedServerConfig sharded_cfg;
    sharded_cfg.num_shards = shards;
    sharded_cfg.server = server_cfg;
    serving::ShardedServer server(
        std::shared_ptr<core::GaiaModel>(std::move(model).value()), dataset,
        sharded_cfg);
    Status loaded = server.LoadCheckpoint(args.Get("checkpoint", ""));
    if (!loaded.ok()) return Fail(loaded.ToString());
    admin.NoteCheckpoint(args.Get("checkpoint", ""));
    admin.AddInfo("serving_mode", [shards] {
      return "sharded(" + std::to_string(shards) + ")";
    });
    admin.MarkReady();
    const int clients = static_cast<int>(args.GetInt("clients", 4));
    std::vector<std::thread> client_threads;
    client_threads.reserve(static_cast<size_t>(clients));
    std::atomic<int64_t> next{0};
    Stopwatch watch;
    for (int c = 0; c < clients; ++c) {
      client_threads.emplace_back([&] {
        int64_t i;
        while ((i = next.fetch_add(1)) < requests) {
          server.Predict(shops[static_cast<size_t>(i) % shops.size()]);
        }
      });
    }
    for (auto& t : client_threads) t.join();
    const double elapsed_ms = watch.ElapsedMillis();
    std::cout << "served " << server.total_requests() << " requests across "
              << shards << " shards (" << clients << " clients) in "
              << TablePrinter::FormatDouble(elapsed_ms, 1) << " ms, "
              << server.fallback_requests() << " degraded to fallback\n";
    // Park here with the tier still live so /metrics and /requestz reflect
    // the replay; the plane must stop before `server` goes out of scope.
    admin.MaybeWait(args);
    admin.Stop();
    return 0;
  }
  serving::ModelServer server(
      std::shared_ptr<core::GaiaModel>(std::move(model).value()), dataset,
      server_cfg);
  // The server's hot-swap path retries transient checkpoint I/O and is
  // verify-then-swap, so a flaky read never serves half-loaded weights.
  Status loaded = server.LoadCheckpoint(args.Get("checkpoint", ""));
  if (!loaded.ok()) return Fail(loaded.ToString());
  admin.NoteCheckpoint(args.Get("checkpoint", ""));
  admin.AddInfo("serving_mode", [] { return std::string("single"); });
  admin.MarkReady();
  for (int64_t i = 0; i < requests; ++i) {
    server.Predict(shops[static_cast<size_t>(i) % shops.size()]);
  }
  std::cout << "served " << server.total_requests() << " requests, mean "
            << TablePrinter::FormatDouble(
                   server.total_latency_ms() / server.total_requests(), 2)
            << " ms each, " << server.fallback_requests()
            << " degraded to fallback\n";
  admin.MaybeWait(args);
  admin.Stop();
  return 0;
}

std::vector<FlagSpec> Join(std::initializer_list<std::vector<FlagSpec>> parts) {
  std::vector<FlagSpec> flags;
  for (const auto& part : parts) {
    flags.insert(flags.end(), part.begin(), part.end());
  }
  return flags;
}

/// A subcommand and the flags it reads; Args::Parse rejects all others.
struct Command {
  const char* name;
  int (*run)(const Args&);
  std::vector<FlagSpec> flags;
};

int Main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: gaia_cli {simulate|train|evaluate|serve} "
                 "[--flag value ...] [--verbose]\n";
    return 1;
  }
  const std::vector<FlagSpec> model_flags = {
      {"market", FlagKind::kString}, {"checkpoint", FlagKind::kString},
      {"channels", FlagKind::kInt},  {"layers", FlagKind::kInt},
      {"seed", FlagKind::kInt}};
  const std::vector<FlagSpec> plane_flags = {{"metrics-out", FlagKind::kString},
                                             {"admin-port", FlagKind::kInt},
                                             {"admin-wait", FlagKind::kInt}};
  const std::vector<Command> commands = {
      {"simulate", Simulate,
       {{"out", FlagKind::kString},
        {"shops", FlagKind::kInt},
        {"seed", FlagKind::kInt},
        {"history", FlagKind::kInt},
        {"regime", FlagKind::kString},
        {"regime-seed", FlagKind::kInt}}},
      {"train", Train,
       Join({model_flags, plane_flags,
             {{"epochs", FlagKind::kInt}, {"verbose", FlagKind::kSwitch}}})},
      {"evaluate", Evaluate, model_flags},
      {"serve", Serve,
       Join({model_flags, plane_flags,
             {{"requests", FlagKind::kInt},
              {"deadline-ms", FlagKind::kDouble},
              {"shards", FlagKind::kInt},
              {"clients", FlagKind::kInt}}})},
  };
  const std::string command = argv[1];
  const auto spec = std::find_if(
      commands.begin(), commands.end(),
      [&command](const Command& c) { return command == c.name; });
  if (spec == commands.end()) return Fail("unknown command: " + command);
  Result<Args> args = Args::Parse(argc, argv, spec->flags);
  if (!args.ok()) return Fail(args.status().message());
  return spec->run(args.value());
}

}  // namespace
}  // namespace gaia::cli

int main(int argc, char** argv) { return gaia::cli::Main(argc, argv); }
