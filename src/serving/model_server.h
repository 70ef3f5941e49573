#ifndef GAIA_SERVING_MODEL_SERVER_H_
#define GAIA_SERVING_MODEL_SERVER_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/gaia_model.h"
#include "core/trainer.h"
#include "data/dataset.h"
#include "obs/event_log.h"
#include "util/retry.h"
#include "util/status.h"

namespace gaia::serving {

class CheckpointStore;

/// \brief Online-serving configuration (§VI): how much of the e-seller graph
/// is pulled into a request's ego-subgraph, plus the request fault policy.
struct ServerConfig {
  int64_t ego_hops = 2;     ///< matches the stacked ITA-GCN depth
  int64_t max_fanout = 10;  ///< per-hop neighbour cap for latency control
  /// Base seed for per-request ego sampling. Each request derives its own
  /// RNG stream from (seed, shop), so a given shop's ego subgraph — and
  /// therefore its forecast — is a pure function of the config, independent
  /// of request order, batching, shard assignment and thread count.
  uint64_t seed = 5;
  /// Per-request latency budget in milliseconds; a forward that overruns it
  /// is answered by the fallback forecaster instead. 0 disables the check
  /// (the default keeps no-fault runs bitwise identical to older builds).
  double deadline_ms = 0.0;
  /// With a deadline set, arm a util::CancelToken before the forward so an
  /// overrun aborts *mid-flight* at the next chunk boundary instead of
  /// burning the full compute. False reverts to the legacy
  /// check-after-forward behaviour (kept measurable: the
  /// serve_deadline_abort bench compares the two).
  bool cooperative_cancel = true;
  /// When the model path fails (ego extraction fault, non-finite output,
  /// deadline), serve a per-shop Holt-Winters forecast fit on that shop's
  /// own history instead of failing. False degrades to a zero forecast.
  bool fallback_enabled = true;
  /// Retry policy for LoadCheckpoint (transient I/O only; corrupt
  /// checkpoints are not retried).
  util::RetryPolicy checkpoint_retry;
};

/// \brief Split-conformal p10–p90 half-widths for the served forecast,
/// one per (shop-age group, horizon month).
///
/// Mondrian (group-conditional) calibration over Fig. 3's two groups: new
/// shops (series length < core::Evaluator::kNewShopThreshold) and old
/// shops, so the cold-start shops keep their own guarantee instead of
/// borrowing the old shops' narrower residuals. `half_width[g][h]` is the
/// ceil((n+1)*coverage)-th smallest |target - served forecast| of group g's
/// n calibration shops at month h, in normalized units. The table is a pure
/// value: cheap to copy, safe to share across generations and shards.
struct QuantileBandTable {
  static constexpr int kNewShops = 0;
  static constexpr int kOldShops = 1;

  /// Central coverage the bands were calibrated to (p90 - p10 mass).
  double coverage = 0.8;
  /// Extra width multiplier for degraded/fallback answers: a Holt-Winters
  /// answer carries the model's uncertainty *plus* the uncertainty of not
  /// being the model, so its bands are honestly wider.
  double degraded_inflation = 1.5;
  /// [group][horizon] band half-widths, normalized units.
  std::array<std::vector<double>, 2> half_width;

  /// kNewShops or kOldShops for a shop's observed history length.
  static int Group(int series_length);
};

/// \brief Real-time prediction service over a trained Gaia model.
///
/// Mirrors the paper's deployment: for a requested (possibly newcoming)
/// e-seller, the server extracts its ego-subgraph from the graph store, runs
/// the model on that subgraph only, and returns the denormalized GMV
/// forecast. Request latency and subgraph size are reported per call so the
/// deployment bench can verify linear scaling with client count.
///
/// Degradation ladder (docs/ROBUSTNESS.md): model forward -> per-shop
/// Holt-Winters fallback -> zero forecast. Predict never fails; the serve
/// path taken is tagged on the Prediction.
///
/// Encoding table: the FFL -> TEL rows of a node depend only on the weights
/// and the node's own series and features, so the first Serve or ServeBatch
/// after construction or LoadCheckpoint encodes every dataset node once
/// (N * T * C floats) and every later forward reads its rows from that
/// table. A node's rows do not depend on what else is encoded with it, so
/// answers are bitwise those of the self-encoding GaiaModel::PredictEgo.
///
/// Thread-safety: Serve and ServeBatch are const and safe from any number
/// of threads; concurrent first users wait for one table build. Predict/
/// PredictBatch additionally accumulate the per-server totals below without
/// synchronization, so those two entry points expect one caller at a time
/// (the sharded tier serves through Serve and ServeBatch and keeps its own
/// atomic totals).
class ModelServer {
 public:
  /// Which rung of the degradation ladder answered the request.
  enum class ServePath { kModel = 0, kFallback = 1 };

  struct Prediction {
    int32_t shop = 0;
    std::vector<double> gmv;  ///< T' monthly forecasts, GMV units
    /// Serve time after ego extraction: the model forward (or the fallback
    /// that replaced it) and the bands. The request that built the
    /// encoding table adds the build's wall time; a batch that built it
    /// adds the build time divided by the batch size to every answer.
    double latency_ms = 0.0;
    int64_t ego_nodes = 0;
    ServePath served_by = ServePath::kModel;
    /// Why the model path was abandoned (empty when served_by == kModel).
    std::string degraded_reason;
    /// Correlation id stamped by Serve (splitmix64-derived, process-unique).
    /// Matches the request's obs::EventLog record, so an operator can join a
    /// degraded answer to its /requestz entry. Never feeds the numeric path.
    uint64_t request_id = 0;
    /// Calibrated quantile bands in GMV units, one value per forecast month
    /// (empty unless EnableQuantileBands installed a table). p50 mirrors
    /// gmv; p10/p90 bound the central `coverage` mass. Degraded/fallback
    /// answers carry wider bands (the table's degraded_inflation), so an
    /// operator can read honest uncertainty off any rung of the ladder.
    std::vector<double> p10;
    std::vector<double> p50;
    std::vector<double> p90;
  };

  ModelServer(std::shared_ptr<core::GaiaModel> model,
              std::shared_ptr<const data::ForecastDataset> dataset,
              const ServerConfig& config);

  /// Serves one request. Never fails: faults on the model path degrade to
  /// the fallback forecaster. Fault sites: "serving.forward",
  /// "serving.cancel_delay".
  Prediction Predict(int32_t shop);

  /// Same, with a per-request latency budget overriding
  /// ServerConfig::deadline_ms for this call only (0 disables the deadline
  /// for this request). With cooperative_cancel the budget is armed as a
  /// CancelToken before the forward; an overrun aborts mid-flight and the
  /// request degrades with degraded_reason starting "deadline_exceeded".
  Prediction Predict(int32_t shop, double deadline_ms);

  /// The stateless request pipeline behind Predict/PredictBatch and the
  /// sharded tier: per-request ego extraction (RNG derived
  /// from (config.seed, shop)) followed by the guarded forward. Const and
  /// thread-safe — any number of threads may call it concurrently — and it
  /// does not touch the per-server request totals, so callers that need
  /// them keep their own. Results are bitwise identical to Predict's.
  /// Generates a fresh request id and delegates to the context overload.
  Prediction Serve(int32_t shop, double deadline_ms) const;

  /// Same pipeline with caller-provided request correlation: the context's
  /// request id is stamped on the Prediction and, together with the shard
  /// routing, into obs::EventLog::Global() (one lock-free append, skipped
  /// entirely when the log is disabled). The sharded tier serves through
  /// here so /requestz can answer "why did request X degrade?". Forecast
  /// bytes are identical to the two-arg overload.
  /// A token the caller installed with util::CancelScope is the parent of
  /// the deadline token: once it fires, the forward aborts at its next
  /// check and the request degrades with degraded_reason
  /// "cancelled by caller" (EventRecord::cancelled = 1).
  Prediction Serve(int32_t shop, double deadline_ms,
                   const obs::RequestContext& ctx) const;

  /// Serves a batch of requests (the deployed system predicts millions of
  /// e-sellers in a monthly sweep) through ServeBatch, with fresh request
  /// ids and the per-server totals. Every answer is bitwise identical to a
  /// Serve of the same shop, at any pool size.
  std::vector<Prediction> PredictBatch(const std::vector<int32_t>& shops);

  /// The batch pipeline behind PredictBatch and ShardedServer::PredictBatch,
  /// on the process-wide pool (GAIA_NUM_THREADS /
  /// util::ThreadPool::SetGlobalThreads): the encoding table is built first
  /// if the server has none yet, then one pass over the requests, one
  /// request per claimed thread, runs Serve's pipeline: the ego (same RNG
  /// stream, same "graph.ego_extract" fault draw) and the guarded forward
  /// (faults, deadline, NaN check, fallback, bands, event log) reading the
  /// table's rows. With a 1-thread pool the whole batch runs inline on the
  /// calling thread (pinned by ShardedServingTest.PredictBatchFanout*). A
  /// caller token (util::CancelScope) that fires before or during the build
  /// degrades every request with "cancelled by caller". The deadline covers
  /// each request's own forward, as in Serve; latency_ms adds an equal share
  /// of a build this batch ran. Const and thread-safe; `contexts` carries
  /// one request id and shard per shop.
  std::vector<Prediction> ServeBatch(
      const std::vector<int32_t>& shops, double deadline_ms,
      const std::vector<obs::RequestContext>& contexts) const;

  /// Swaps model weights in place from an offline-produced checkpoint,
  /// retrying transient I/O per config. Verify-then-swap: on any failure the
  /// serving weights are untouched and the server keeps answering with them.
  /// Drops the encoding table, so the next request encodes under the
  /// weights now loaded. Must not overlap Serve, ServeBatch or any other
  /// call on this server: the weights are loaded in place, unsynchronized.
  /// ShardedServer is the path for swaps concurrent with serving.
  Status LoadCheckpoint(const std::string& path);

  /// Same, from a checkpoint store, rolling back through its history to the
  /// newest checkpoint that verifies (see CheckpointStore). Drops the
  /// encoding table and must not overlap serving, as above.
  Status LoadCheckpoint(const CheckpointStore& store);

  /// Split-conformal calibration of the p10–p90 bands on this server's own
  /// answers: each calibration shop is answered by Serve(shop, 0), exactly
  /// as a request would be (sampled ego included), so the guarantee covers
  /// the forecast that is served. Calibration requests are counted in the
  /// serving metrics and event log like any served request, but not in the
  /// per-server totals. The shops must be held out from training (the val
  /// split) and exchangeable with the shops the bands will serve.
  /// Errors: empty or out-of-range shops, coverage outside (0, 1), a
  /// (group, month) cell with too few shops to carry the guarantee
  /// (ceil((n+1)*coverage) > n), or any answer from the fallback rung.
  /// That rule sets a floor: every (group, month) cell needs
  /// n >= coverage / (1 - coverage) calibration shops, which is 4 at 0.8
  /// and 9 at 0.9.
  Result<QuantileBandTable> CalibrateQuantileBands(
      const std::vector<int32_t>& calibration_nodes, double coverage) const;

  /// Installs a calibrated band table: every later answer carries
  /// p10/p50/p90 in GMV units. Call before serving starts — Serve reads the
  /// table without synchronization. The point forecast (gmv) is untouched,
  /// so forecasts stay bitwise identical with bands on or off.
  /// A table holds for the weights it was calibrated on: LoadCheckpoint
  /// keeps it, so a caller that swaps weights recalibrates and re-installs.
  /// Aborts unless each group carries one non-negative finite half-width
  /// per horizon month.
  void EnableQuantileBands(QuantileBandTable table);

  int64_t total_requests() const { return total_requests_; }
  double total_latency_ms() const { return total_latency_ms_; }
  /// Requests answered by the fallback forecaster since construction.
  int64_t fallback_requests() const { return fallback_requests_; }
  /// Checkpoints skipped as bad during the most recent store load.
  int last_load_rollbacks() const { return last_load_rollbacks_; }

 private:
  /// The request's ego subgraph, from its own (config.seed, shop) stream.
  graph::EgoSubgraph ExtractEgo(int32_t shop) const;

  /// The encoding table of the current weights, built on first use in
  /// chunks of at most 32 nodes fanned over the pool (inline under an
  /// InlineScope). Concurrent callers wait for one build. The caller's token
  /// is polled between chunks: once it fires, the build stops, nothing is
  /// published and null is returned. `build_ms` is the wall time of a build
  /// this call ran, else 0. Thread-safe.
  const core::NodeEncodings* Encodings(double* build_ms) const;

  /// Unpublishes and frees the encoding table (LoadCheckpoint).
  void DropEncodings();

  /// The per-request pipeline behind both Serve and ServeBatch: forward
  /// with NaN/deadline guards (cooperative token when configured), degrading
  /// to FallbackForecast. The forward reads the ego's rows from `encodings`,
  /// which is null only when the caller's token cancelled its build.
  /// Thread-safe.
  Prediction PredictOne(int32_t shop, const graph::EgoSubgraph& ego,
                        const core::NodeEncodings* encodings,
                        double deadline_ms) const;

  /// Stamps the request id and bands, then records the answer in the
  /// serving metrics and the event log.
  void Finish(Prediction* prediction, const obs::RequestContext& ctx) const;

  /// The degradation rung below the model: additive Holt-Winters fit on the
  /// shop's own normalized history, denormalized and clamped to >= 0.
  std::vector<double> FallbackForecast(int32_t shop) const;

  /// Attaches p10/p50/p90 from the installed band table. Width =
  /// half_width[group][h], denormalized, inflated for fallback answers;
  /// p10 is floored at zero like every GMV value.
  void ApplyQuantileBands(Prediction* prediction) const;

  std::shared_ptr<core::GaiaModel> model_;
  std::shared_ptr<const data::ForecastDataset> dataset_;
  ServerConfig config_;
  /// Calibrated uncertainty table; null until EnableQuantileBands.
  std::shared_ptr<const QuantileBandTable> bands_;
  int64_t total_requests_ = 0;
  double total_latency_ms_ = 0.0;
  int64_t fallback_requests_ = 0;
  int last_load_rollbacks_ = 0;
  /// The published encoding table (null until built and after
  /// LoadCheckpoint); readers take it with one acquire load. `table_` owns
  /// it; both are written only under `table_mu_`, which also serializes
  /// builds.
  mutable std::mutex table_mu_;
  mutable std::unique_ptr<const core::NodeEncodings> table_;
  mutable std::atomic<const core::NodeEncodings*> published_table_{nullptr};
  /// Running mean of successful model-forward latency (microseconds),
  /// feeding the gaia_cancel_latency_saved_seconds estimate. Atomic because
  /// PredictBatch runs PredictOne concurrently.
  mutable std::atomic<int64_t> model_forward_count_{0};
  mutable std::atomic<int64_t> model_forward_us_total_{0};
};

/// \brief Offline side of the hybrid architecture (§VI, Fig. 5): the
/// monthly-scheduled pipeline that assembles features and relations (here:
/// the already-built ForecastDataset), trains Gaia, and publishes a
/// checkpoint for the model server.
class OfflineTrainingPipeline {
 public:
  struct Config {
    core::GaiaConfig model;
    core::TrainConfig train;
    std::string checkpoint_path;  ///< where the trained weights are published
  };

  explicit OfflineTrainingPipeline(const Config& config) : config_(config) {}

  struct RunReport {
    core::TrainResult train;
    std::string checkpoint_path;
  };

  /// One scheduled run: train and publish. Returns the trained model (the
  /// server can also LoadCheckpoint from the published path).
  Result<std::shared_ptr<core::GaiaModel>> Run(
      const data::ForecastDataset& dataset, RunReport* report = nullptr) const;

 private:
  Config config_;
};

}  // namespace gaia::serving

#endif  // GAIA_SERVING_MODEL_SERVER_H_
