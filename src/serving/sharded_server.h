#ifndef GAIA_SERVING_SHARDED_SERVER_H_
#define GAIA_SERVING_SHARDED_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "graph/hash_shard.h"
#include "serving/model_server.h"
#include "util/cancel.h"
#include "util/status.h"

namespace gaia::obs {
class Counter;
}  // namespace gaia::obs

namespace gaia::serving {

class CheckpointStore;

/// \brief Configuration of the sharded serving tier.
struct ShardedServerConfig {
  /// Shards the e-seller graph is partitioned into by shop id (HashShard).
  /// A shard labels a request's per-shard counter and its obs::EventLog
  /// record; it does not decide which thread answers the request.
  int num_shards = 1;
  /// Per-generation ModelServer config (ego sampling, deadlines, fallback).
  ServerConfig server;
};

/// \brief Concurrent serving tier with RCU-style checkpoint swap (the
/// "online serving" half of the paper's hybrid architecture, scaled out).
///
/// Every request is answered on its caller's thread. Predict pins the live
/// generation and runs ModelServer::Serve with nested loops inline
/// (util::ThreadPool::InlineScope), so N concurrent callers run N forwards
/// concurrently and never contend on the process-wide pool. PredictBatch
/// pins one generation for the whole batch and fans the shops out on the
/// pool like ModelServer::PredictBatch. Both are the exact serial path per
/// request, so forecasts are bitwise identical to the unsharded
/// ModelServer::PredictBatch at any shard, caller and thread count (each
/// forecast is a pure function of (config, shop); see ServerConfig::seed).
///
/// Checkpoint swap is epoch/RCU-style: LoadCheckpoint builds a *fresh*
/// model generation off to the side (load + verify into an unpublished
/// model), wraps it in its own ModelServer, and flips the tier's generation
/// cell — a mutex-guarded shared_ptr exchange. Readers pin the cell once per
/// Predict or PredictBatch, so they never block on a retrain and each call
/// finishes entirely on the generation it started with: an answer, and
/// every answer of one batch, comes from the old generation or the new one,
/// never a torn mix. Old generations are reclaimed by shared_ptr count when
/// their last reader returns.
///
/// Deadlines and cancellation: a request's deadline covers the work after
/// Predict is called (ego extraction + forward). The caller's token is
/// installed around that work, so a token that fired before the call, or
/// fires during it, aborts the forward at its next check and the request
/// degrades to the fallback ("cancelled by caller"), as in ModelServer.
///
/// Thread-safety: Predict/PredictBatch are safe from any number of threads.
/// LoadCheckpoint may run concurrently with serving (that is the point) but
/// publishes are serialized against each other by an internal mutex.
class ShardedServer {
 public:
  using Prediction = ModelServer::Prediction;

  ShardedServer(std::shared_ptr<core::GaiaModel> model,
                std::shared_ptr<const data::ForecastDataset> dataset,
                const ShardedServerConfig& config);
  ShardedServer(const ShardedServer&) = delete;
  ShardedServer& operator=(const ShardedServer&) = delete;

  /// Serves one request on the calling thread. Never fails — the
  /// degradation ladder is the same as ModelServer's.
  Prediction Predict(int32_t shop);

  /// Same, with a per-request deadline (0 = none) and an optional
  /// cancellation token. The token must outlive the call.
  Prediction Predict(int32_t shop, double deadline_ms,
                     const util::CancelToken* cancel = nullptr);

  /// Answers the batch in input order against one generation snapshot,
  /// fanned out on the process-wide pool. Bitwise identical to
  /// ModelServer::PredictBatch on the same (model, dataset, server config)
  /// at any shard/thread count.
  std::vector<Prediction> PredictBatch(const std::vector<int32_t>& shops);

  /// RCU publish from a checkpoint file: load + verify into a fresh
  /// generation, then flip the generation cell. Serving continues on the
  /// old generation throughout; on any failure nothing is flipped.
  Status LoadCheckpoint(const std::string& path);

  /// Same, adopting the newest good checkpoint from a store (rolling back
  /// through its history like ModelServer::LoadCheckpoint).
  Status LoadCheckpoint(const CheckpointStore& store);

  /// Installs a calibrated band table on the live generation and on every
  /// generation published after this call: every answer carries
  /// p10/p50/p90 identical to an unsharded ModelServer with the same table.
  /// Calibrate with ModelServer::CalibrateQuantileBands on a server over the
  /// same model, dataset and ServerConfig — its answers are bitwise this
  /// tier's — whose calibration requests are served and counted like any
  /// other. A table holds for the weights it was calibrated on: a publish
  /// (LoadCheckpoint) keeps it, so a caller that swaps weights recalibrates
  /// and re-installs. Serialized against publishes; the swap is the usual
  /// RCU flip (same epoch number), so calls already in flight finish on the
  /// band-less generation and later ones carry bands.
  void EnableQuantileBands(QuantileBandTable table);

  int num_shards() const { return config_.num_shards; }
  /// Shard a shop's requests are counted under (stable across processes).
  int ShardOf(int32_t shop) const {
    return graph::HashShard(shop, config_.num_shards);
  }
  /// Requests answered since construction (all paths, all shards).
  int64_t total_requests() const {
    return total_requests_.load(std::memory_order_relaxed);
  }
  /// Requests answered by the fallback rung.
  int64_t fallback_requests() const {
    return fallback_requests_.load(std::memory_order_relaxed);
  }
  /// Generation number: 0 for the construction model, +1 per successful
  /// LoadCheckpoint flip.
  int64_t epoch() const { return epoch_.load(std::memory_order_acquire); }
  /// Checkpoints skipped as bad during the most recent store load.
  int last_load_rollbacks() const { return last_load_rollbacks_; }

 private:
  /// One immutable serving generation: the model plus the ModelServer
  /// wrapping it. Readers hold it via shared_ptr for a whole call.
  struct Generation {
    std::shared_ptr<core::GaiaModel> model;
    std::unique_ptr<const ModelServer> server;
    int64_t epoch = 0;
  };

  /// Pins the live generation.
  std::shared_ptr<const Generation> LoadGeneration() const;
  /// Builds a Generation around an already-loaded model.
  std::shared_ptr<const Generation> MakeGeneration(
      std::shared_ptr<core::GaiaModel> model, int64_t epoch) const;
  /// Flips the generation cell to `next` and bumps the epoch.
  void FlipGeneration(std::shared_ptr<const Generation> next);
  /// Creates an unpublished model with this tier's dimensions, ready for a
  /// checkpoint load.
  Result<std::shared_ptr<core::GaiaModel>> NewEmptyModel() const;
  /// Answers one request on `generation` and counts it.
  Prediction ServeOne(const Generation& generation, int32_t shop,
                      double deadline_ms);

  ShardedServerConfig config_;
  std::shared_ptr<const data::ForecastDataset> dataset_;
  /// gaia_serve_shard_<k>_requests_total, registry-owned, one per shard.
  std::vector<obs::Counter*> shard_requests_;
  /// The generation cell. The mutex only covers the pointer exchange
  /// (nanoseconds), never a load or a forward — this is the epoch/RCU
  /// discipline: writers swap, readers pin a snapshot.
  mutable std::mutex generation_mu_;
  std::shared_ptr<const Generation> generation_;
  std::mutex publish_mu_;  ///< serializes LoadCheckpoint publishers
  /// Band table stamped onto every generation built after installation.
  /// Written under publish_mu_; read by MakeGeneration (also under the
  /// mutex, or during construction).
  std::shared_ptr<const QuantileBandTable> bands_;
  std::atomic<int64_t> epoch_{0};
  std::atomic<int64_t> total_requests_{0};
  std::atomic<int64_t> fallback_requests_{0};
  int last_load_rollbacks_ = 0;
};

}  // namespace gaia::serving

#endif  // GAIA_SERVING_SHARDED_SERVER_H_
