#ifndef GAIA_SERVING_SHARDED_SERVER_H_
#define GAIA_SERVING_SHARDED_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "graph/hash_shard.h"
#include "serving/model_server.h"
#include "util/cancel.h"
#include "util/mpmc_queue.h"
#include "util/status.h"

namespace gaia::obs {
class Counter;
class Gauge;
}  // namespace gaia::obs

namespace gaia::serving {

class CheckpointStore;

/// \brief Configuration of the sharded serving tier.
struct ShardedServerConfig {
  /// Shards the e-seller graph is partitioned into; one worker thread and
  /// one micro-batch queue per shard.
  int num_shards = 1;
  /// Micro-batch window flushes when this many requests have coalesced...
  int max_batch = 8;
  /// ...or this much wall-clock has passed since the window opened,
  /// whichever comes first. 0 serves each request as soon as it is popped
  /// (window of one unless requests are already queued).
  double max_wait_us = 200.0;
  /// Bound of each shard's request queue; a full queue back-pressures
  /// Predict callers (Push blocks) instead of growing without limit.
  size_t queue_capacity = 1024;
  /// Per-generation ModelServer config (ego sampling, deadlines, fallback).
  ServerConfig server;
};

/// \brief Sharded concurrent serving tier: K shards, micro-batching, and
/// RCU-style checkpoint swap (the "online serving" half of the paper's
/// hybrid architecture, scaled out).
///
/// The e-seller graph is partitioned by shop id into `num_shards` shards.
/// Each shard owns a bounded MPMC queue and one worker thread: concurrent
/// Predict calls enqueue onto their shop's shard and the worker coalesces
/// them into micro-batch windows (flush on `max_batch` or `max_wait_us`,
/// whichever first), serving each window against a single generation
/// snapshot. Parallelism comes from the K shard workers running
/// concurrently; inside a worker, forwards run inline (serially) via
/// util::ThreadPool::InlineScope, so shard workers never contend on the
/// process-wide pool — and because the inline path is the exact serial
/// path, forecasts are bitwise identical to the unsharded
/// ModelServer::PredictBatch at any shard/thread count (each forecast is a
/// pure function of (config, shop); see ServerConfig::seed).
///
/// Checkpoint swap is epoch/RCU-style: LoadCheckpoint builds a *fresh*
/// model generation off to the side (load + verify into an unpublished
/// model), wraps it in its own ModelServer, and flips each shard's
/// generation cell — a mutex-guarded shared_ptr exchange. Workers snapshot
/// the cell once per window, so readers never block on a retrain and every
/// in-flight window finishes entirely on the generation it started with:
/// a request observes the old generation or the new one, never a torn mix.
/// Old generations are reclaimed by shared_ptr count when their last
/// window drains.
///
/// Request lifecycle inside a window, per request:
///   1. queue-wait recorded (gaia_serve_queue_wait_seconds);
///   2. a request whose CancelToken fired while queued is dropped before
///      the forward (degraded_reason "cancelled while queued",
///      gaia_serve_cancelled_in_queue_total, NoteCancelObserved) — the rest
///      of the window is unaffected;
///   3. a request whose deadline budget was consumed while queued degrades
///      straight to the fallback (reason prefix "deadline_exceeded");
///   4. otherwise the remaining budget is armed and the forward runs under
///      the request's token (mid-flight aborts degrade as in ModelServer).
///
/// Thread-safety: Predict/PredictBatch are safe from any number of threads.
/// LoadCheckpoint may run concurrently with serving (that is the point) but
/// publishes are serialized against each other by an internal mutex. Stop
/// drains the queues (every accepted request is answered) and joins the
/// workers; requests arriving after Stop are served inline on the caller.
class ShardedServer {
 public:
  using Prediction = ModelServer::Prediction;

  ShardedServer(std::shared_ptr<core::GaiaModel> model,
                std::shared_ptr<const data::ForecastDataset> dataset,
                const ShardedServerConfig& config);
  ~ShardedServer();
  ShardedServer(const ShardedServer&) = delete;
  ShardedServer& operator=(const ShardedServer&) = delete;

  /// Serves one request through its shard's micro-batch queue. Blocks until
  /// answered (or until back-pressure admits the request). Never fails —
  /// the degradation ladder is the same as ModelServer's.
  Prediction Predict(int32_t shop);

  /// Same, with a per-request deadline (0 = none) and an optional
  /// cancellation token. The deadline covers queue wait + forward: budget
  /// consumed while queued is subtracted from what the forward gets. The
  /// token must outlive the call; cancelling it while the request waits in
  /// the queue drops the request before the forward.
  Prediction Predict(int32_t shop, double deadline_ms,
                     const util::CancelToken* cancel = nullptr);

  /// Enqueues the whole batch across shards, then gathers answers in input
  /// order. Bitwise identical to ModelServer::PredictBatch on the same
  /// (model, dataset, server config) at any shard/thread count.
  std::vector<Prediction> PredictBatch(const std::vector<int32_t>& shops);

  /// RCU publish from a checkpoint file: load + verify into a fresh
  /// generation, then flip every shard's cell. Serving continues on the old
  /// generation throughout; on any failure nothing is flipped.
  Status LoadCheckpoint(const std::string& path);

  /// Same, adopting the newest good checkpoint from a store (rolling back
  /// through its history like ModelServer::LoadCheckpoint).
  Status LoadCheckpoint(const CheckpointStore& store);

  /// Installs a calibrated band table on the live generation and on every
  /// generation published after this call: answers from any shard carry
  /// p10/p50/p90 identical to an unsharded ModelServer with the same table.
  /// Calibrate with ModelServer::CalibrateQuantileBands on a server over the
  /// same model, dataset and ServerConfig — its answers are bitwise this
  /// tier's — whose calibration requests are served and counted like any
  /// other. A table holds for the weights it was calibrated on: a publish
  /// (LoadCheckpoint) keeps it, so a caller that swaps weights recalibrates
  /// and re-installs. Serialized against publishes; the swap is the usual
  /// RCU flip (same epoch number), so in-flight windows finish on the
  /// band-less generation and later ones carry bands.
  void EnableQuantileBands(QuantileBandTable table);

  /// Closes the shard queues, answers everything already accepted, joins
  /// the workers. Idempotent; the destructor calls it.
  void Stop();

  int num_shards() const { return config_.num_shards; }
  /// Shard a shop's requests are routed to (stable across processes).
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
  /// wrapping it. Reader threads hold it via shared_ptr for a whole window.
  struct Generation {
    std::shared_ptr<core::GaiaModel> model;
    std::unique_ptr<const ModelServer> server;
    int64_t epoch = 0;
  };

  /// Mutex-guarded shared_ptr cell, one per shard. The mutex only covers
  /// the pointer exchange (nanoseconds), never a load or a forward — this
  /// is the epoch/RCU discipline: writers swap, readers pin a snapshot.
  struct GenerationCell {
    mutable std::mutex mu;
    std::shared_ptr<const Generation> generation;

    std::shared_ptr<const Generation> Load() const {
      std::lock_guard<std::mutex> lock(mu);
      return generation;
    }
    void Store(std::shared_ptr<const Generation> next) {
      std::lock_guard<std::mutex> lock(mu);
      generation = std::move(next);
    }
  };

  /// A request parked in a shard queue awaiting its micro-batch window.
  struct PendingRequest {
    int32_t shop = 0;
    double deadline_ms = 0.0;  ///< 0 = no deadline
    const util::CancelToken* cancel = nullptr;
    /// Correlation id assigned at Submit; stamped on the answer and into
    /// the obs::EventLog record together with queue wait and shard.
    uint64_t request_id = 0;
    std::chrono::steady_clock::time_point enqueued_at;
    std::promise<Prediction> promise;
  };

  /// Per-shard state. Queue + worker + generation cell + counters. The
  /// metric pointers (gaia_serve_shard_<k>_*) are registry-owned and live
  /// for the process; they are resolved once at construction.
  struct Shard {
    std::unique_ptr<util::MpmcQueue<std::unique_ptr<PendingRequest>>> queue;
    std::thread worker;
    GenerationCell cell;
    std::atomic<int64_t> requests{0};
    obs::Counter* requests_total = nullptr;
    obs::Counter* windows_total = nullptr;
    obs::Gauge* queue_depth = nullptr;
  };

  /// Builds a Generation around an already-loaded model.
  std::shared_ptr<const Generation> MakeGeneration(
      std::shared_ptr<core::GaiaModel> model, int64_t epoch) const;
  /// Flips every shard cell to `next` and bumps the epoch.
  void FlipGenerations(std::shared_ptr<const Generation> next);
  /// Creates an unpublished model with this tier's dimensions, ready for a
  /// checkpoint load.
  Result<std::shared_ptr<core::GaiaModel>> NewEmptyModel() const;

  /// Enqueues one request; serves inline on the caller when the tier has
  /// stopped (queues closed).
  std::future<Prediction> Submit(int32_t shop, double deadline_ms,
                                 const util::CancelToken* cancel);
  /// Shard worker main loop: pop, open window, flush, serve, repeat.
  void WorkerLoop(int shard_index);
  /// Serves one micro-batch window against one generation snapshot.
  void ServeWindow(int shard_index,
                   std::vector<std::unique_ptr<PendingRequest>>& window);
  /// Answers one request (steps 1-4 of the lifecycle above) using `gen`.
  /// `shard_index` only tags the request's flight-recorder record.
  Prediction ServeOne(const Generation& gen, PendingRequest& request,
                      int shard_index);
  void RecordAnswer(int shard_index, const Prediction& prediction);

  ShardedServerConfig config_;
  std::shared_ptr<const data::ForecastDataset> dataset_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::mutex publish_mu_;  ///< serializes LoadCheckpoint publishers
  /// Band table stamped onto every generation built after installation.
  /// Written under publish_mu_; read by MakeGeneration (also under the
  /// mutex, or during construction before any worker exists).
  std::shared_ptr<const QuantileBandTable> bands_;
  std::atomic<int64_t> epoch_{0};
  std::atomic<int64_t> total_requests_{0};
  std::atomic<int64_t> fallback_requests_{0};
  int last_load_rollbacks_ = 0;
  std::atomic<bool> stopped_{false};
};

}  // namespace gaia::serving

#endif  // GAIA_SERVING_SHARDED_SERVER_H_
