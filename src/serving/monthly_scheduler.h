#ifndef GAIA_SERVING_MONTHLY_SCHEDULER_H_
#define GAIA_SERVING_MONTHLY_SCHEDULER_H_

#include <memory>
#include <string>
#include <vector>

#include "core/evaluator.h"
#include "data/market_simulator.h"
#include "serving/checkpoint_store.h"
#include "serving/model_server.h"

namespace gaia::serving {

/// \brief Simulation of the paper's monthly pipeline schedule (§VI): each
/// cycle the e-seller graph and features are re-extracted (a fresh market
/// snapshot), Gaia is retrained offline, the checkpoint is published, and
/// the online server hot-swaps to it.
///
/// Each cycle advances the market by one month: the calendar start shifts
/// and the shop/graph population is redrawn (shops open and close, relations
/// change), which is exactly the "ever-changing graph structure" the paper
/// reschedules for.
///
/// Fault tolerance: a broken cycle (market failure, failed retrain, corrupt
/// checkpoint publish) no longer aborts the run. The cycle is reported
/// unhealthy, serving falls back to the newest good checkpoint in the store
/// (rollback), and the schedule moves on — Run only fails when *no* cycle
/// manages to serve.
class MonthlyScheduler {
 public:
  struct Config {
    data::MarketConfig market;              ///< base market snapshot
    OfflineTrainingPipeline::Config offline;
    ServerConfig server;
    int num_cycles = 3;
    /// When non-empty, checkpoints are published through a CheckpointStore
    /// rooted here (atomic publish, verification, last-N history, rollback).
    /// Empty keeps the legacy single-file publish via
    /// offline.checkpoint_path.
    std::string checkpoint_dir;
    int checkpoint_keep = 3;  ///< store history depth (checkpoint_dir mode)
    /// Trailing window (in served cycles) for the online drift score: each
    /// cycle's forecast MAE is compared against the mean MAE of the last N
    /// healthy served cycles and the relative excess is exported as
    /// `gaia_drift_score`. Rolled-back cycles are scored but never enter
    /// the window (their MAE reflects stale weights, not the market).
    /// <= 0 disables the tracker.
    int drift_window_cycles = 3;
    /// Adversarial regime layered on every cycle's market snapshot (the
    /// same script replays against each month's redrawn population). An
    /// empty script leaves the schedule bitwise identical to older builds.
    data::RegimeScript regime;
    /// First cycle the regime applies to (earlier cycles generate plain
    /// markets). Lets a scenario script a regime *onset* mid-run — clean
    /// baseline cycles followed by the shock — which is what makes the
    /// drift score rise deterministically. 0 = every cycle.
    int regime_from_cycle = 0;
  };

  struct CycleReport {
    int cycle = 0;
    int calendar_start_month = 0;           ///< month-0 calendar of snapshot
    core::TrainResult train;
    core::EvaluationReport online;          ///< served forecasts vs truth
    double mean_latency_ms = 0.0;
    int64_t graph_edges = 0;
    // --- per-cycle health ---------------------------------------------------
    bool healthy = true;      ///< every step of the cycle succeeded
    bool trained = false;     ///< offline retrain completed
    bool served = false;      ///< online requests were answered
    bool rolled_back = false; ///< served an older checkpoint than this cycle's
    int64_t fallback_requests = 0;  ///< requests degraded to the fallback
    std::string checkpoint_path;    ///< checkpoint that served this cycle
    Status error;             ///< first failure observed (OK when healthy)
    // --- online drift (served cycles only) ----------------------------------
    /// Relative excess of this cycle's online MAE over the trailing-window
    /// mean: (mae - baseline) / baseline. 0 for the first served cycle
    /// (no baseline yet) and for unserved cycles; positive = drifting worse.
    double drift_score = 0.0;
    /// The trailing-window mean MAE this cycle was scored against (0 when
    /// no baseline existed yet).
    double drift_baseline_mae = 0.0;
  };

  explicit MonthlyScheduler(const Config& config) : config_(config) {}

  /// Runs all cycles, skipping broken ones. Returns one report per cycle
  /// (including unhealthy ones); fails only when no cycle served at all.
  Result<std::vector<CycleReport>> Run() const;

 private:
  Config config_;
};

}  // namespace gaia::serving

#endif  // GAIA_SERVING_MONTHLY_SCHEDULER_H_
