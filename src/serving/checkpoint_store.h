#ifndef GAIA_SERVING_CHECKPOINT_STORE_H_
#define GAIA_SERVING_CHECKPOINT_STORE_H_

#include <string>
#include <vector>

#include "nn/module.h"
#include "util/retry.h"
#include "util/status.h"

namespace gaia::serving {

/// \brief Configuration of the versioned checkpoint directory.
struct CheckpointStoreConfig {
  std::string dir;    ///< directory holding ckpt-<seq>.bin files
  int keep_last = 3;  ///< good checkpoints retained (older ones pruned)
  /// Per-candidate load retry (transient I/O); corruption is not retried —
  /// the store rolls back to the previous checkpoint instead.
  util::RetryPolicy retry;
  /// Guard Publish with the cross-process lockfile (see PublishLock below).
  /// A publish attempted while another process holds the lock returns
  /// kUnavailable (retryable) without touching the history.
  bool use_lockfile = true;
};

/// \brief Advisory cross-process lock on a checkpoint directory.
///
/// Backs the serve/retrain process split: the retraining process holds the
/// lock while publishing so two retrainers cannot interleave sequence
/// numbers or manifest writes. Serving processes never take it — adoption
/// reads the manifest, whose tmp+rename publish is atomic on POSIX.
///
/// Implementation: O_CREAT|O_EXCL creation of `<dir>/store.lock` holding the
/// owner pid. A lock left behind by a dead process (pid no longer running)
/// is detected and broken on the next acquisition attempt.
class PublishLock {
 public:
  /// Tries to take the lock; kUnavailable when live-held by someone else.
  static Result<PublishLock> Acquire(const std::string& dir);

  PublishLock(PublishLock&& other) noexcept;
  PublishLock& operator=(PublishLock&& other) noexcept;
  PublishLock(const PublishLock&) = delete;
  PublishLock& operator=(const PublishLock&) = delete;
  /// Releases (removes the lockfile).
  ~PublishLock();

  const std::string& path() const { return path_; }

 private:
  explicit PublishLock(std::string path) : path_(std::move(path)) {}
  std::string path_;  ///< empty after a move (released elsewhere)
};

/// \brief Keeps the last-N good checkpoints so serving can roll back.
///
/// The offline pipeline publishes into the store (atomic write + file-level
/// verification: a corrupt publish never enters the history); the online
/// server loads "the newest good checkpoint": candidates are tried newest to
/// oldest, transient errors retried with backoff, corrupt files skipped with
/// a gaia_robust_checkpoint_rollbacks_total tick. Because nn::Module::Load
/// is all-or-nothing, a failed candidate never perturbs the live weights.
///
/// Every history mutation also publishes `manifest.json`
/// (gaia.checkpoint_manifest/1, written atomically via tmp+rename): the
/// next sequence number plus the good history, oldest first. A fresh store
/// — typically the serving process adopting what a separate retraining
/// process published — reads the manifest for O(1) adoption instead of
/// scanning and ordering the directory; a missing or corrupt manifest falls
/// back to the directory scan, and entries whose files have vanished are
/// dropped. Rollback still verifies each candidate, so a manifest whose
/// newest entry was corrupted on disk rolls back exactly like a scanned
/// history would.
///
/// Not thread-safe within a process: the monthly scheduler publishes and
/// swaps from one thread, matching the paper's single offline pipeline.
/// Across processes, Publish takes the PublishLock (config.use_lockfile).
class CheckpointStore {
 public:
  /// Creates `config.dir` if needed and adopts the manifest history (or, on
  /// a missing/corrupt manifest, any ckpt-<seq>.bin files present), ordered
  /// by sequence number.
  explicit CheckpointStore(const CheckpointStoreConfig& config);

  /// Saves `module` as the next ckpt-<seq>.bin, verifies the written file,
  /// prunes beyond keep_last and publishes the refreshed manifest. On
  /// verification failure the bad file is deleted, the history is unchanged
  /// and the error is returned — the previous checkpoint stays the newest
  /// good one.
  Result<std::string> Publish(const nn::Module& module);

  /// Outcome of a LoadLatestGood call.
  struct LoadReport {
    std::string path;   ///< checkpoint actually applied
    int rollbacks = 0;  ///< newer checkpoints skipped as bad
  };

  /// Loads the newest checkpoint that both survives its retry policy and
  /// passes Module::Load verification, rolling back through history until
  /// one applies. Fails with the last error when none does.
  Result<LoadReport> LoadLatestGood(nn::Module* module) const;

  /// Known checkpoint paths, oldest first.
  const std::vector<std::string>& history() const { return history_; }
  const std::string& dir() const { return config_.dir; }
  /// True when construction adopted the history from manifest.json rather
  /// than a directory scan (exposed for tests and diagnostics).
  bool adopted_from_manifest() const { return adopted_from_manifest_; }

  /// Path of the manifest this store maintains.
  std::string ManifestPath() const;

 private:
  std::string PathForSeq(int64_t seq) const;
  /// Serializes + atomically replaces manifest.json. Best-effort: a failed
  /// manifest write degrades the *next* adoption to a directory scan but
  /// never fails the publish that triggered it.
  void WriteManifest() const;
  /// Parses manifest.json into history_/next_seq_. False on any problem.
  bool AdoptFromManifest();
  void AdoptFromScan();

  CheckpointStoreConfig config_;
  std::vector<std::string> history_;  ///< oldest .. newest
  int64_t next_seq_ = 0;
  bool adopted_from_manifest_ = false;
};

}  // namespace gaia::serving

#endif  // GAIA_SERVING_CHECKPOINT_STORE_H_
