#ifndef GAIA_UTIL_THREAD_POOL_H_
#define GAIA_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace gaia::util {

class CancelToken;

/// \brief Fixed-size thread pool with a blocking, deterministic ParallelFor.
///
/// Design goals, in order: deterministic numerics, simplicity, speed. There
/// is no work stealing; a loop is split into contiguous chunks handed out
/// through one atomic cursor. Chunk *assignment* to threads is dynamic, but
/// every chunk runs exactly the same serial inner loop over the same
/// indices, so any kernel that writes disjoint output slots per index is
/// bitwise identical at every thread count — including 1, which runs inline
/// on the caller with no synchronization at all.
///
/// Semantics:
///  - A pool of `num_threads` runs `num_threads - 1` background workers; the
///    calling thread always participates, so ThreadPool(1) spawns nothing
///    and recovers the exact serial path.
///  - Nested ParallelFor calls (issued from inside a pool task) run inline
///    serially; composed parallel code cannot deadlock.
///  - Empty or negative ranges are no-ops.
///  - Exceptions thrown by the body are captured; remaining chunks are
///    skipped and the first exception is rethrown on the calling thread
///    after the loop drains.
///  - With a CancelToken armed, the token is checked once per claimed chunk:
///    after it fires, remaining chunk bodies are skipped and the loop drains
///    early. Chunk boundaries and accumulation order never depend on the
///    token, so an armed-but-unfired token is bitwise identical to no token,
///    and a fired one never interrupts a chunk mid-write.
class ThreadPool {
 public:
  /// Spawns `num_threads - 1` workers. Pre: num_threads >= 1.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total threads that can run loop bodies (workers + the caller).
  int num_threads() const { return static_cast<int>(workers_.size()) + 1; }

  /// Runs body(i) for every i in [0, n), blocking until all complete.
  /// `grain` is the number of consecutive indices claimed at a time.
  /// With `cancel` non-null, chunks claimed after the token fires are
  /// skipped (see class comment); the token is also installed as
  /// CancelToken::Current() on the worker threads for the duration of
  /// their chunk runs, so nested kernels observe it too.
  void ParallelFor(int64_t n, const std::function<void(int64_t)>& body,
                   int64_t grain = 1, const CancelToken* cancel = nullptr);

  /// Blocked variant: body(begin, end) over disjoint chunks of at most
  /// `grain` consecutive indices covering [0, n).
  void ParallelForRange(int64_t n, int64_t grain,
                        const std::function<void(int64_t, int64_t)>& body,
                        const CancelToken* cancel = nullptr);

  /// Process-wide pool used by the parallel kernels. Created on first use
  /// with DefaultThreads().
  static ThreadPool& Global();

  /// Resizes the global pool (the GAIA_NUM_THREADS-style runtime knob,
  /// plumbed through GaiaConfig / TrainConfig / ServerConfig). Must not be
  /// called while parallel work is in flight. Pre: num_threads >= 1.
  static void SetGlobalThreads(int num_threads);

  /// Current size of the global pool (DefaultThreads() if not yet created).
  static int GlobalThreads();

  /// Thread count from the GAIA_NUM_THREADS environment variable when set
  /// (clamped to [1, 256]), else std::thread::hardware_concurrency().
  static int DefaultThreads();

  /// True when called from inside a ParallelFor body (on any thread).
  static bool InParallelRegion();

  /// \brief RAII scope that marks the current thread as already inside a
  /// parallel region, forcing every nested ParallelFor to run inline
  /// serially instead of dispatching to the global pool.
  ///
  /// Long-lived service threads (the sharded server's per-shard workers) use
  /// this so K shards can run K forwards truly concurrently: without it each
  /// worker would submit to the one global pool and serialize on its submit
  /// mutex. The inline path is the exact serial path, so results stay
  /// bitwise identical (parallel_determinism_test's guarantee).
  class InlineScope {
   public:
    InlineScope();
    ~InlineScope();
    InlineScope(const InlineScope&) = delete;
    InlineScope& operator=(const InlineScope&) = delete;

   private:
    bool previous_;
  };

 private:
  struct Job;

  void WorkerLoop();
  void RunChunks(Job& job);

  std::vector<std::thread> workers_;
  std::mutex mu_;                ///< guards job_ / stop_
  std::condition_variable cv_;   ///< wakes workers when a job arrives
  std::shared_ptr<Job> job_;     ///< currently dispatched job, if any
  bool stop_ = false;
  std::mutex submit_mu_;         ///< serializes top-level ParallelFor calls
};

/// Convenience wrappers over the global pool. These check the nesting flag
/// before touching the pool, so nested and small loops stay lock-free.
/// They consult CancelToken::Current() automatically, which is how the
/// tensor kernels and model layers become abortable without signature
/// changes: installing a CancelScope above them is enough.
void ParallelFor(int64_t n, const std::function<void(int64_t)>& body,
                 int64_t grain = 1);
void ParallelForRange(int64_t n, int64_t grain,
                      const std::function<void(int64_t, int64_t)>& body);

/// Thread-ambient flag behind autograd::InferenceScope ("record no autograd
/// tape"). It lives here, below autograd, so that a dispatched loop can hand
/// the submitting thread's value to the workers that run its chunks, as it
/// hands them the CancelToken.
bool TapeDisabled();
void SetTapeDisabled(bool disabled);

}  // namespace gaia::util

#endif  // GAIA_UTIL_THREAD_POOL_H_
