#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <optional>

#include "obs/obs.h"
#include "util/cancel.h"
#include "util/check.h"

namespace gaia::util {

namespace {

/// Set while a thread is executing chunks of some job; nested ParallelFor
/// calls observe it and run inline.
thread_local bool tl_in_parallel_region = false;

/// See TapeDisabled(); copied into each job and re-installed on workers.
thread_local bool tl_tape_disabled = false;

/// Pool metrics, resolved once (registry lookups take a mutex; the returned
/// references are stable). Only touched when obs::Enabled().
struct PoolMetrics {
  obs::Counter& jobs = obs::MetricsRegistry::Global().GetCounter(
      "gaia_pool_jobs_total", "Top-level ParallelFor jobs dispatched to workers");
  obs::Counter& chunks = obs::MetricsRegistry::Global().GetCounter(
      "gaia_pool_chunks_total", "Loop chunks executed across all threads");
  obs::Counter& busy_ns = obs::MetricsRegistry::Global().GetCounter(
      "gaia_pool_busy_ns_total",
      "Nanoseconds spent running loop bodies, summed over threads");
  obs::Counter& inline_chunks = obs::MetricsRegistry::Global().GetCounter(
      "gaia_pool_inline_chunks_total",
      "Loops run inline on the caller (1-thread pool, nested, or sub-grain)");
  obs::Histogram& queue_wait = obs::MetricsRegistry::Global().GetHistogram(
      "gaia_pool_queue_wait_seconds", {},
      "Delay between job submit and a thread claiming its first chunk");
  static PoolMetrics& Get() {
    static PoolMetrics* metrics = new PoolMetrics();
    return *metrics;
  }
};

std::mutex g_global_mu;
std::unique_ptr<ThreadPool> g_global_pool;

/// Inline execution shared by the no-worker / nested / sub-grain paths.
/// Without a token this is the single body(0, n) call it always was; with
/// one armed, the loop runs the same grain-sized chunks the pool would
/// have dispatched and polls the token between them — identical chunk
/// boundaries, so an unfired token changes nothing, and a 1-thread run
/// can still abort mid-loop.
void RunInline(int64_t n, int64_t grain,
               const std::function<void(int64_t, int64_t)>& body,
               const CancelToken* cancel) {
  if (obs::Enabled()) PoolMetrics::Get().inline_chunks.Increment();
  if (cancel == nullptr) {
    body(0, n);
    return;
  }
  for (int64_t begin = 0; begin < n; begin += grain) {
    if (cancel->Cancelled()) {
      NoteCancelObserved();
      return;
    }
    body(begin, std::min(n, begin + grain));
  }
}

}  // namespace

/// One dispatched loop. Chunks are claimed through `next`; the job is done
/// when `completed` reaches `num_chunks`.
struct ThreadPool::Job {
  int64_t n = 0;
  int64_t grain = 1;
  int64_t num_chunks = 0;
  uint64_t submit_ns = 0;  ///< obs: trace-epoch time of dispatch (0 = off)
  const std::function<void(int64_t, int64_t)>* body = nullptr;
  const CancelToken* cancel = nullptr;
  bool tape_disabled = false;  ///< the submitter's TapeDisabled()
  std::atomic<int64_t> next{0};
  std::atomic<int64_t> completed{0};
  std::atomic<bool> has_error{false};
  std::atomic<bool> cancel_noted{false};
  std::mutex error_mu;
  std::exception_ptr error;
  std::mutex done_mu;
  std::condition_variable done_cv;
};

ThreadPool::ThreadPool(int num_threads) {
  GAIA_CHECK_GE(num_threads, 1);
  workers_.reserve(static_cast<size_t>(num_threads - 1));
  for (int i = 0; i < num_threads - 1; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] {
        return stop_ ||
               (job_ != nullptr &&
                job_->next.load(std::memory_order_relaxed) < job_->num_chunks);
      });
      if (stop_) return;
      job = job_;
    }
    RunChunks(*job);
  }
}

void ThreadPool::RunChunks(Job& job) {
  const bool previous = tl_in_parallel_region;
  tl_in_parallel_region = true;
  const bool previous_tape_disabled = tl_tape_disabled;
  tl_tape_disabled = job.tape_disabled;
  // Workers re-install the job's token so code called from the body (and,
  // later, nested inline loops) observes cancellation on every thread. The
  // submitting caller blocks in ParallelForRange until the job drains, so
  // the raw pointer cannot dangle.
  std::optional<CancelScope> cancel_scope;
  if (job.cancel != nullptr) cancel_scope.emplace(job.cancel);
  // Timing is read but never fed back into scheduling or the loop body, so
  // enabling observability cannot perturb chunk order or numerics.
  const bool obs_on = job.submit_ns != 0 && obs::Enabled();
  bool first_chunk = true;
  for (;;) {
    const int64_t chunk = job.next.fetch_add(1, std::memory_order_relaxed);
    if (chunk >= job.num_chunks) break;
    uint64_t chunk_start = 0;
    if (obs_on) {
      chunk_start = obs::internal_trace::NowNs();
      if (first_chunk) {
        first_chunk = false;
        PoolMetrics::Get().queue_wait.Observe(
            static_cast<double>(chunk_start - job.submit_ns) * 1e-9);
      }
    }
    const bool cancelled =
        job.cancel != nullptr && job.cancel->Cancelled();
    if (cancelled && !job.cancel_noted.exchange(true)) NoteCancelObserved();
    if (!cancelled && !job.has_error.load(std::memory_order_relaxed)) {
      try {
        const int64_t begin = chunk * job.grain;
        const int64_t end = std::min(job.n, begin + job.grain);
        (*job.body)(begin, end);
      } catch (...) {
        std::lock_guard<std::mutex> lock(job.error_mu);
        if (job.error == nullptr) job.error = std::current_exception();
        job.has_error.store(true, std::memory_order_relaxed);
      }
    }
    if (obs_on) {
      PoolMetrics& metrics = PoolMetrics::Get();
      metrics.chunks.Increment();
      metrics.busy_ns.Increment(obs::internal_trace::NowNs() - chunk_start);
    }
    if (job.completed.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        job.num_chunks) {
      std::lock_guard<std::mutex> lock(job.done_mu);
      job.done_cv.notify_all();
    }
  }
  tl_in_parallel_region = previous;
  tl_tape_disabled = previous_tape_disabled;
}

void ThreadPool::ParallelForRange(
    int64_t n, int64_t grain,
    const std::function<void(int64_t, int64_t)>& body,
    const CancelToken* cancel) {
  if (n <= 0) return;
  grain = std::max<int64_t>(1, grain);
  if (workers_.empty() || tl_in_parallel_region || n <= grain) {
    // The inline path bypasses worker dispatch entirely, so without its own
    // counter a 1-thread run reports all-zero pool metrics (the documented
    // metrics_snapshot footgun). Count it so the work is still visible.
    RunInline(n, grain, body, cancel);
    return;
  }
  // One job at a time: concurrent top-level callers queue up here.
  std::lock_guard<std::mutex> submit_lock(submit_mu_);
  auto job = std::make_shared<Job>();
  job->n = n;
  job->grain = grain;
  job->num_chunks = (n + grain - 1) / grain;
  job->body = &body;
  job->cancel = cancel;
  job->tape_disabled = tl_tape_disabled;
  if (obs::Enabled()) {
    job->submit_ns = obs::internal_trace::NowNs();
    PoolMetrics::Get().jobs.Increment();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_ = job;
  }
  cv_.notify_all();
  RunChunks(*job);  // the caller participates
  {
    std::unique_lock<std::mutex> lock(job->done_mu);
    job->done_cv.wait(lock, [&] {
      return job->completed.load(std::memory_order_acquire) == job->num_chunks;
    });
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (job_ == job) job_ = nullptr;
  }
  if (job->error != nullptr) std::rethrow_exception(job->error);
}

void ThreadPool::ParallelFor(int64_t n,
                             const std::function<void(int64_t)>& body,
                             int64_t grain, const CancelToken* cancel) {
  ParallelForRange(
      n, grain,
      [&body](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) body(i);
      },
      cancel);
}

ThreadPool& ThreadPool::Global() {
  std::lock_guard<std::mutex> lock(g_global_mu);
  if (g_global_pool == nullptr) {
    g_global_pool = std::make_unique<ThreadPool>(DefaultThreads());
  }
  return *g_global_pool;
}

void ThreadPool::SetGlobalThreads(int num_threads) {
  GAIA_CHECK_GE(num_threads, 1);
  std::lock_guard<std::mutex> lock(g_global_mu);
  if (g_global_pool != nullptr &&
      g_global_pool->num_threads() == num_threads) {
    return;
  }
  g_global_pool.reset();  // join old workers before spawning new ones
  g_global_pool = std::make_unique<ThreadPool>(num_threads);
}

int ThreadPool::GlobalThreads() {
  std::lock_guard<std::mutex> lock(g_global_mu);
  return g_global_pool != nullptr ? g_global_pool->num_threads()
                                  : DefaultThreads();
}

int ThreadPool::DefaultThreads() {
  if (const char* env = std::getenv("GAIA_NUM_THREADS")) {
    const int parsed = std::atoi(env);
    if (parsed >= 1) return std::min(parsed, 256);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

bool ThreadPool::InParallelRegion() { return tl_in_parallel_region; }

bool TapeDisabled() { return tl_tape_disabled; }

void SetTapeDisabled(bool disabled) { tl_tape_disabled = disabled; }

ThreadPool::InlineScope::InlineScope() : previous_(tl_in_parallel_region) {
  tl_in_parallel_region = true;
}

ThreadPool::InlineScope::~InlineScope() { tl_in_parallel_region = previous_; }

void ParallelFor(int64_t n, const std::function<void(int64_t)>& body,
                 int64_t grain) {
  if (n <= 0) return;
  const CancelToken* cancel = CancelToken::Current();
  grain = std::max<int64_t>(1, grain);
  if (ThreadPool::InParallelRegion() || n <= grain) {
    RunInline(
        n, grain,
        [&body](int64_t begin, int64_t end) {
          for (int64_t i = begin; i < end; ++i) body(i);
        },
        cancel);
    return;
  }
  ThreadPool::Global().ParallelFor(n, body, grain, cancel);
}

void ParallelForRange(int64_t n, int64_t grain,
                      const std::function<void(int64_t, int64_t)>& body) {
  if (n <= 0) return;
  const CancelToken* cancel = CancelToken::Current();
  grain = std::max<int64_t>(1, grain);
  if (ThreadPool::InParallelRegion() || n <= grain) {
    RunInline(n, grain, body, cancel);
    return;
  }
  ThreadPool::Global().ParallelForRange(n, grain, body, cancel);
}

}  // namespace gaia::util
