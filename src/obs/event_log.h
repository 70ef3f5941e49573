#ifndef GAIA_OBS_EVENT_LOG_H_
#define GAIA_OBS_EVENT_LOG_H_

// Request-scoped event log: a bounded lock-free ring of structured records
// that acts as a black-box flight recorder for the serving tier.  Every
// served (or cancelled) request appends one EventRecord carrying its
// splitmix64-derived request id, the shop, how it was served and its
// latency — so a live /requestz scrape (or a post-mortem JSON dump) can
// answer "why did request X degrade?" without logs or a debugger.
//
// Like the rest of src/obs this header depends on the C++ standard library
// only.  The ring is written with plain atomics (a seqlock per slot), so it
// is safe to append from many serving threads while an admin handler reads —
// readers simply discard slots that were mid-write.  Appends never touch the
// numeric path: enabling or disabling the log cannot change any forecast.

#include <atomic>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

namespace gaia::obs {

// Per-request correlation state threaded through the serving call chain.
// Created at the edge (ShardedServer::Predict or a direct ModelServer call)
// and passed down so the final EventRecord carries the shard routing.
struct RequestContext {
  uint64_t request_id = 0;
  int32_t shard = -1;
};

// One structured record per request.  Fixed-size and trivially copyable so a
// slot is just a run of atomic words; the reason string is truncated to fit.
struct EventRecord {
  uint64_t request_id = 0;
  uint64_t ts_ns = 0;       // steady-clock stamp at append time
  int32_t shop = -1;
  int32_t shard = -1;       // -1 for unsharded serving
  uint32_t served_by = 0;   // 0 = model, 1 = fallback
  uint32_t cancelled = 0;   // 1 if the caller's cancel token aborted it
  double latency_ms = 0.0;
  char reason[40] = {};     // degraded_reason, truncated; empty if clean
};
static_assert(sizeof(EventRecord) % sizeof(uint64_t) == 0,
              "EventRecord must pack into whole 64-bit words");
static_assert(std::is_trivially_copyable<EventRecord>::value,
              "EventRecord slots are copied word-by-word");

// Bounded ring of EventRecords.  Writers claim a monotonically increasing
// slot index with fetch_add and publish via a per-slot sequence number
// (odd = write in progress, even = stable); readers validate the sequence
// on both sides of the copy and drop torn slots.  All slot state is atomic,
// so the structure is race-free by construction (and TSan-clean).
class EventLog {
 public:
  // Capacity is rounded up to a power of two; Global() uses kDefaultCapacity.
  static constexpr size_t kDefaultCapacity = 4096;

  explicit EventLog(size_t capacity = kDefaultCapacity);
  ~EventLog();

  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  // Appends one record if the log is enabled; a single relaxed load when off.
  void Append(const EventRecord& record);

  // Most recent `n` stable records, oldest first.  Torn or overwritten slots
  // are skipped, so fewer than `n` records may come back under heavy writes.
  std::vector<EventRecord> Recent(size_t n) const;

  // JSON array of Recent(n).  request_id is emitted as a decimal *string*
  // ("request_id":"1234...") because 64-bit ids overflow doubles in most
  // JSON consumers.
  std::string RecentJson(size_t n) const;

  // Total appends since construction/Clear, and how many of those have been
  // overwritten (total - capacity, clamped at zero).
  uint64_t total_appended() const {
    return head_.load(std::memory_order_relaxed);
  }
  uint64_t dropped() const;

  size_t capacity() const { return capacity_; }

  // Runtime gate.  Global() seeds this from GAIA_EVENTLOG=1; the CLI admin
  // plane and tests flip it explicitly.
  void SetEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Resets head and invalidates all slots.  Test-only convenience; not safe
  // against concurrent appends.
  void Clear();

  // Process-wide log used by the serving tier and the admin server.
  static EventLog& Global();

 private:
  static constexpr size_t kWords = sizeof(EventRecord) / sizeof(uint64_t);

  struct Slot {
    std::atomic<uint64_t> seq{0};  // 0 = never written
    std::atomic<uint64_t> words[kWords];
  };

  size_t capacity_;          // power of two
  size_t mask_;
  Slot* slots_;
  std::atomic<uint64_t> head_{0};
  std::atomic<bool> enabled_{false};
};

// Fresh request id: splitmix64 of a process-wide counter, so ids are unique
// within a process and well-mixed (usable directly as log-search keys).
uint64_t NextRequestId();

// Serializes one record as a JSON object (shared by RecentJson and tests).
void AppendRecordJson(const EventRecord& record, std::string* out);

}  // namespace gaia::obs

#endif  // GAIA_OBS_EVENT_LOG_H_
