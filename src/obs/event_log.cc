#include "obs/event_log.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>

namespace gaia::obs {

namespace {

size_t RoundUpPow2(size_t v) {
  size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void JsonEscapeInto(const char* s, size_t max_len, std::string* out) {
  for (size_t i = 0; i < max_len && s[i] != '\0'; ++i) {
    char c = s[i];
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      case '\r': *out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

void AppendDouble(double v, std::string* out) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  *out += buf;
}

}  // namespace

EventLog::EventLog(size_t capacity)
    : capacity_(RoundUpPow2(capacity == 0 ? 1 : capacity)),
      mask_(capacity_ - 1),
      slots_(new Slot[capacity_]) {
  for (size_t i = 0; i < capacity_; ++i) {
    slots_[i].seq.store(0, std::memory_order_relaxed);
    for (size_t w = 0; w < kWords; ++w) {
      slots_[i].words[w].store(0, std::memory_order_relaxed);
    }
  }
}

EventLog::~EventLog() { delete[] slots_; }

void EventLog::Append(const EventRecord& record) {
  if (!enabled_.load(std::memory_order_relaxed)) return;
  EventRecord stamped = record;
  if (stamped.ts_ns == 0) stamped.ts_ns = NowNs();

  uint64_t idx = head_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[idx & mask_];
  // Seqlock publish: odd while writing, 2*idx+2 (even, slot-unique) when
  // stable.  Readers that race with us see an odd or mismatched seq and skip.
  slot.seq.store(2 * idx + 1, std::memory_order_release);
  uint64_t words[kWords];
  std::memcpy(words, &stamped, sizeof(stamped));
  for (size_t w = 0; w < kWords; ++w) {
    slot.words[w].store(words[w], std::memory_order_relaxed);
  }
  slot.seq.store(2 * idx + 2, std::memory_order_release);
}

std::vector<EventRecord> EventLog::Recent(size_t n) const {
  std::vector<EventRecord> newest_first;
  const uint64_t head = head_.load(std::memory_order_acquire);
  const uint64_t span = std::min<uint64_t>(head, capacity_);
  for (uint64_t back = 0; back < span && newest_first.size() < n; ++back) {
    const uint64_t idx = head - 1 - back;
    const Slot& slot = slots_[idx & mask_];
    const uint64_t want = 2 * idx + 2;
    uint64_t s1 = slot.seq.load(std::memory_order_acquire);
    if (s1 != want) continue;  // torn, overwritten, or never written
    uint64_t words[kWords];
    for (size_t w = 0; w < kWords; ++w) {
      words[w] = slot.words[w].load(std::memory_order_relaxed);
    }
    std::atomic_thread_fence(std::memory_order_acquire);
    uint64_t s2 = slot.seq.load(std::memory_order_relaxed);
    if (s2 != want) continue;
    EventRecord record;
    std::memcpy(&record, words, sizeof(record));
    newest_first.push_back(record);
  }
  // Oldest-first reads better in /requestz and dumps.
  return std::vector<EventRecord>(newest_first.rbegin(), newest_first.rend());
}

void AppendRecordJson(const EventRecord& record, std::string* out) {
  *out += "{\"request_id\":\"";
  *out += std::to_string(record.request_id);
  *out += "\",\"ts_ns\":";
  *out += std::to_string(record.ts_ns);
  *out += ",\"shop\":";
  *out += std::to_string(record.shop);
  *out += ",\"shard\":";
  *out += std::to_string(record.shard);
  *out += ",\"served_by\":\"";
  *out += (record.served_by == 0 ? "model" : "fallback");
  *out += "\",\"cancelled\":";
  *out += (record.cancelled != 0 ? "true" : "false");
  *out += ",\"latency_ms\":";
  AppendDouble(record.latency_ms, out);
  *out += ",\"reason\":\"";
  JsonEscapeInto(record.reason, sizeof(record.reason), out);
  *out += "\"}";
}

std::string EventLog::RecentJson(size_t n) const {
  const std::vector<EventRecord> records = Recent(n);
  std::string out = "{\"total_appended\":";
  out += std::to_string(total_appended());
  out += ",\"dropped\":";
  out += std::to_string(dropped());
  out += ",\"events\":[";
  for (size_t i = 0; i < records.size(); ++i) {
    if (i > 0) out += ",";
    AppendRecordJson(records[i], &out);
  }
  out += "]}";
  return out;
}

uint64_t EventLog::dropped() const {
  const uint64_t head = head_.load(std::memory_order_relaxed);
  return head > capacity_ ? head - capacity_ : 0;
}

void EventLog::Clear() {
  head_.store(0, std::memory_order_relaxed);
  for (size_t i = 0; i < capacity_; ++i) {
    slots_[i].seq.store(0, std::memory_order_relaxed);
  }
}

EventLog& EventLog::Global() {
  static EventLog* log = [] {
    EventLog* l = new EventLog(kDefaultCapacity);
    const char* env = std::getenv("GAIA_EVENTLOG");
    if (env != nullptr && env[0] != '\0' && env[0] != '0') {
      l->SetEnabled(true);
    }
    return l;
  }();
  return *log;
}

uint64_t NextRequestId() {
  static std::atomic<uint64_t> sequence{0};
  // +1 so the first id is SplitMix64(1), never the all-zero sentinel.
  return SplitMix64(sequence.fetch_add(1, std::memory_order_relaxed) + 1);
}

}  // namespace gaia::obs
