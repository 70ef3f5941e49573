#include "obs/metrics.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <sstream>

namespace gaia::obs {

namespace {

Level LevelFromEnv() {
  const char* env = std::getenv("GAIA_OBS");
  if (env == nullptr || *env == '\0') return Level::kOff;
  if (std::strcmp(env, "0") == 0 || std::strcmp(env, "off") == 0) {
    return Level::kOff;
  }
  if (std::strcmp(env, "2") == 0 || std::strcmp(env, "detail") == 0 ||
      std::strcmp(env, "trace") == 0) {
    return Level::kDetail;
  }
  return Level::kOn;  // "1", "on", or anything else truthy
}

std::atomic<int>& LevelStorage() {
  static std::atomic<int> level{static_cast<int>(LevelFromEnv())};
  return level;
}

/// Formats a double the way Prometheus clients do: shortest round-trip-ish
/// representation without locale surprises.
std::string FormatDouble(double v) {
  std::ostringstream os;
  os.imbue(std::locale::classic());
  os << v;
  return os.str();
}

/// Minimal JSON string escaping for metric names (which we control, but the
/// exporter should never emit malformed JSON regardless).
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

/// Prometheus text-format HELP escaping: backslash and newline must be
/// escaped so a multi-line help string cannot break the exposition framing.
std::string EscapeHelp(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

/// Prometheus metric names are restricted to [a-zA-Z_:][a-zA-Z0-9_:]*; any
/// other byte is replaced with '_' at export time so a stray registration
/// can never produce an unscrapable page. Well-formed names pass through
/// untouched (the export stays byte-identical for every gaia_* metric).
std::string SanitizeName(const std::string& s) {
  if (s.empty()) return "_";
  std::string out = s;
  for (size_t i = 0; i < out.size(); ++i) {
    const char c = out[i];
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    c == '_' || c == ':' || (i > 0 && c >= '0' && c <= '9');
    if (!ok) out[i] = '_';
  }
  return out;
}

}  // namespace

Level CurrentLevel() {
  return static_cast<Level>(LevelStorage().load(std::memory_order_relaxed));
}

void SetLevel(Level level) {
  LevelStorage().store(static_cast<int>(level), std::memory_order_relaxed);
}

void Gauge::Add(double delta) {
  uint64_t observed = bits_.load(std::memory_order_relaxed);
  for (;;) {
    const uint64_t desired = Encode(Decode(observed) + delta);
    if (bits_.compare_exchange_weak(observed, desired,
                                    std::memory_order_relaxed)) {
      return;
    }
  }
}

uint64_t Gauge::Encode(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double Gauge::Decode(uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  counts_ = std::make_unique<std::atomic<uint64_t>[]>(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) counts_[i].store(0);
}

void Histogram::Observe(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const size_t bucket = static_cast<size_t>(it - bounds_.begin());
  counts_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  uint64_t observed = sum_bits_.load(std::memory_order_relaxed);
  for (;;) {
    double current;
    std::memcpy(&current, &observed, sizeof(current));
    const double next = current + v;
    uint64_t desired;
    std::memcpy(&desired, &next, sizeof(desired));
    if (sum_bits_.compare_exchange_weak(observed, desired,
                                        std::memory_order_relaxed)) {
      return;
    }
  }
}

std::vector<double> Histogram::ExponentialBuckets(double start, double factor,
                                                  int count) {
  std::vector<double> bounds;
  bounds.reserve(static_cast<size_t>(count));
  double bound = start;
  for (int i = 0; i < count; ++i) {
    bounds.push_back(bound);
    bound *= factor;
  }
  return bounds;
}

std::vector<double> Histogram::DefaultLatencyBuckets() {
  return ExponentialBuckets(1e-6, 2.0, 24);  // 1us .. ~8.4s
}

double Histogram::sum() const {
  const uint64_t bits = sum_bits_.load(std::memory_order_relaxed);
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

void Histogram::Reset() {
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    counts_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_bits_.store(0, std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::GetCounter(const std::string& name,
                                     const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& entry = metrics_[name];
  if (entry.counter == nullptr) {
    entry.counter = std::make_unique<Counter>();
    entry.help = help;
  }
  return *entry.counter;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name,
                                 const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& entry = metrics_[name];
  if (entry.gauge == nullptr) {
    entry.gauge = std::make_unique<Gauge>();
    entry.help = help;
  }
  return *entry.gauge;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> bounds,
                                         const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& entry = metrics_[name];
  if (entry.histogram == nullptr) {
    if (bounds.empty()) bounds = Histogram::DefaultLatencyBuckets();
    entry.histogram = std::make_unique<Histogram>(std::move(bounds));
    entry.help = help;
  }
  return *entry.histogram;
}

std::string MetricsRegistry::ExportPrometheus() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  os.imbue(std::locale::classic());
  for (const auto& [raw_name, entry] : metrics_) {
    const std::string name = SanitizeName(raw_name);
    if (!entry.help.empty()) {
      os << "# HELP " << name << " " << EscapeHelp(entry.help) << "\n";
    }
    if (entry.counter != nullptr) {
      os << "# TYPE " << name << " counter\n";
      os << name << " " << entry.counter->value() << "\n";
    }
    if (entry.gauge != nullptr) {
      os << "# TYPE " << name << " gauge\n";
      os << name << " " << FormatDouble(entry.gauge->value()) << "\n";
    }
    if (entry.histogram != nullptr) {
      const Histogram& h = *entry.histogram;
      os << "# TYPE " << name << " histogram\n";
      uint64_t cumulative = 0;
      for (size_t i = 0; i < h.bounds().size(); ++i) {
        cumulative += h.bucket_count(i);
        os << name << "_bucket{le=\"" << FormatDouble(h.bounds()[i]) << "\"} "
           << cumulative << "\n";
      }
      cumulative += h.bucket_count(h.bounds().size());
      os << name << "_bucket{le=\"+Inf\"} " << cumulative << "\n";
      os << name << "_sum " << FormatDouble(h.sum()) << "\n";
      os << name << "_count " << h.count() << "\n";
    }
  }
  return os.str();
}

std::string MetricsRegistry::ExportJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  os.imbue(std::locale::classic());
  auto emit_section = [&os](const char* title, auto member, auto emit_value,
                            const std::map<std::string, Entry>& metrics) {
    os << "\"" << title << "\":{";
    bool first = true;
    for (const auto& [name, entry] : metrics) {
      if ((entry.*member) == nullptr) continue;
      if (!first) os << ",";
      first = false;
      os << "\"" << JsonEscape(name) << "\":";
      emit_value(*(entry.*member));
    }
    os << "}";
  };
  os << "{";
  emit_section(
      "counters", &Entry::counter,
      [&os](const Counter& c) { os << c.value(); }, metrics_);
  os << ",";
  emit_section(
      "gauges", &Entry::gauge,
      [&os](const Gauge& g) { os << FormatDouble(g.value()); }, metrics_);
  os << ",";
  emit_section(
      "histograms", &Entry::histogram,
      [&os](const Histogram& h) {
        os << "{\"bounds\":[";
        for (size_t i = 0; i < h.bounds().size(); ++i) {
          if (i > 0) os << ",";
          os << FormatDouble(h.bounds()[i]);
        }
        os << "],\"counts\":[";
        for (size_t i = 0; i <= h.bounds().size(); ++i) {
          if (i > 0) os << ",";
          os << h.bucket_count(i);
        }
        os << "],\"count\":" << h.count()
           << ",\"sum\":" << FormatDouble(h.sum()) << "}";
      },
      metrics_);
  os << "}";
  return os.str();
}

uint64_t MetricsRegistry::CounterValue(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = metrics_.find(name);
  if (it == metrics_.end() || it->second.counter == nullptr) return 0;
  return it->second.counter->value();
}

double MetricsRegistry::GaugeValue(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = metrics_.find(name);
  if (it == metrics_.end() || it->second.gauge == nullptr) return 0.0;
  return it->second.gauge->value();
}

void MetricsRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, entry] : metrics_) {
    if (entry.counter != nullptr) entry.counter->Reset();
    if (entry.gauge != nullptr) entry.gauge->Reset();
    if (entry.histogram != nullptr) entry.histogram->Reset();
  }
}

}  // namespace gaia::obs
