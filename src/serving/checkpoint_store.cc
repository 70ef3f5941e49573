#include "serving/checkpoint_store.h"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>

#include "obs/obs.h"
#include "util/check.h"

namespace gaia::serving {

namespace fs = std::filesystem;

namespace {

constexpr char kPrefix[] = "ckpt-";
constexpr char kSuffix[] = ".bin";
constexpr char kManifestName[] = "manifest.json";
constexpr char kLockName[] = "store.lock";
constexpr char kManifestSchema[] = "gaia.checkpoint_manifest/1";

struct StoreMetrics {
  obs::Counter& published = obs::MetricsRegistry::Global().GetCounter(
      "gaia_robust_checkpoints_published_total",
      "Checkpoints published and verified into the store");
  obs::Counter& publish_failures = obs::MetricsRegistry::Global().GetCounter(
      "gaia_robust_checkpoint_publish_failures_total",
      "Publishes rejected (write fault or failed verification)");
  obs::Counter& rollbacks = obs::MetricsRegistry::Global().GetCounter(
      "gaia_robust_checkpoint_rollbacks_total",
      "Bad checkpoints skipped while rolling back to the last good one");
  obs::Counter& lock_conflicts = obs::MetricsRegistry::Global().GetCounter(
      "gaia_robust_checkpoint_lock_conflicts_total",
      "Publishes refused because another live process held the store lock");
  obs::Counter& locks_broken = obs::MetricsRegistry::Global().GetCounter(
      "gaia_robust_checkpoint_lock_broken_total",
      "Stale store locks broken because their holder pid was dead");
  static StoreMetrics& Get() {
    static StoreMetrics* metrics = new StoreMetrics();
    return *metrics;
  }
};

/// Parses the sequence number out of "ckpt-000042.bin"; -1 when not ours.
int64_t SeqFromFilename(const std::string& filename) {
  const size_t prefix_len = sizeof(kPrefix) - 1;
  const size_t suffix_len = sizeof(kSuffix) - 1;
  if (filename.size() <= prefix_len + suffix_len) return -1;
  if (filename.rfind(kPrefix, 0) != 0) return -1;
  if (filename.compare(filename.size() - suffix_len, suffix_len, kSuffix) !=
      0) {
    return -1;
  }
  const std::string digits =
      filename.substr(prefix_len, filename.size() - prefix_len - suffix_len);
  if (digits.empty() ||
      digits.find_first_not_of("0123456789") != std::string::npos) {
    return -1;
  }
  return std::stoll(digits);
}

/// Escapes a string for embedding in the manifest. Checkpoint basenames are
/// our own ckpt-NNNNNN.bin pattern, but adopted paths can hold anything.
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

/// Pulls the JSON string value following `"key":` out of `text`; empty
/// optional when absent. Tolerant scanner, not a general JSON parser — the
/// manifest is machine-written with known shape, and any deviation simply
/// fails adoption over to the directory scan.
std::optional<std::string> FindStringField(const std::string& text,
                                           const std::string& key) {
  const std::string needle = "\"" + key + "\"";
  size_t pos = text.find(needle);
  if (pos == std::string::npos) return std::nullopt;
  pos = text.find(':', pos + needle.size());
  if (pos == std::string::npos) return std::nullopt;
  pos = text.find('"', pos + 1);
  if (pos == std::string::npos) return std::nullopt;
  std::string value;
  for (size_t i = pos + 1; i < text.size(); ++i) {
    if (text[i] == '\\' && i + 1 < text.size()) {
      value.push_back(text[++i]);
    } else if (text[i] == '"') {
      return value;
    } else {
      value.push_back(text[i]);
    }
  }
  return std::nullopt;
}

std::optional<int64_t> FindIntField(const std::string& text,
                                    const std::string& key) {
  const std::string needle = "\"" + key + "\"";
  size_t pos = text.find(needle);
  if (pos == std::string::npos) return std::nullopt;
  pos = text.find(':', pos + needle.size());
  if (pos == std::string::npos) return std::nullopt;
  ++pos;
  while (pos < text.size() && (text[pos] == ' ' || text[pos] == '\t')) ++pos;
  size_t end = pos;
  while (end < text.size() &&
         (std::isdigit(static_cast<unsigned char>(text[end])) ||
          text[end] == '-')) {
    ++end;
  }
  if (end == pos) return std::nullopt;
  try {
    return std::stoll(text.substr(pos, end - pos));
  } catch (...) {
    return std::nullopt;
  }
}

/// Extracts the string array following `"key":` — the manifest history.
std::optional<std::vector<std::string>> FindStringArray(
    const std::string& text, const std::string& key) {
  const std::string needle = "\"" + key + "\"";
  size_t pos = text.find(needle);
  if (pos == std::string::npos) return std::nullopt;
  pos = text.find('[', pos + needle.size());
  if (pos == std::string::npos) return std::nullopt;
  std::vector<std::string> items;
  size_t i = pos + 1;
  while (i < text.size() && text[i] != ']') {
    if (text[i] == '"') {
      std::string value;
      ++i;
      while (i < text.size() && text[i] != '"') {
        if (text[i] == '\\' && i + 1 < text.size()) ++i;
        value.push_back(text[i]);
        ++i;
      }
      if (i >= text.size()) return std::nullopt;  // unterminated string
      items.push_back(std::move(value));
    }
    ++i;
  }
  if (i >= text.size()) return std::nullopt;  // unterminated array
  return items;
}

/// True when `pid` names a process that is still alive (or that we cannot
/// inspect — permission errors err on the safe side and keep the lock).
bool PidAlive(long long pid) {
  if (pid <= 0) return false;
  if (kill(static_cast<pid_t>(pid), 0) == 0) return true;
  return errno != ESRCH;
}

}  // namespace

// ---------------------------------------------------------------------------
// PublishLock
// ---------------------------------------------------------------------------

Result<PublishLock> PublishLock::Acquire(const std::string& dir) {
  const std::string path = dir + "/" + kLockName;
  for (int attempt = 0; attempt < 2; ++attempt) {
    const int fd = ::open(path.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
    if (fd >= 0) {
      const std::string body = std::to_string(::getpid()) + "\n";
      // Short write is tolerable: the pid is advisory stale-detection data.
      (void)!::write(fd, body.data(), body.size());
      ::close(fd);
      return PublishLock(path);
    }
    if (errno != EEXIST) {
      return Status::IoError("cannot create lockfile " + path + ": " +
                             std::strerror(errno));
    }
    // Held by someone. Break it only if that holder is provably dead.
    long long holder = -1;
    {
      std::ifstream in(path);
      if (in) in >> holder;
    }
    if (PidAlive(holder)) {
      StoreMetrics::Get().lock_conflicts.Increment();
      return Status::Unavailable("checkpoint store locked by pid " +
                                 std::to_string(holder) + ": " + path);
    }
    // Breaking a dead holder's lock is a takeover operators must be able
    // to audit: count it unconditionally and name the stale pid.
    StoreMetrics::Get().locks_broken.Increment();
    std::cerr << "[checkpoint_store] breaking stale lock " << path
              << " held by dead pid " << holder << "\n";
    std::remove(path.c_str());
    // Loop once more to race for the now-free lock.
  }
  StoreMetrics::Get().lock_conflicts.Increment();
  return Status::Unavailable("checkpoint store lock contended: " + path);
}

PublishLock::PublishLock(PublishLock&& other) noexcept
    : path_(std::move(other.path_)) {
  other.path_.clear();
}

PublishLock& PublishLock::operator=(PublishLock&& other) noexcept {
  if (this != &other) {
    if (!path_.empty()) std::remove(path_.c_str());
    path_ = std::move(other.path_);
    other.path_.clear();
  }
  return *this;
}

PublishLock::~PublishLock() {
  if (!path_.empty()) std::remove(path_.c_str());
}

// ---------------------------------------------------------------------------
// CheckpointStore
// ---------------------------------------------------------------------------

CheckpointStore::CheckpointStore(const CheckpointStoreConfig& config)
    : config_(config) {
  GAIA_CHECK(!config_.dir.empty());
  GAIA_CHECK(config_.keep_last >= 1);
  std::error_code ec;
  fs::create_directories(config_.dir, ec);
  adopted_from_manifest_ = AdoptFromManifest();
  if (!adopted_from_manifest_) AdoptFromScan();
}

std::string CheckpointStore::ManifestPath() const {
  return config_.dir + "/" + kManifestName;
}

std::string CheckpointStore::PathForSeq(int64_t seq) const {
  char name[32];
  std::snprintf(name, sizeof(name), "%s%06lld%s", kPrefix,
                static_cast<long long>(seq), kSuffix);
  return config_.dir + "/" + name;
}

bool CheckpointStore::AdoptFromManifest() {
  std::ifstream in(ManifestPath());
  if (!in) return false;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  const auto schema = FindStringField(text, "schema");
  if (!schema || *schema != kManifestSchema) return false;
  const auto next_seq = FindIntField(text, "next_seq");
  const auto names = FindStringArray(text, "history");
  if (!next_seq || !names) return false;
  history_.clear();
  for (const auto& name : *names) {
    // Entries are basenames relative to the store dir; absolute entries
    // (adopted external checkpoints) pass through untouched. Vanished files
    // are dropped rather than served as phantom rollback candidates.
    const std::string path =
        (!name.empty() && name.front() == '/') ? name
                                               : config_.dir + "/" + name;
    std::error_code ec;
    if (fs::exists(path, ec)) history_.push_back(path);
  }
  next_seq_ = std::max<int64_t>(0, *next_seq);
  // A manifest that lists nothing usable but sits next to real checkpoint
  // files is stale/corrupt in spirit; let the scan recover them.
  if (history_.empty() && *next_seq == 0) return false;
  return true;
}

void CheckpointStore::AdoptFromScan() {
  history_.clear();
  next_seq_ = 0;
  std::error_code ec;
  std::vector<std::pair<int64_t, std::string>> found;
  for (const auto& entry : fs::directory_iterator(config_.dir, ec)) {
    const int64_t seq = SeqFromFilename(entry.path().filename().string());
    if (seq >= 0) found.emplace_back(seq, entry.path().string());
  }
  std::sort(found.begin(), found.end());
  for (const auto& [seq, path] : found) {
    history_.push_back(path);
    next_seq_ = std::max(next_seq_, seq + 1);
  }
}

void CheckpointStore::WriteManifest() const {
  std::ostringstream out;
  out << "{\n  \"schema\": \"" << kManifestSchema << "\",\n"
      << "  \"next_seq\": " << next_seq_ << ",\n  \"history\": [";
  for (size_t i = 0; i < history_.size(); ++i) {
    // Store basenames for in-dir checkpoints so the directory relocates
    // cleanly; external (adopted) paths stay absolute.
    const std::string& path = history_[i];
    std::string entry = path;
    const std::string dir_prefix = config_.dir + "/";
    if (path.rfind(dir_prefix, 0) == 0) entry = path.substr(dir_prefix.size());
    out << (i ? ", " : "") << "\"" << JsonEscape(entry) << "\"";
  }
  out << "]\n}\n";
  const std::string path = ManifestPath();
  const std::string tmp = path + ".tmp";
  {
    std::ofstream file(tmp, std::ios::trunc);
    if (!file) return;
    file << out.str();
    if (!file.good()) {
      std::remove(tmp.c_str());
      return;
    }
  }
  // rename(2) is atomic within a filesystem: readers observe either the old
  // manifest or the new one, never a partial write.
  if (std::rename(tmp.c_str(), path.c_str()) != 0) std::remove(tmp.c_str());
}

Result<std::string> CheckpointStore::Publish(const nn::Module& module) {
  std::optional<PublishLock> lock;
  if (config_.use_lockfile) {
    auto acquired = PublishLock::Acquire(config_.dir);
    if (!acquired.ok()) return acquired.status();
    lock.emplace(std::move(acquired).value());
  }
  const std::string path = PathForSeq(next_seq_);
  Status saved = module.Save(path);
  if (saved.ok()) saved = nn::Module::VerifyCheckpoint(path);
  if (!saved.ok()) {
    StoreMetrics::Get().publish_failures.Increment();
    std::remove(path.c_str());
    return saved;
  }
  ++next_seq_;
  history_.push_back(path);
  StoreMetrics::Get().published.Increment();
  while (static_cast<int>(history_.size()) > config_.keep_last) {
    std::remove(history_.front().c_str());
    history_.erase(history_.begin());
  }
  WriteManifest();
  return path;
}

Result<CheckpointStore::LoadReport> CheckpointStore::LoadLatestGood(
    nn::Module* module) const {
  GAIA_CHECK(module != nullptr);
  if (history_.empty()) {
    return Status::NotFound("checkpoint store is empty: " + config_.dir);
  }
  LoadReport report;
  Status last = Status::OK();
  for (auto it = history_.rbegin(); it != history_.rend(); ++it) {
    last = util::RetryCall(config_.retry, [&] { return module->Load(*it); });
    if (last.ok()) {
      report.path = *it;
      return report;
    }
    ++report.rollbacks;
    StoreMetrics::Get().rollbacks.Increment();
  }
  return last;
}

}  // namespace gaia::serving
