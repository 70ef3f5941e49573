#include "obs/admin_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace gaia::obs {

namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (c == '\n') {
      out += "\\n";
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

const char* StatusText(int status) {
  switch (status) {
    case 200: return "OK";
    case 404: return "Not Found";
    case 503: return "Service Unavailable";
    default: return "Internal Server Error";
  }
}

// Best-effort full write; the peer may close early, which is fine.
void WriteAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return;
    }
    off += static_cast<size_t>(n);
  }
}

// Parses "n=K" style query parameters; returns fallback when absent/bad.
size_t QueryParamN(const std::string& query, size_t fallback) {
  size_t pos = 0;
  while (pos < query.size()) {
    size_t amp = query.find('&', pos);
    if (amp == std::string::npos) amp = query.size();
    const std::string kv = query.substr(pos, amp - pos);
    if (kv.size() > 2 && kv.compare(0, 2, "n=") == 0) {
      char* end = nullptr;
      const unsigned long v = std::strtoul(kv.c_str() + 2, &end, 10);
      if (end != kv.c_str() + 2 && v > 0) return static_cast<size_t>(v);
    }
    pos = amp + 1;
  }
  return fallback;
}

}  // namespace

AdminServer::~AdminServer() { Stop(); }

bool AdminServer::Start(const AdminServerOptions& options, std::string* error) {
  auto fail = [error](const std::string& message) {
    if (error != nullptr) *error = message;
    return false;
  };
  if (running_.load(std::memory_order_acquire)) {
    return fail("admin server already started");
  }

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return fail(std::string("socket: ") + std::strerror(errno));
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options.port));
  if (::inet_pton(AF_INET, options.bind_address.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return fail("bad bind address: " + options.bind_address);
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string message = std::string("bind: ") + std::strerror(errno);
    ::close(fd);
    return fail(message);
  }
  if (::listen(fd, options.backlog > 0 ? options.backlog : 16) != 0) {
    const std::string message = std::string("listen: ") + std::strerror(errno);
    ::close(fd);
    return fail(message);
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) != 0) {
    const std::string message =
        std::string("getsockname: ") + std::strerror(errno);
    ::close(fd);
    return fail(message);
  }

  listen_fd_ = fd;
  port_ = static_cast<int>(ntohs(bound.sin_port));
  start_ns_ = NowNs();
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    queue_closed_ = false;
    pending_fds_.clear();
  }
  running_.store(true, std::memory_order_release);

  const int threads = options.handler_threads > 0 ? options.handler_threads : 1;
  handlers_.reserve(static_cast<size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    handlers_.emplace_back([this] { HandlerLoop(); });
  }
  acceptor_ = std::thread([this] { AcceptLoop(); });
  return true;
}

void AdminServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  // Unblock accept(): shutdown makes the blocking accept return on Linux.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    queue_closed_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& t : handlers_) {
    if (t.joinable()) t.join();
  }
  handlers_.clear();
  // Drain any connections no handler picked up.
  std::lock_guard<std::mutex> lock(queue_mu_);
  for (int fd : pending_fds_) ::close(fd);
  pending_fds_.clear();
}

void AdminServer::AcceptLoop() {
  while (running_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (!running_.load(std::memory_order_acquire)) break;
      // Transient accept failure (e.g. EMFILE); keep serving.
      continue;
    }
    if (!running_.load(std::memory_order_acquire)) {
      ::close(fd);
      break;
    }
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      pending_fds_.push_back(fd);
    }
    queue_cv_.notify_one();
  }
}

void AdminServer::HandlerLoop() {
  for (;;) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock,
                     [this] { return queue_closed_ || !pending_fds_.empty(); });
      if (!pending_fds_.empty()) {
        fd = pending_fds_.front();
        pending_fds_.pop_front();
      } else if (queue_closed_) {
        return;
      }
    }
    if (fd >= 0) HandleConnection(fd);
  }
}

void AdminServer::HandleConnection(int fd) {
  // A stalled client must not wedge a handler thread forever.
  timeval timeout{};
  timeout.tv_sec = 5;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));

  constexpr size_t kMaxRequestBytes = 8192;
  std::string request;
  char buf[1024];
  while (request.find("\r\n\r\n") == std::string::npos &&
         request.size() < kMaxRequestBytes) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    request.append(buf, static_cast<size_t>(n));
  }

  Route route;
  const size_t line_end = request.find("\r\n");
  std::string method, target;
  if (line_end != std::string::npos) {
    std::istringstream line(request.substr(0, line_end));
    std::string version;
    line >> method >> target >> version;
  }
  if (method != "GET" || target.empty() || target[0] != '/') {
    route.status = 404;
    route.body = "bad request\n";
  } else {
    std::string path = target, query;
    const size_t qpos = target.find('?');
    if (qpos != std::string::npos) {
      path = target.substr(0, qpos);
      query = target.substr(qpos + 1);
    }
    route = Dispatch(path, query);
  }

  std::string response = "HTTP/1.0 " + std::to_string(route.status) + " " +
                         StatusText(route.status) + "\r\n";
  response += "Content-Type: " + route.content_type + "\r\n";
  response += "Content-Length: " + std::to_string(route.body.size()) + "\r\n";
  response += "Connection: close\r\n\r\n";
  response += route.body;
  WriteAll(fd, response);
  ::close(fd);
}

std::string AdminServer::MetricsBody() {
  // Count the scrape *before* rendering so a scrape's own counter is already
  // included — the returned page is then byte-identical to an
  // ExportPrometheus() call made right after it.
  MetricsRegistry::Global()
      .GetCounter("gaia_admin_requests_total",
                  "HTTP requests handled by the admin server")
      .Increment();
  return MetricsRegistry::Global().ExportPrometheus();
}

AdminServer::Route AdminServer::Dispatch(const std::string& path,
                                         const std::string& query) {
  Route route;
  if (path == "/metrics") {
    route.body = MetricsBody();
    route.content_type = "text/plain; version=0.0.4; charset=utf-8";
    return route;
  }
  // Every non-/metrics route counts itself too (after this point the body
  // does not embed the counter, so order no longer matters).
  MetricsRegistry::Global()
      .GetCounter("gaia_admin_requests_total",
                  "HTTP requests handled by the admin server")
      .Increment();
  if (path == "/metrics.json") {
    route.body = MetricsRegistry::Global().ExportJson();
    route.content_type = "application/json";
    return route;
  }
  if (path == "/healthz" || path == "/readyz") return HealthRoute();
  if (path == "/statusz") return StatusRoute();
  if (path == "/tracez") {
    const TraceBuffer& tb = TraceBuffer::Global();
    std::ostringstream os;
    os.imbue(std::locale::classic());
    os << "{\"total_recorded\":" << tb.total_recorded()
       << ",\"dropped\":" << tb.dropped() << ",\"spans\":{";
    bool first = true;
    for (const auto& [name, stats] : tb.AggregateByName()) {
      if (!first) os << ",";
      first = false;
      os << "\"" << JsonEscape(name) << "\":{\"count\":" << stats.count
         << ",\"total_ms\":" << stats.total_ms
         << ",\"max_ms\":" << stats.max_ms << "}";
    }
    os << "}}";
    route.body = os.str();
    route.content_type = "application/json";
    return route;
  }
  if (path == "/requestz") {
    route.body = EventLog::Global().RecentJson(QueryParamN(query, 50));
    route.content_type = "application/json";
    return route;
  }
  if (path == "/quitz") {
    {
      std::lock_guard<std::mutex> lock(quit_mu_);
      quit_requested_ = true;
    }
    quit_cv_.notify_all();
    route.body = "quitting\n";
    return route;
  }
  route.status = 404;
  route.body = "not found: " + path + "\n";
  return route;
}

AdminServer::Route AdminServer::HealthRoute() {
  std::vector<std::pair<std::string, Check>> checks;
  {
    std::lock_guard<std::mutex> lock(reg_mu_);
    checks = checks_;
  }
  std::string failures;
  for (const auto& [name, check] : checks) {
    std::string detail;
    if (!check(&detail)) {
      failures += name;
      if (!detail.empty()) failures += ": " + detail;
      failures += "\n";
    }
  }
  Route route;
  if (failures.empty()) {
    route.body = "ok\n";
  } else {
    route.status = 503;
    route.body = failures;
  }
  return route;
}

AdminServer::Route AdminServer::StatusRoute() {
  MetricsRegistry& registry = MetricsRegistry::Global();
  const EventLog& log = EventLog::Global();
  std::ostringstream os;
  os.imbue(std::locale::classic());
  os << "{\"pid\":" << ::getpid()
     << ",\"uptime_seconds\":" << (NowNs() - start_ns_) * 1e-9
     << ",\"obs_level\":" << static_cast<int>(CurrentLevel())
     << ",\"eventlog\":{\"enabled\":" << (log.enabled() ? "true" : "false")
     << ",\"appended\":" << log.total_appended()
     << ",\"dropped\":" << log.dropped() << "}"
     << ",\"drift\":{\"score\":" << registry.GaugeValue("gaia_drift_score")
     << ",\"window_cycles\":"
     << registry.GaugeValue("gaia_drift_window_cycles") << "}";
  {
    std::lock_guard<std::mutex> lock(reg_mu_);
    os << ",\"checks\":{";
    bool first = true;
    for (const auto& [name, check] : checks_) {
      std::string detail;
      const bool ok = check(&detail);
      if (!first) os << ",";
      first = false;
      os << "\"" << JsonEscape(name) << "\":" << (ok ? "true" : "false");
    }
    os << "},\"info\":{";
    first = true;
    for (const auto& [key, info] : info_) {
      if (!first) os << ",";
      first = false;
      os << "\"" << JsonEscape(key) << "\":\"" << JsonEscape(info()) << "\"";
    }
    os << "}";
  }
  os << "}";
  Route route;
  route.body = os.str();
  route.content_type = "application/json";
  return route;
}

void AdminServer::AddCheck(const std::string& name, Check check) {
  std::lock_guard<std::mutex> lock(reg_mu_);
  checks_.emplace_back(name, std::move(check));
}

void AdminServer::AddInfo(const std::string& key, Info info) {
  std::lock_guard<std::mutex> lock(reg_mu_);
  info_.emplace_back(key, std::move(info));
}

bool AdminServer::WaitForQuit(double timeout_ms) {
  std::unique_lock<std::mutex> lock(quit_mu_);
  if (timeout_ms < 0) {
    quit_cv_.wait(lock, [this] { return quit_requested_; });
    return true;
  }
  return quit_cv_.wait_for(lock,
                           std::chrono::duration<double, std::milli>(timeout_ms),
                           [this] { return quit_requested_; });
}

}  // namespace gaia::obs
