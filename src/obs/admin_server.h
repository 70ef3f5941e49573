#ifndef GAIA_OBS_ADMIN_SERVER_H_
#define GAIA_OBS_ADMIN_SERVER_H_

// Embedded admin HTTP server: the live operational plane for a running
// Gaia process.  A tiny blocking-accept HTTP/1.0 server (POSIX sockets, one
// acceptor thread + a small handler pool, std-only) that exposes the
// in-process observability state over localhost:
//
//   GET /metrics       Prometheus text format — the exact bytes of
//                      MetricsRegistry::ExportPrometheus()
//   GET /metrics.json  MetricsRegistry::ExportJson()
//   GET /healthz       200 "ok" when every registered check passes,
//                      503 listing the failing checks otherwise
//   GET /readyz        alias of /healthz (same check set)
//   GET /statusz       JSON: pid, uptime, obs level, event-log
//                      totals, check results, and caller-provided info keys
//                      (serving generation, checkpoint CRC, build info)
//   GET /tracez        JSON per-span-name aggregates from TraceBuffer
//   GET /requestz?n=K  last K records from the request EventLog
//   GET /quitz         200 and wakes WaitForQuit() (clean remote shutdown)
//
// The server only *reads* process state; it never feeds the numeric path,
// so enabling it cannot change any forecast byte.  It is off by default —
// nothing listens unless Start() is called (gaia_cli --admin-port).
//
// This header sits in src/obs below src/util, so errors are reported via a
// bool + std::string rather than util::Status.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace gaia::obs {

struct AdminServerOptions {
  // Loopback by default: the admin plane is an operator tool, not a public
  // endpoint.
  std::string bind_address = "127.0.0.1";
  // 0 = pick an ephemeral port (tests); port() reports the bound port.
  int port = 0;
  int handler_threads = 2;
  int backlog = 16;
};

class AdminServer {
 public:
  // A health check: returns true when healthy; on failure may describe why
  // via `detail`.  Checks run on handler threads, so they must be
  // thread-safe and fast (atomic flag reads, not RPCs).
  using Check = std::function<bool(std::string* detail)>;
  // An info provider for /statusz: returns a human-readable value.
  using Info = std::function<std::string()>;

  AdminServer() = default;
  ~AdminServer();

  AdminServer(const AdminServer&) = delete;
  AdminServer& operator=(const AdminServer&) = delete;

  // Binds, listens and spawns the acceptor + handler threads.  Returns false
  // (with `*error` set, if given) on socket failures; false if already
  // started.
  bool Start(const AdminServerOptions& options, std::string* error = nullptr);

  // Stops accepting, drains handler threads and closes the listen socket.
  // Idempotent; also called from the destructor.
  void Stop();

  // Port actually bound (resolves port 0); 0 when not started.
  int port() const { return port_; }
  bool running() const { return running_.load(std::memory_order_acquire); }

  // Registers a named health check / info key.  Call before or after
  // Start(); registration is mutex-protected.
  void AddCheck(const std::string& name, Check check);
  void AddInfo(const std::string& key, Info info);

  // Blocks until GET /quitz arrives or `timeout_ms` elapses (< 0 = forever).
  // Returns true if quit was requested.  Lets `gaia_cli serve --admin-wait`
  // park the process until an operator or CI script releases it.
  bool WaitForQuit(double timeout_ms = -1.0);

  // The exact body /metrics serves — exposed so tests can assert
  // byte-identity between a socket scrape and the in-process exporter.
  static std::string MetricsBody();

 private:
  struct Route {
    int status = 200;
    std::string content_type = "text/plain; charset=utf-8";
    std::string body;
  };

  void AcceptLoop();
  void HandlerLoop();
  void HandleConnection(int fd);
  Route Dispatch(const std::string& path, const std::string& query);
  Route HealthRoute();
  Route StatusRoute();

  std::atomic<bool> running_{false};
  int listen_fd_ = -1;
  int port_ = 0;
  std::thread acceptor_;
  std::vector<std::thread> handlers_;

  // Accepted connections waiting for a handler thread.
  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<int> pending_fds_;
  bool queue_closed_ = false;

  std::mutex reg_mu_;
  std::vector<std::pair<std::string, Check>> checks_;
  std::vector<std::pair<std::string, Info>> info_;

  std::mutex quit_mu_;
  std::condition_variable quit_cv_;
  bool quit_requested_ = false;

  uint64_t start_ns_ = 0;
};

}  // namespace gaia::obs

#endif  // GAIA_OBS_ADMIN_SERVER_H_
