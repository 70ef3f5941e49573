// Live operational plane: the request EventLog ring (seqlock slots, wrap,
// gating, concurrent hammer), the embedded admin HTTP server (endpoint
// routing, /metrics byte-identity with the in-process exporter, /healthz
// flipping 503 -> 200 when the serving generation is adopted, /quitz), and
// request-id correlation — ids returned on Predictions match the records a
// /requestz scrape returns, including degraded and cancelled-in-queue
// requests under a seeded fault schedule. Registered under the ctest label
// "admin"; CI runs the suite under both ASan and TSan.
//
// Tests that arm the process-global FaultInjector reset it on exit; ctest
// runs each test in its own process, so armed faults never leak.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "core/gaia_model.h"
#include "data/market_simulator.h"
#include "obs/admin_server.h"
#include "obs/event_log.h"
#include "obs/obs.h"
#include "serving/model_server.h"
#include "serving/sharded_server.h"
#include "util/cancel.h"
#include "util/fault_injector.h"

namespace gaia {
namespace {

using obs::AdminServer;
using obs::AdminServerOptions;
using obs::EventLog;
using obs::EventRecord;
using serving::ModelServer;
using serving::ShardedServer;
using serving::ShardedServerConfig;

// ---------------------------------------------------------------------------
// Minimal HTTP/1.0 client (the admin server's whole protocol surface)
// ---------------------------------------------------------------------------

struct HttpResponse {
  int status = 0;
  std::string headers;
  std::string body;
};

HttpResponse HttpGet(int port, const std::string& path) {
  HttpResponse response;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  if (fd < 0) return response;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    ADD_FAILURE() << "connect to 127.0.0.1:" << port << " failed";
    return response;
  }
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent,
                             0);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string raw;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    raw.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  // "HTTP/1.0 200 OK\r\n<headers>\r\n\r\n<body>"
  const size_t space = raw.find(' ');
  if (space != std::string::npos) {
    response.status = std::atoi(raw.c_str() + space + 1);
  }
  const size_t blank = raw.find("\r\n\r\n");
  if (blank != std::string::npos) {
    response.headers = raw.substr(0, blank);
    response.body = raw.substr(blank + 4);
  }
  return response;
}

EventRecord MakeRecord(uint64_t id, int32_t shop) {
  EventRecord record;
  record.request_id = id;
  record.shop = shop;
  record.latency_ms = 1.5;
  return record;
}

// ---------------------------------------------------------------------------
// EventLog ring
// ---------------------------------------------------------------------------

TEST(EventLogTest, AppendsAndReadsOldestFirst) {
  EventLog log(16);
  log.SetEnabled(true);
  for (uint64_t i = 1; i <= 5; ++i) {
    log.Append(MakeRecord(i, static_cast<int32_t>(i)));
  }
  const std::vector<EventRecord> got = log.Recent(5);
  ASSERT_EQ(got.size(), 5u);
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].request_id, i + 1);  // oldest first
    EXPECT_EQ(got[i].shop, static_cast<int32_t>(i + 1));
    EXPECT_EQ(got[i].latency_ms, 1.5);
  }
  EXPECT_EQ(log.total_appended(), 5u);
  EXPECT_EQ(log.dropped(), 0u);
}

TEST(EventLogTest, WrapKeepsNewestAndCountsDropped) {
  EventLog log(8);
  log.SetEnabled(true);
  for (uint64_t i = 1; i <= 20; ++i) log.Append(MakeRecord(i, 0));
  EXPECT_EQ(log.total_appended(), 20u);
  EXPECT_EQ(log.dropped(), 12u);
  // Asking for more than capacity returns exactly the survivors: 13..20.
  const std::vector<EventRecord> got = log.Recent(100);
  ASSERT_EQ(got.size(), 8u);
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].request_id, 13 + i);
  }
}

TEST(EventLogTest, DisabledLogRecordsNothing) {
  EventLog log(8);
  log.Append(MakeRecord(1, 0));  // disabled by default
  EXPECT_EQ(log.total_appended(), 0u);
  EXPECT_TRUE(log.Recent(8).empty());
  log.SetEnabled(true);
  log.Append(MakeRecord(2, 0));
  log.SetEnabled(false);
  log.Append(MakeRecord(3, 0));
  ASSERT_EQ(log.Recent(8).size(), 1u);
  EXPECT_EQ(log.Recent(8)[0].request_id, 2u);
}

TEST(EventLogTest, ConcurrentAppendsAndReadsStayConsistent) {
  EventLog log(64);
  log.SetEnabled(true);
  constexpr int kWriters = 4;
  constexpr uint64_t kPerWriter = 2000;
  std::atomic<bool> stop{false};
  // A reader hammers Recent() while writers wrap the ring many times over;
  // every record it sees must be fully-formed (never a torn slot).
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (const EventRecord& record : log.Recent(64)) {
        EXPECT_GE(record.request_id, 1u);
        EXPECT_LE(record.request_id, kWriters * kPerWriter);
        EXPECT_EQ(record.shop,
                  static_cast<int32_t>(record.request_id % 1000));
        EXPECT_EQ(record.latency_ms, 1.5);
      }
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (uint64_t i = 0; i < kPerWriter; ++i) {
        const uint64_t id = static_cast<uint64_t>(w) * kPerWriter + i + 1;
        log.Append(MakeRecord(id, static_cast<int32_t>(id % 1000)));
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true);
  reader.join();
  EXPECT_EQ(log.total_appended(), kWriters * kPerWriter);
  EXPECT_EQ(log.dropped(), kWriters * kPerWriter - 64);
}

TEST(EventLogTest, RecentJsonEmitsRequestIdAsDecimalString) {
  EventLog log(8);
  log.SetEnabled(true);
  EventRecord record = MakeRecord(18446744073709551615ull, 7);  // 2^64 - 1
  std::strncpy(record.reason, "deadline \"exceeded\"", sizeof(record.reason));
  record.reason[sizeof(record.reason) - 1] = '\0';
  log.Append(record);
  const std::string json = log.RecentJson(8);
  // 64-bit ids overflow doubles; the contract is a decimal *string*.
  EXPECT_NE(json.find("\"request_id\":\"18446744073709551615\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"deadline \\\"exceeded\\\"\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"total_appended\":1"), std::string::npos) << json;
}

TEST(EventLogTest, NextRequestIdIsUniqueAndNonZero) {
  std::set<uint64_t> ids;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t id = obs::NextRequestId();
    EXPECT_NE(id, 0u);
    EXPECT_TRUE(ids.insert(id).second) << "duplicate id " << id;
  }
}

// ---------------------------------------------------------------------------
// AdminServer endpoints
// ---------------------------------------------------------------------------

class AdminServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    AdminServerOptions options;  // port 0: ephemeral
    std::string error;
    ASSERT_TRUE(server_.Start(options, &error)) << error;
    ASSERT_GT(server_.port(), 0);
  }
  void TearDown() override { server_.Stop(); }
  AdminServer server_;
};

TEST_F(AdminServerTest, MetricsScrapeIsByteIdenticalToExporter) {
  obs::MetricsRegistry::Global()
      .GetCounter("gaia_admin_test_probe_total")
      .Increment(41);
  const HttpResponse response = HttpGet(server_.port(), "/metrics");
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.headers.find("text/plain; version=0.0.4"),
            std::string::npos)
      << response.headers;
  // /metrics bumps its own scrape counter *before* rendering, so the bytes
  // on the wire equal an ExportPrometheus() taken right after the scrape.
  EXPECT_EQ(response.body, obs::MetricsRegistry::Global().ExportPrometheus());
  EXPECT_NE(response.body.find("gaia_admin_test_probe_total 41"),
            std::string::npos);
  EXPECT_NE(response.body.find("gaia_admin_requests_total"),
            std::string::npos);
}

TEST_F(AdminServerTest, HealthzFlipsFrom503To200WhenCheckPasses) {
  std::atomic<bool> ready{false};
  server_.AddCheck("checkpoint_loaded", [&ready](std::string* detail) {
    if (ready.load()) return true;
    if (detail != nullptr) *detail = "no generation adopted";
    return false;
  });
  const HttpResponse before = HttpGet(server_.port(), "/healthz");
  EXPECT_EQ(before.status, 503);
  EXPECT_NE(before.body.find("checkpoint_loaded: no generation adopted"),
            std::string::npos)
      << before.body;
  ready.store(true);
  const HttpResponse after = HttpGet(server_.port(), "/healthz");
  EXPECT_EQ(after.status, 200);
  EXPECT_EQ(after.body, "ok\n");
  // /readyz is an alias over the same check set.
  EXPECT_EQ(HttpGet(server_.port(), "/readyz").status, 200);
}

TEST_F(AdminServerTest, StatuszCarriesChecksAndInfoProviders) {
  server_.AddCheck("always_ok", [](std::string*) { return true; });
  server_.AddInfo("generation", [] { return std::string("3"); });
  const HttpResponse response = HttpGet(server_.port(), "/statusz");
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"uptime_seconds\""), std::string::npos);
  EXPECT_NE(response.body.find("\"always_ok\":true"), std::string::npos)
      << response.body;
  EXPECT_NE(response.body.find("\"generation\":\"3\""), std::string::npos)
      << response.body;
}

TEST_F(AdminServerTest, StatuszCarriesDriftBlock) {
  // The drift statistic (score, window) is first-class status: the block is
  // always present, fed by the unconditional scheduler gauges, so an
  // operator can see drift state with GAIA_OBS off.
  auto& registry = obs::MetricsRegistry::Global();
  registry.GetGauge("gaia_drift_score").Set(1.25);
  registry.GetGauge("gaia_drift_window_cycles").Set(3.0);
  const HttpResponse response = HttpGet(server_.port(), "/statusz");
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"drift\""), std::string::npos)
      << response.body;
  EXPECT_NE(response.body.find("\"score\":1.25"), std::string::npos)
      << response.body;
  EXPECT_NE(response.body.find("\"window_cycles\":3"), std::string::npos)
      << response.body;
}

TEST_F(AdminServerTest, MetricsJsonAndTracezAreServed) {
  const HttpResponse json = HttpGet(server_.port(), "/metrics.json");
  EXPECT_EQ(json.status, 200);
  EXPECT_NE(json.body.find("\"counters\""), std::string::npos);
  const HttpResponse tracez = HttpGet(server_.port(), "/tracez");
  EXPECT_EQ(tracez.status, 200);
  EXPECT_NE(tracez.body.find("\"spans\""), std::string::npos);
}

TEST_F(AdminServerTest, RequestzReturnsRecentEventLogRecords) {
  EventLog& log = EventLog::Global();
  const bool was_enabled = log.enabled();
  log.SetEnabled(true);
  const uint64_t id = obs::NextRequestId();
  log.Append(MakeRecord(id, 42));
  const HttpResponse response = HttpGet(server_.port(), "/requestz?n=5");
  log.SetEnabled(was_enabled);
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"request_id\":\"" + std::to_string(id) +
                               "\""),
            std::string::npos)
      << response.body;
}

TEST_F(AdminServerTest, UnknownPathReturns404) {
  const HttpResponse response = HttpGet(server_.port(), "/nope");
  EXPECT_EQ(response.status, 404);
}

TEST_F(AdminServerTest, QuitzWakesWaitForQuit) {
  // Before /quitz: a bounded wait times out.
  EXPECT_FALSE(server_.WaitForQuit(/*timeout_ms=*/10.0));
  std::thread waiter([&] { EXPECT_TRUE(server_.WaitForQuit()); });
  EXPECT_EQ(HttpGet(server_.port(), "/quitz").status, 200);
  waiter.join();
}

TEST(AdminServerLifecycleTest, StartStopStartReusesCleanly) {
  AdminServer server;
  std::string error;
  ASSERT_TRUE(server.Start(AdminServerOptions{}, &error)) << error;
  const int first_port = server.port();
  EXPECT_FALSE(server.Start(AdminServerOptions{}))
      << "double Start must fail";
  server.Stop();
  server.Stop();  // idempotent
  ASSERT_TRUE(server.Start(AdminServerOptions{}, &error)) << error;
  EXPECT_GT(server.port(), 0);
  EXPECT_EQ(HttpGet(server.port(), "/healthz").status, 200);
  server.Stop();
  (void)first_port;
}

// ---------------------------------------------------------------------------
// Request-id correlation through the serving tier
// ---------------------------------------------------------------------------

class AdminServingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data::MarketConfig cfg;
    cfg.num_shops = 60;
    cfg.history_months = 14;
    cfg.seed = 31;
    auto market = data::MarketSimulator(cfg).Generate();
    ASSERT_TRUE(market.ok());
    auto ds = data::ForecastDataset::Create(market.value(),
                                            data::DatasetOptions{});
    ASSERT_TRUE(ds.ok());
    dataset_ = std::make_shared<data::ForecastDataset>(std::move(ds).value());
    EventLog::Global().Clear();
    EventLog::Global().SetEnabled(true);
  }
  void TearDown() override {
    EventLog::Global().SetEnabled(false);
    util::FaultInjector::Global().Reset();
  }

  std::shared_ptr<core::GaiaModel> MakeModel(uint64_t seed = 1) {
    core::GaiaConfig cfg;
    cfg.channels = 8;
    cfg.tel_groups = 2;
    cfg.num_layers = 1;
    cfg.seed = seed;
    auto model = core::GaiaModel::Create(
        cfg, dataset_->history_len(), dataset_->horizon(),
        dataset_->temporal_dim(), dataset_->static_dim());
    EXPECT_TRUE(model.ok());
    return std::shared_ptr<core::GaiaModel>(std::move(model).value());
  }

  std::shared_ptr<data::ForecastDataset> dataset_;
};

TEST_F(AdminServingTest, EveryServedRequestAppearsInEventLogWithItsId) {
  ModelServer server(MakeModel(), dataset_, serving::ServerConfig{});
  std::set<uint64_t> served_ids;
  for (int32_t shop = 0; shop < 10; ++shop) {
    const ModelServer::Prediction prediction = server.Predict(shop);
    EXPECT_NE(prediction.request_id, 0u);
    EXPECT_TRUE(served_ids.insert(prediction.request_id).second);
  }
  const std::vector<EventRecord> records = EventLog::Global().Recent(100);
  ASSERT_EQ(records.size(), 10u);
  for (const EventRecord& record : records) {
    EXPECT_EQ(served_ids.count(record.request_id), 1u);
    EXPECT_EQ(record.served_by, 0u);  // healthy: model path
    EXPECT_EQ(record.cancelled, 0u);
    EXPECT_EQ(record.shard, -1);  // unsharded serving
    EXPECT_STREQ(record.reason, "");
  }
}

TEST_F(AdminServingTest, DegradedRequestIdsMatchSeededFaultSchedule) {
  ModelServer server(MakeModel(), dataset_, serving::ServerConfig{});
  util::FaultInjector& faults = util::FaultInjector::Global();
  faults.Reset();
  faults.Reseed(1234);
  faults.Arm({"serving.forward", util::FaultKind::kUnavailable, 0.5, -1});
  std::set<uint64_t> degraded_ids;
  constexpr int kRequests = 24;
  for (int i = 0; i < kRequests; ++i) {
    const ModelServer::Prediction prediction =
        server.Predict(static_cast<int32_t>(i % 60));
    if (prediction.served_by == ModelServer::ServePath::kFallback) {
      degraded_ids.insert(prediction.request_id);
    }
  }
  faults.Reset();
  ASSERT_GT(degraded_ids.size(), 0u) << "seeded schedule injected no faults";
  ASSERT_LT(degraded_ids.size(), static_cast<size_t>(kRequests));
  // The flight recorder must tell the same story: exactly the degraded ids
  // carry served_by=fallback and a non-empty reason.
  std::set<uint64_t> logged_degraded;
  const std::vector<EventRecord> records = EventLog::Global().Recent(100);
  ASSERT_EQ(records.size(), static_cast<size_t>(kRequests));
  for (const EventRecord& record : records) {
    if (record.served_by == 1u) {
      logged_degraded.insert(record.request_id);
      EXPECT_STRNE(record.reason, "");
    }
  }
  EXPECT_EQ(logged_degraded, degraded_ids);
  // And a /requestz scrape surfaces those same ids over HTTP.
  AdminServer admin;
  ASSERT_TRUE(admin.Start(AdminServerOptions{}));
  const HttpResponse response =
      HttpGet(admin.port(), "/requestz?n=" + std::to_string(kRequests));
  admin.Stop();
  for (const uint64_t id : degraded_ids) {
    EXPECT_NE(response.body.find("\"request_id\":\"" + std::to_string(id) +
                                 "\""),
              std::string::npos)
        << "degraded id " << id << " missing from /requestz";
  }
}

TEST_F(AdminServingTest, CancelledWhileQueuedIsRecordedWithReason) {
  ShardedServerConfig cfg;
  cfg.num_shards = 2;
  ShardedServer server(MakeModel(), dataset_, cfg);
  util::CancelToken token;
  token.Cancel();  // fired before the request is even submitted
  const ModelServer::Prediction prediction =
      server.Predict(/*shop=*/3, /*deadline_ms=*/0.0, &token);
  EXPECT_EQ(prediction.served_by, ModelServer::ServePath::kFallback);
  EXPECT_NE(prediction.request_id, 0u);
  const std::vector<EventRecord> records = EventLog::Global().Recent(100);
  bool found = false;
  for (const EventRecord& record : records) {
    if (record.request_id != prediction.request_id) continue;
    found = true;
    EXPECT_EQ(record.cancelled, 1u);
    EXPECT_EQ(record.served_by, 1u);
    EXPECT_STREQ(record.reason, "cancelled while queued");
    EXPECT_GE(record.shard, 0);
  }
  EXPECT_TRUE(found) << "cancelled request never reached the event log";
}

TEST_F(AdminServingTest, ShardedRequestsRecordShardAndQueueWait) {
  ShardedServerConfig cfg;
  cfg.num_shards = 2;
  ShardedServer server(MakeModel(), dataset_, cfg);
  std::set<uint64_t> ids;
  for (int32_t shop = 0; shop < 8; ++shop) {
    ids.insert(server.Predict(shop).request_id);
  }
  server.Stop();
  const std::vector<EventRecord> records = EventLog::Global().Recent(100);
  ASSERT_EQ(records.size(), 8u);
  for (const EventRecord& record : records) {
    EXPECT_EQ(ids.count(record.request_id), 1u);
    EXPECT_GE(record.shard, 0);
    EXPECT_LT(record.shard, 2);
    EXPECT_GE(record.queue_wait_ms, 0.0);
  }
}

}  // namespace
}  // namespace gaia
