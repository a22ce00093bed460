// Connection-resilience policies: the server's idle-connection reaper
// (--idle-timeout) and the client's per-operation retry budget with its
// typed RetriesExhausted error.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>

#include "obs/metrics.hpp"
#include "serve/client.hpp"
#include "serve/net.hpp"
#include "serve/resilient_client.hpp"
#include "serve/server.hpp"

namespace bbmg {
namespace {

std::uint64_t idle_closed_total() {
  return obs::MetricsRegistry::instance().snapshot().counter_value(
      "bbmg_serve_connections_idle_closed_total");
}

TEST(IdleTimeout, SilentConnectionsAreClosedAndCounted) {
  ServerConfig config;
  config.idle_timeout_ms = 100;
  Server server(config);
  server.start();
  const std::uint64_t before = idle_closed_total();

  ServeClient client;
  client.connect("127.0.0.1", server.port());
  // Say nothing: the server's receive deadline fires and it hangs up
  // quietly (a counted idle close, not an error); the counter is the
  // prompt signal.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (idle_closed_total() == before &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(idle_closed_total(), before + 1);
  // The hang-up must be visible to the client: the connection is dead, so
  // the next request fails instead of hanging.
  EXPECT_THROW((void)client.open_session({"a", "b"}), Error);
  server.stop();
}

TEST(IdleTimeout, ActiveConnectionsOutliveManyTimeoutWindows) {
  ServerConfig config;
  config.idle_timeout_ms = 150;
  Server server(config);
  server.start();
  ServeClient client;
  client.connect("127.0.0.1", server.port());
  const std::uint32_t session = client.open_session({"a", "b"});
  // Each request re-arms the deadline; chatting slower than the window but
  // faster than silence keeps the connection alive indefinitely.
  for (int i = 0; i < 6; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const WireSnapshot snap = client.query(session, /*drain=*/false);
    EXPECT_EQ(snap.session, session);
  }
  server.stop();
}

/// A port with nothing listening: bind, learn the number, release it.
std::uint16_t dead_port() {
  const net::Listener listener = net::listen_tcp(0, 1);
  const std::uint16_t port = listener.port;
  net::close_socket(listener.fd);
  return port;
}

TEST(RetryBudget, BudgetExhaustionThrowsTypedErrorPromptly) {
  RetryConfig config;
  config.max_retries = 100000;  // the budget, not the count, must stop it
  config.base_backoff_ms = 1;
  config.max_backoff_ms = 8;
  config.request_timeout_ms = 200;
  config.retry_budget_ms = 150;
  ResilientClient client(config);

  const auto start = std::chrono::steady_clock::now();
  try {
    client.connect("127.0.0.1", dead_port());
    FAIL() << "connect to a dead port succeeded";
  } catch (const RetriesExhausted& e) {
    EXPECT_GE(e.attempts(), 1u);
    EXPECT_GE(e.elapsed_ms(), config.retry_budget_ms);
    EXPECT_FALSE(e.last_error().empty());
    EXPECT_NE(std::string(e.what()).find("retries exhausted"),
              std::string::npos);
  }
  const auto elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start)
          .count();
  // Well under what 100000 refused connects with backoff would take: the
  // budget cut the loop short.
  EXPECT_LT(elapsed_ms, 10000);
}

TEST(RetryBudget, MaxRetriesStillSurfaceTheTypedError) {
  RetryConfig config;
  config.max_retries = 2;
  config.base_backoff_ms = 1;
  config.max_backoff_ms = 2;
  config.retry_budget_ms = 0;  // budget off: the count is the limit
  ResilientClient client(config);
  try {
    client.connect("127.0.0.1", dead_port());
    FAIL() << "connect to a dead port succeeded";
  } catch (const RetriesExhausted& e) {
    EXPECT_EQ(e.attempts(), config.max_retries + 1);  // initial try + retries
  }
}

TEST(RetryBudget, ColdStartRampUpRespectsBudgetNotRetryCount) {
  // Regression: connection-refused during a server's cold start fails in
  // microseconds, so a retry COUNT burns out long before the time the
  // caller granted.  With a budget configured, the budget alone governs:
  // a client started before its server must keep knocking until the
  // listener appears, even with a tiny max_retries.
  const std::uint16_t port = dead_port();
  RetryConfig config;
  config.max_retries = 2;  // would give up after ~3 ms under count rules
  config.base_backoff_ms = 1;
  config.max_backoff_ms = 16;
  config.retry_budget_ms = 5000;
  ResilientClient client(config);

  std::thread delayed_listen([port] {
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    ServerConfig sc;
    sc.port = port;
    Server server(sc);
    server.start();
    // Hold the listener long enough for the client to finish its business.
    std::this_thread::sleep_for(std::chrono::milliseconds(1500));
    server.stop();
  });

  client.connect("127.0.0.1", port);
  const std::uint32_t session = client.open_session({"t0", "t1"});
  const WireSnapshot snap = client.query(session, /*drain=*/true);
  EXPECT_EQ(snap.session, session);
  delayed_listen.join();
}

TEST(RetryBudget, BudgetResetsBetweenOperations) {
  // The budget is per-operation, not per-client: a healthy op after a
  // slow one must start from a full budget.  Exercised against a live
  // server — connect (op 1), open (op 2), query (op 3) all within budget.
  Server server;
  server.start();
  RetryConfig config;
  config.retry_budget_ms = 2000;
  ResilientClient client(config);
  client.connect("127.0.0.1", server.port());
  const std::uint32_t session = client.open_session({"t0", "t1"});
  const WireSnapshot snap = client.query(session, /*drain=*/true);
  EXPECT_EQ(snap.session, session);
  server.stop();
}

}  // namespace
}  // namespace bbmg
