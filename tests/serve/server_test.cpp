// TCP front-end: end-to-end replay/query over a real socket, protocol
// errors from hostile peers, and multi-connection isolation.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "core/heuristic_learner.hpp"
#include "gen/gm_case_study.hpp"
#include "obs/metrics.hpp"
#include "serve/client.hpp"
#include "serve/net.hpp"
#include "serve/server.hpp"
#include "sim/simulator.hpp"
#include "support/proc_stats.hpp"

namespace bbmg {
namespace {

Trace gm_trace(std::uint64_t seed, std::size_t periods) {
  SimConfig cfg;
  cfg.seed = seed;
  return simulate_trace(gm_case_study_model(), periods, cfg);
}

TEST(ServerEndToEnd, ReplayedTraceServesTheOfflineModel) {
  ServerConfig config;
  config.manager.workers = 2;
  Server server(config);
  server.start();
  ASSERT_GT(server.port(), 0);

  const Trace trace = gm_trace(7, 9);
  ServeClient client;
  client.connect("127.0.0.1", server.port());
  const std::uint32_t session = client.open_session(trace.task_names());
  EXPECT_EQ(client.send_trace(session, trace), trace.num_periods());

  const WireSnapshot snap = client.query(session, /*drain=*/true);
  EXPECT_EQ(snap.periods_seen, trace.num_periods());
  EXPECT_EQ(snap.periods_learned, trace.num_periods());
  EXPECT_EQ(snap.health, HealthState::OK);

  // The wire answer equals the offline batch pipeline on the same trace.
  const DependencyMatrix offline = learn_heuristic(trace, 16).lub();
  EXPECT_TRUE(snap.lub == offline);
  EXPECT_EQ(snap.weight, offline.weight());

  client.close_session(session);
  server.stop();
}

TEST(ServerEndToEnd, ProbeQueriesReturnVerdicts) {
  Server server;
  server.start();
  const Trace trace = gm_trace(5, 9);
  ServeClient client;
  client.connect("127.0.0.1", server.port());
  const std::uint32_t session = client.open_session(trace.task_names());
  client.send_trace(session, trace);

  const std::vector<Event> seen = trace.periods()[0].to_events();
  EXPECT_EQ(client.query(session, true, &seen).verdict, ProbeVerdict::Conforms);

  const std::vector<Event> lone{Event::task_start(0, TaskId{0u}),
                                Event::task_end(1000, TaskId{0u})};
  const WireSnapshot bad = client.query(session, true, &lone);
  EXPECT_EQ(bad.verdict, ProbeVerdict::Violates);
  EXPECT_GT(bad.num_violations, 0u);
  server.stop();
}

TEST(ServerEndToEnd, ConcurrentConnectionsLearnIndependentModels) {
  ServerConfig config;
  config.manager.workers = 3;
  Server server(config);
  server.start();

  const std::size_t kClients = 4;
  std::vector<DependencyMatrix> served(kClients);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i, port = server.port()] {
      const Trace trace = gm_trace(20 + i, 6);
      ServeClient client;
      client.connect("127.0.0.1", port);
      const std::uint32_t session = client.open_session(trace.task_names());
      client.send_trace(session, trace);
      served[i] = client.query(session, /*drain=*/true).lub;
    });
  }
  for (auto& t : threads) t.join();

  for (std::size_t i = 0; i < kClients; ++i) {
    const DependencyMatrix offline =
        learn_heuristic(gm_trace(20 + i, 6), 16).lub();
    EXPECT_TRUE(served[i] == offline) << "client " << i;
  }
  server.stop();
}

TEST(ServerRobustness, GarbageConnectionDoesNotKillTheServer) {
  Server server;
  server.start();

  // A peer speaking something that is not the protocol: the server must
  // reject the connection and keep serving others.
  {
    const int fd = net::connect_tcp("127.0.0.1", server.port());
    const char junk[] = "GET / HTTP/1.1\r\n\r\n";
    net::write_all(fd, reinterpret_cast<const std::uint8_t*>(junk),
                   sizeof(junk) - 1);
    // Whatever comes back (an ErrorReply or a shutdown), the connection
    // must end; draining until EOF must not hang.
    FrameDecoder decoder;
    try {
      while (net::read_frame(fd, decoder).has_value()) {
      }
    } catch (const Error&) {
    }
    net::close_socket(fd);
  }

  // A frame-level valid but semantically wrong conversation: a query for a
  // session that was never opened surfaces as a client-side error, again
  // without hurting the server.
  {
    ServeClient client;
    client.connect("127.0.0.1", server.port());
    EXPECT_THROW((void)client.query(12345, /*drain=*/true), Error);
  }

  // The server still works end to end.
  const Trace trace = gm_trace(9, 4);
  ServeClient client;
  client.connect("127.0.0.1", server.port());
  const std::uint32_t session = client.open_session(trace.task_names());
  client.send_trace(session, trace);
  EXPECT_EQ(client.query(session, true).periods_seen, trace.num_periods());
  server.stop();
}

TEST(ServerRobustness, StopUnblocksLiveConnections) {
  auto server = std::make_unique<Server>();
  server->start();
  ServeClient client;
  client.connect("127.0.0.1", server->port());
  const std::uint32_t session = client.open_session({"a", "b"});
  (void)session;
  server->stop();  // must not deadlock on the open connection
  server.reset();
}

// Every peer is built from this tree, so a Hello one version off in either
// direction is refused with an ErrorReply instead of acknowledged.
TEST(ServerRobustness, RefusesHelloAtAnyOtherVersion) {
  Server server;
  server.start();
  const auto first_reply = [&](int version) -> std::optional<FrameType> {
    const int fd = net::connect_tcp("127.0.0.1", server.port());
    net::set_socket_timeout(fd, 5000);
    HelloMsg hello;
    hello.version = static_cast<std::uint16_t>(version);
    net::write_frame(fd, hello.to_frame(FrameType::Hello));
    FrameDecoder decoder;
    std::optional<Frame> reply = net::read_frame(fd, decoder);
    net::close_socket(fd);
    if (!reply.has_value()) return std::nullopt;
    return reply->type;
  };
  EXPECT_EQ(first_reply(kServeProtocolVersion - 1), FrameType::ErrorReply);
  EXPECT_EQ(first_reply(kServeProtocolVersion + 1), FrameType::ErrorReply);
  EXPECT_EQ(first_reply(kServeProtocolVersion), FrameType::HelloAck);
  server.stop();
}

/// Lowers the soft RLIMIT_NOFILE for one scope and restores it after.
class ScopedFdLimit {
 public:
  explicit ScopedFdLimit(rlim_t soft) {
    EXPECT_EQ(::getrlimit(RLIMIT_NOFILE, &saved_), 0);
    rlimit lowered = saved_;
    lowered.rlim_cur = soft;
    EXPECT_EQ(::setrlimit(RLIMIT_NOFILE, &lowered), 0);
  }
  ~ScopedFdLimit() { (void)::setrlimit(RLIMIT_NOFILE, &saved_); }
  ScopedFdLimit(const ScopedFdLimit&) = delete;
  ScopedFdLimit& operator=(const ScopedFdLimit&) = delete;

 private:
  rlimit saved_{};
};

// A full fd table makes accept() fail with EMFILE: the kernel reserves the
// new descriptor before it waits for a connection, even on a shut-down
// listener.  That failure is transient: a server stopped meanwhile still
// stops, and once descriptors are free again the other server's accept
// loop is still running, so a new client completes Hello and a query.
TEST(ServerRobustness, AcceptLoopSurvivesFdExhaustion) {
  Server server;
  Server stopped;
  server.start();
  stopped.start();
  const obs::Counter& accept_errors =
      obs::MetricsRegistry::instance().counter(
          "bbmg_serve_accept_errors_total");
  const std::uint64_t errors_before = accept_errors.value();
  // Client sockets made before the table fills: connecting them later
  // needs no new descriptor.
  const int waiting = ::socket(AF_INET, SOCK_STREAM, 0);
  const int waiting_stopped = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(waiting, 0);
  ASSERT_GE(waiting_stopped, 0);
  {
    // A limit a little above the lowest free descriptor: every number
    // below it is taken after a few opens, whatever sits above it.
    const int lowest_free = ::dup(0);
    ASSERT_GE(lowest_free, 0);
    ::close(lowest_free);
    const ScopedFdLimit limit(static_cast<rlim_t>(lowest_free) + 16);
    std::vector<int> filler;
    for (;;) {
      const int fd = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
      if (fd < 0) {
        EXPECT_EQ(errno, EMFILE);
        break;
      }
      filler.push_back(fd);
    }
    // Each server's blocked accept() already holds a reserved descriptor
    // for its client; the accept() after that finds the table full.
    const auto connect_to = [](int fd, std::uint16_t port) {
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      addr.sin_port = htons(port);
      return ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    };
    EXPECT_EQ(connect_to(waiting, server.port()), 0);
    EXPECT_EQ(connect_to(waiting_stopped, stopped.port()), 0);
    for (int i = 0; i < 200 && accept_errors.value() == errors_before; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    stopped.stop();
    for (const int fd : filler) ::close(fd);
  }
  net::close_socket(waiting);
  net::close_socket(waiting_stopped);
  EXPECT_GT(accept_errors.value(), errors_before);

  const Trace trace = gm_trace(9, 2);
  ServeClient client;
  client.set_request_timeout_ms(5000);  // a dead accept loop times out
  try {
    client.connect("127.0.0.1", server.port());
    const std::uint32_t session = client.open_session(trace.task_names());
    client.send_trace(session, trace);
    EXPECT_EQ(client.query(session, /*drain=*/true).periods_seen,
              trace.num_periods());
  } catch (const Error& e) {
    ADD_FAILURE() << "server stopped accepting after EMFILE: " << e.what();
  }
  client.disconnect();
  server.stop();
}

// A connection releases its fd and its thread when it ends, not at stop():
// a daemon that a monitor scrapes over one connection per scrape keeps
// accepting far past its fd limit, and its fd and thread counts come back
// to where they started.  Connections run one at a time.
TEST(ServerLifecycle, EndedConnectionsReleaseTheirFdAndThread) {
  ServerConfig config;
  config.manager.workers = 1;
  Server server(config);
  server.start();
  const Trace trace = gm_trace(4, 2);
  const auto cycle = [&](bool with_session) {
    ServeClient client;
    client.set_request_timeout_ms(5000);  // a stalled accept times out
    client.connect("127.0.0.1", server.port());
    if (with_session) {
      client.close_session(client.open_session(trace.task_names()));
    }
    client.disconnect();
  };
  const obs::Gauge& open_connections =
      obs::MetricsRegistry::instance().gauge("bbmg_serve_open_connections");
  // Waits out the last connection thread's exit.
  const auto settled = [&](std::size_t fds, std::size_t tasks) {
    for (int i = 0; i < 500; ++i) {
      if (test::proc_count("/proc/self/fd") <= fds &&
          test::proc_count("/proc/self/task") <= tasks &&
          open_connections.value() == 0) {
        return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return false;
  };
  cycle(true);  // lazily created state joins the baseline
  ASSERT_TRUE(settled(test::proc_count("/proc/self/fd"),
                      test::proc_count("/proc/self/task")));
  const std::size_t fds0 = test::proc_count("/proc/self/fd");
  const std::size_t tasks0 = test::proc_count("/proc/self/task");
  constexpr rlim_t kLimit = 128;
  ASSERT_LT(fds0 + 16, kLimit);
  {
    const ScopedFdLimit limit(kLimit);
    for (std::size_t i = 0; i < 10 * kLimit + 20; ++i) {
      try {
        cycle(i % 16 == 0);
      } catch (const Error& e) {
        ADD_FAILURE() << "cycle " << i << ": " << e.what();
        break;
      }
    }
  }
  EXPECT_TRUE(settled(fds0 + 2, tasks0 + 2))
      << "fds " << test::proc_count("/proc/self/fd") << " (baseline " << fds0
      << "), threads " << test::proc_count("/proc/self/task") << " (baseline "
      << tasks0 << "), open connections " << open_connections.value();

  ServeClient client;
  client.set_request_timeout_ms(5000);
  client.connect("127.0.0.1", server.port());
  const std::uint32_t session = client.open_session(trace.task_names());
  EXPECT_EQ(client.send_trace(session, trace), trace.num_periods());
  EXPECT_EQ(client.query(session, /*drain=*/true).periods_seen,
            trace.num_periods());
  client.disconnect();
  server.stop();
}

// The acceptance path of the observability layer: replay a trace, fetch
// the process-wide metrics snapshot over the wire, and see the learner,
// serve and queue instrumentation reflect the replay.  The registry is
// process-global and monotone, so assertions are >= (other tests in this
// binary also feed it).
TEST(ServerEndToEnd, MetricsRoundTripOverTheWire) {
  ServerConfig config;
  config.manager.workers = 2;
  Server server(config);
  server.start();

  const Trace trace = gm_trace(11, 8);
  ServeClient client;
  client.connect("127.0.0.1", server.port());
  const std::uint32_t session = client.open_session(trace.task_names());
  client.send_trace(session, trace);
  (void)client.query(session, /*drain=*/true);

  const obs::MetricsSnapshot snap = client.fetch_metrics();
  ASSERT_FALSE(snap.counters.empty());
  EXPECT_GE(snap.counter_value("bbmg_learner_periods_total"),
            trace.num_periods());
  EXPECT_GE(snap.counter_value("bbmg_robust_periods_total"),
            trace.num_periods());
  EXPECT_GE(snap.counter_value("bbmg_serve_periods_applied_total"),
            trace.num_periods());
  EXPECT_GE(snap.counter_value("bbmg_serve_sessions_opened_total"), 1u);
  EXPECT_GE(snap.counter_value("bbmg_serve_queries_total"), 1u);
  EXPECT_GE(snap.counter_value("bbmg_serve_connections_total"), 1u);
  const obs::HistogramSample* lat =
      snap.find_histogram("bbmg_serve_enqueue_apply_latency_us");
  ASSERT_NE(lat, nullptr);
  EXPECT_GE(lat->count, trace.num_periods());
  // A drained session's shard queues are empty again.
  for (const obs::GaugeSample& g : snap.gauges) {
    if (g.name.rfind("bbmg_serve_queue_depth", 0) == 0) {
      EXPECT_GE(g.value, 0) << g.name;
    }
  }

  client.close_session(session);
  server.stop();
}

}  // namespace
}  // namespace bbmg
