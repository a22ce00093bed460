// The monitor end to end, in process: scraping a local registry and a
// real wire server into the store, the health listener answering
// bbmg_client's fetch_health, fleet rollups, the chaos proxy that
// manufactures latency incidents, and the report renderers.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <chrono>
#include <cstdint>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "monitor/aggregate.hpp"
#include "monitor/monitor.hpp"
#include "monitor/scraper.hpp"
#include "obs/metrics.hpp"
#include "serve/chaos_proxy.hpp"
#include "serve/client.hpp"
#include "serve/net.hpp"
#include "serve/server.hpp"
#include "support/proc_stats.hpp"

namespace bbmg::monitor {
namespace {

SloObjective test_objective() {
  SloObjective o;
  o.name = "test-latency";
  o.kind = SloKind::LatencyP;
  o.metric = "bbmg_testmon_latency_us";
  o.threshold_us = 1000;
  o.target = 0.99;
  return o;
}

TEST(Monitor, TicksScrapeLocalRegistryIntoStore) {
  obs::MetricsRegistry registry;
  obs::Counter& reqs = registry.counter("bbmg_testmon_reqs_total");
  obs::Histogram& lat =
      registry.histogram("bbmg_testmon_latency_us", {1000, 10000});

  MonitorConfig config;
  config.listen = false;
  config.objectives = {test_objective()};
  Monitor mon(config);
  mon.add_local("driver", &registry);

  reqs.inc(5);
  lat.observe(10);
  mon.tick(1000);
  reqs.inc(5);
  lat.observe(20000);
  mon.tick(2000);

  const std::vector<TsSample> samples =
      mon.store().samples_since("driver", "bbmg_testmon_reqs_total", 0);
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0].value, 5);
  EXPECT_EQ(samples[1].value, 10);
  // Histograms land flattened: count, sum, and cumulative buckets.
  ASSERT_TRUE(
      mon.store()
          .latest("driver", count_series("bbmg_testmon_latency_us"))
          .has_value());
  EXPECT_EQ(mon.store()
                .latest("driver", count_series("bbmg_testmon_latency_us"))
                ->value,
            2);
  EXPECT_EQ(
      mon.store()
          .latest("driver", bucket_series("bbmg_testmon_latency_us", 1000))
          ->value,
      1);
  EXPECT_EQ(mon.store()
                .latest("driver",
                        inf_bucket_series("bbmg_testmon_latency_us"))
                ->value,
            2);

  const HealthReport report = mon.report();
  EXPECT_EQ(report.evaluated_at_ms, 2000u);
  ASSERT_EQ(report.objectives.size(), 1u);
  EXPECT_EQ(report.objectives[0].name, "test-latency");
  ASSERT_EQ(report.endpoints.size(), 1u);
  EXPECT_EQ(report.endpoints[0].name, "driver");
  EXPECT_EQ(report.endpoints[0].state, EndpointState::Ok);
  EXPECT_EQ(report.endpoints[0].endpoint, "");
  EXPECT_EQ(mon.ticks(), 2u);
}

TEST(Monitor, ScrapesARealServerOverTheWire) {
  Server server;
  server.start();

  MonitorConfig config;
  config.listen = false;
  Monitor mon(config);
  mon.add_endpoint("srv",
                   cluster::Endpoint{"127.0.0.1", server.port()});

  mon.tick(Monitor::wall_ms());

  const HealthReport report = mon.report();
  ASSERT_EQ(report.endpoints.size(), 1u);
  EXPECT_EQ(report.endpoints[0].state, EndpointState::Ok);
  EXPECT_EQ(report.endpoints[0].endpoint,
            "127.0.0.1:" + std::to_string(server.port()));
  // The server's registry reached the store under the target's name.
  EXPECT_TRUE(
      mon.store().latest("srv", "bbmg_serve_connections_total").has_value());
  server.stop();
}

TEST(Monitor, ServesHealthAndItsOwnMetricsOverTheWire) {
  obs::MetricsRegistry registry;
  (void)registry.counter("bbmg_testmon_reqs_total");

  MonitorConfig config;
  config.listen = true;
  config.interval_ms = 20;
  Monitor mon(config);  // empty objectives -> the stock five
  mon.add_local("fleet", &registry);
  mon.start();
  ASSERT_GT(mon.port(), 0);
  for (int i = 0; i < 500 && mon.ticks() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_GT(mon.ticks(), 0u);

  ServeClient client;
  client.connect("127.0.0.1", mon.port());
  const HealthReport report = Monitor::from_wire(client.fetch_health());
  EXPECT_EQ(report.overall, AlertState::Ok);  // no traffic burns nothing
  ASSERT_EQ(report.objectives.size(), default_objectives().size());
  EXPECT_EQ(report.objectives[0].name, "ingest-latency");
  ASSERT_EQ(report.endpoints.size(), 1u);
  EXPECT_EQ(report.endpoints[0].name, "fleet");

  // The watcher is watchable: MetricsRequest returns the monitor's own
  // registry, including its scrape counters.
  const obs::MetricsSnapshot snap = client.fetch_metrics();
  EXPECT_GT(snap.counter_value("bbmg_monitor_scrapes_total"), 0u);
  client.disconnect();
  mon.stop();
}

// The monitor's scrape carries its process gauges, like a serving
// daemon's, so a monitor that leaks memory or descriptors is itself
// pageable.
TEST(Monitor, MetricsReplyCarriesProcessGauges) {
  MonitorConfig config;
  config.listen = true;
  config.interval_ms = 20;
  Monitor mon(config);
  mon.start();
  ASSERT_GT(mon.port(), 0);
  ServeClient client;
  client.connect("127.0.0.1", mon.port());
  const obs::MetricsSnapshot snap = client.fetch_metrics();
  client.disconnect();
  mon.stop();

  const obs::GaugeSample* fds = snap.find_gauge("bbmg_process_open_fds");
  ASSERT_NE(fds, nullptr);
  EXPECT_GT(fds->value, 0);
  const obs::GaugeSample* vm = snap.find_gauge("bbmg_process_vm_bytes");
  ASSERT_NE(vm, nullptr);
  EXPECT_GT(vm->value, 0);
}

// Like the serving daemon, the monitor acknowledges only a Hello at this
// build's protocol version.
TEST(Monitor, RefusesHelloAtAnyOtherVersion) {
  MonitorConfig config;
  config.listen = true;
  config.interval_ms = 20;
  Monitor mon(config);
  mon.start();
  ASSERT_GT(mon.port(), 0);
  const auto acked = [&](int version) {
    const int fd = net::connect_tcp("127.0.0.1", mon.port());
    net::set_socket_timeout(fd, 5000);
    HelloMsg hello;
    hello.version = static_cast<std::uint16_t>(version);
    net::write_frame(fd, hello.to_frame(FrameType::Hello));
    FrameDecoder decoder;
    const std::optional<Frame> reply = net::read_frame(fd, decoder);
    net::close_socket(fd);
    return reply.has_value() && reply->type == FrameType::HelloAck;
  };
  EXPECT_FALSE(acked(kServeProtocolVersion - 1));
  EXPECT_FALSE(acked(kServeProtocolVersion + 1));
  EXPECT_TRUE(acked(kServeProtocolVersion));
  mon.stop();
}

// stop() shuts down live connections instead of waiting for their peers:
// an idle client that said Hello and went quiet must not hold it open.
TEST(Monitor, StopUnblocksLiveConnections) {
  MonitorConfig config;
  config.interval_ms = 20;
  Monitor mon(config);
  mon.start();
  const int fd = net::connect_tcp("127.0.0.1", mon.port());
  net::set_socket_timeout(fd, 5000);
  HelloMsg hello;
  hello.version = kServeProtocolVersion;
  net::write_frame(fd, hello.to_frame(FrameType::Hello));
  FrameDecoder decoder;
  const std::optional<Frame> ack = net::read_frame(fd, decoder);
  ASSERT_TRUE(ack.has_value() && ack->type == FrameType::HelloAck);

  std::future<void> stopped =
      std::async(std::launch::async, [&] { mon.stop(); });
  const bool prompt = stopped.wait_for(std::chrono::seconds(5)) ==
                      std::future_status::ready;
  // Closing our end releases a stop() that waits for the peer, so a
  // failure is reported instead of hanging the suite.
  net::close_socket(fd);
  stopped.get();
  EXPECT_TRUE(prompt) << "stop() waited for an idle client to hang up";
}

// Every health query runs on its own connection thread; the monitor must
// give back that thread's fd and stack when the query ends, so threads,
// fds and virtual size stay flat however many queries it answers.
TEST(Monitor, SequentialQueriesReleaseThreadsFdsAndStacks) {
  MonitorConfig config;
  config.interval_ms = 20;
  Monitor mon(config);
  mon.start();
  test::expect_flat_footprint("/proc/self", 200, [&] {
    ServeClient client;
    client.set_request_timeout_ms(5000);
    client.connect("127.0.0.1", mon.port());
    (void)client.fetch_health();
    client.disconnect();
  });
  EXPECT_EQ(obs::MetricsRegistry::instance()
                .gauge("bbmg_monitor_open_connections")
                .value(),
            0);
  mon.stop();
}

TEST(Monitor, RendersTextAndJson) {
  HealthReport report;
  report.overall = AlertState::Page;
  report.evaluated_at_ms = 10'000;
  ObjectiveStatus o;
  o.name = "client-rtt";
  o.state = AlertState::Page;
  o.fast_burn = 12.5;
  o.slow_burn = 9.0;
  o.detail = "fast 12.50x / slow 9.00x of budget (bad 55/100)";
  report.objectives.push_back(o);
  EndpointStatus e;
  e.name = "shard0";
  e.endpoint = "127.0.0.1:7301";
  e.state = EndpointState::Stale;
  e.last_ok_ms = 6'000;
  report.endpoints.push_back(e);

  const std::string text = Monitor::render_text(report, 12'000);
  EXPECT_NE(text.find("overall: page"), std::string::npos) << text;
  EXPECT_NE(text.find("client-rtt"), std::string::npos);
  EXPECT_NE(text.find("shard0"), std::string::npos);
  EXPECT_NE(text.find("stale"), std::string::npos);

  const std::string json = Monitor::render_json(report);
  EXPECT_NE(json.find("\"overall\":\"page\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"client-rtt\""), std::string::npos);
  EXPECT_NE(json.find("\"fast_burn\":12.5"), std::string::npos) << json;
}

TEST(Aggregate, RollupsAcrossEndpoints) {
  TsStore store;
  store.append("shard0", "bbmg_serve_connections_total", 0, 3);
  store.append("shard1", "bbmg_serve_connections_total", 0, 7);
  store.append("shard0", "bbmg_serve_queue_depth{worker=\"0\"}", 0, 2);
  store.append("shard0", "bbmg_serve_queue_depth{worker=\"1\"}", 0, 5);
  store.append("shard1", "bbmg_serve_queue_depth{worker=\"0\"}", 0, 4);

  EXPECT_EQ(sum_latest(store, "bbmg_serve_connections_total"), 10);
  EXPECT_EQ(max_latest(store, "bbmg_serve_connections_total"), 7);
  EXPECT_EQ(total_queue_depth(store), 11);

  // Counter rates sum across endpoints.
  store.append("shard0", "bbmg_serve_periods_applied_total", 0, 0);
  store.append("shard0", "bbmg_serve_periods_applied_total", 10'000, 100);
  store.append("shard1", "bbmg_serve_periods_applied_total", 0, 0);
  store.append("shard1", "bbmg_serve_periods_applied_total", 10'000, 300);
  EXPECT_DOUBLE_EQ(sum_rate_per_sec(store,
                                    "bbmg_serve_periods_applied_total",
                                    10'000, 10'000),
                   40.0);

  // Replication lag pairs "<name>" with "<name>-follower".
  store.append("shard0-follower", "bbmg_serve_periods_applied_total",
               10'000, 64);
  const std::vector<ReplicationLag> lags = replication_lags(store);
  ASSERT_EQ(lags.size(), 1u);
  EXPECT_EQ(lags[0].primary, "shard0");
  EXPECT_EQ(lags[0].follower, "shard0-follower");
  EXPECT_EQ(lags[0].lag_periods, 36u);
}

TEST(ChaosProxy, RelaysASessionVerbatimWithoutChaos) {
  Server server;
  server.start();
  ChaosProxy proxy("127.0.0.1", server.port(), net::ChaosConfig{});

  ServeClient client;
  client.connect("127.0.0.1", proxy.port());
  const std::uint32_t session = client.open_session({"a", "b"});
  client.close_session(session);
  client.disconnect();

  EXPECT_GE(proxy.connections(), 1u);
  proxy.stop();
  server.stop();
}

TEST(ChaosProxy, InjectedDelayInflatesObservedRtt) {
  Server server;
  server.start();
  net::ChaosConfig chaos;
  chaos.seed = 7;
  chaos.delay_prob = 1.0;
  chaos.max_delay_us = 20'000;
  ChaosProxy proxy("127.0.0.1", server.port(), chaos);

  ServeClient client;
  client.connect("127.0.0.1", proxy.port());
  const auto start = std::chrono::steady_clock::now();
  const std::uint32_t session = client.open_session({"a"});
  client.close_session(session);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  client.disconnect();
  proxy.stop();
  server.stop();
  // Two request/replies, each delayed on the reply path.
  EXPECT_GE(std::chrono::duration_cast<std::chrono::microseconds>(elapsed)
                .count(),
            1000);
}

// Each relay gives back its two sockets and its two threads (with their
// stacks) when the connection ends, not at stop().
TEST(ChaosProxy, EndedRelaysReleaseTheirFdsAndThreads) {
  Server server;
  server.start();
  ChaosProxy proxy("127.0.0.1", server.port(), net::ChaosConfig{});
  test::expect_flat_footprint("/proc/self", 100, [&] {
    ServeClient client;
    client.set_request_timeout_ms(5000);
    client.connect("127.0.0.1", proxy.port());
    client.close_session(client.open_session({"a", "b"}));
    client.disconnect();
  });
  EXPECT_GE(proxy.connections(), 100u);
  proxy.stop();
  server.stop();
}

// stop() does not wait on the upstream: a relay blocked writing to an
// upstream that accepts but never reads is woken too.
TEST(ChaosProxy, StopReturnsPromptlyBehindAStalledUpstream) {
  // A listener that never calls accept(): the kernel completes the
  // handshake, then buffers bytes until the receive window closes.
  const net::Listener upstream = net::listen_tcp(0, 4);
  ChaosProxy proxy("127.0.0.1", upstream.port, net::ChaosConfig{});
  const int client = net::connect_tcp("127.0.0.1", proxy.port());
  net::set_socket_timeout(client, 200);
  // Write until the client's own send blocks: by then every buffer on the
  // path is full and the relay is stuck writing upstream.
  const std::vector<std::uint8_t> chunk(std::size_t{1} << 16, 0x5a);
  std::size_t sent = 0;
  while (sent < (std::size_t{256} << 20)) {
    const ssize_t n = ::send(client, chunk.data(), chunk.size(), MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  EXPECT_GE(sent, std::size_t{1} << 20);

  auto stopped = std::async(std::launch::async, [&proxy] { proxy.stop(); });
  const bool prompt = stopped.wait_for(std::chrono::seconds(2)) ==
                      std::future_status::ready;
  EXPECT_TRUE(prompt) << "stop() blocked behind the stalled upstream";
  if (!prompt) {
    // Fail instead of hanging: dropping the upstream end unwedges the relay.
    net::close_socket(::accept(upstream.fd, nullptr, nullptr));
  }
  stopped.wait();
  net::close_socket(client);
  net::close_socket(upstream.fd);
}

}  // namespace
}  // namespace bbmg::monitor
