// ChaosProxy: a TCP relay that fronts a healthy server with a hostile
// network.  ServeClient talks to raw fds, so ChaosTransport cannot be
// interposed inside it the way the durable chaos tests do server-side;
// instead the proxy listens on its own port, forwards every accepted
// connection to the real upstream, and pushes the upstream->client byte
// stream through a ChaosTransport.  Injected delays inflate the
// client-observed RTT histogram (bbmg_client_request_rtt_us) without the
// server misbehaving at all — exactly the regression the monitor's SLO
// engine is supposed to page on, which is how bench_monitor and the CI
// monitor-smoke job manufacture a latency incident on demand.
//
// The proxy is a handler on a net::Acceptor: each connection's thread
// dials upstream and relays client->upstream itself, with one extra
// thread for upstream->client, and releases both sockets and the extra
// thread when the relay ends.  The acceptor's stop() shuts down only the
// client sockets, so stop() first shuts down every live upstream socket:
// a relay blocked writing to an upstream that never reads wakes as well.
// A chaos reset (or either side hanging up)
// shuts down both sockets, so the failure mode a client sees is an
// ordinary dead connection that ResilientClient retries through the proxy
// again.  Per-connection chaos RNGs are derived from config.seed + accept
// index, so runs reproduce from the seed alone.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "serve/chaos_transport.hpp"
#include "serve/net.hpp"

namespace bbmg {

class ChaosProxy {
 public:
  /// Starts listening (port 0 = ephemeral) and relaying immediately.
  ChaosProxy(std::string upstream_host, std::uint16_t upstream_port,
             net::ChaosConfig config, std::uint16_t listen_port = 0);
  ~ChaosProxy();

  ChaosProxy(const ChaosProxy&) = delete;
  ChaosProxy& operator=(const ChaosProxy&) = delete;

  /// The port clients should connect to instead of the upstream's.
  [[nodiscard]] std::uint16_t port() const { return acceptor_.port(); }
  /// Connections accepted so far (proxied or refused by upstream connect).
  [[nodiscard]] std::uint64_t connections() const {
    return acceptor_.accepted();
  }

  /// Stop accepting, sever every live relay, join all threads.  Idempotent;
  /// the destructor calls it.
  void stop();

 private:
  void proxy_connection(int client_fd, std::uint64_t index);
  static void relay(int src_fd, int dst_fd, const net::ChaosConfig* chaos);

  std::string upstream_host_;
  std::uint16_t upstream_port_;
  net::ChaosConfig config_;
  std::mutex upstreams_mu_;
  bool stopping_{false};        // guarded by upstreams_mu_
  std::vector<int> upstreams_;  // live upstream fds, guarded by upstreams_mu_
  // Last: its connection threads use the members above.
  net::Acceptor acceptor_;
};

}  // namespace bbmg
