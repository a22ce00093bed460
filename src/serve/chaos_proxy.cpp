#include "serve/chaos_proxy.hpp"

#include <algorithm>
#include <exception>
#include <memory>
#include <thread>
#include <utility>

namespace bbmg {

ChaosProxy::ChaosProxy(std::string upstream_host, std::uint16_t upstream_port,
                       net::ChaosConfig config, std::uint16_t listen_port)
    : upstream_host_(std::move(upstream_host)),
      upstream_port_(upstream_port),
      config_(config) {
  net::ignore_sigpipe();
  acceptor_.start(listen_port, 16, [this](int fd, std::uint64_t index) {
    proxy_connection(fd, index);
  });
}

ChaosProxy::~ChaosProxy() { stop(); }

void ChaosProxy::proxy_connection(int client_fd, std::uint64_t index) {
  int upstream = -1;
  try {
    upstream = net::connect_tcp(upstream_host_, upstream_port_);
  } catch (const std::exception&) {
    // Upstream down: refuse the client the same way a dead server would
    // (the acceptor closes the client's fd).
    return;
  }
  {
    std::lock_guard<std::mutex> lock(upstreams_mu_);
    if (stopping_) {
      net::close_socket(upstream);
      return;
    }
    upstreams_.push_back(upstream);
  }
  // Each connection gets its own chaos RNG stream so concurrent pumps do
  // not share (and race on) one generator.
  net::ChaosConfig conn_config = config_;
  conn_config.seed = config_.seed + index;
  std::thread down([&] { relay(upstream, client_fd, &conn_config); });
  relay(client_fd, upstream, nullptr);
  // Either relay ending shuts down both sockets, so the other ends too.
  down.join();
  {
    // Deregister before closing, so stop() never shuts down a recycled fd.
    std::lock_guard<std::mutex> lock(upstreams_mu_);
    upstreams_.erase(
        std::find(upstreams_.begin(), upstreams_.end(), upstream));
  }
  net::close_socket(upstream);
}

void ChaosProxy::relay(int src_fd, int dst_fd, const net::ChaosConfig* chaos) {
  net::FdTransport in(src_fd);
  net::FdTransport raw_out(dst_fd);
  std::unique_ptr<net::ChaosTransport> chaos_out;
  net::Transport* out = &raw_out;
  if (chaos != nullptr) {
    chaos_out = std::make_unique<net::ChaosTransport>(raw_out, *chaos);
    out = chaos_out.get();
  }
  std::uint8_t buf[4096];
  try {
    for (;;) {
      const std::size_t n = in.read_some(buf, sizeof(buf));
      if (n == 0) break;
      out->write(buf, n);
    }
  } catch (const std::exception&) {
    // A chaos reset or a genuinely dead peer: fall through to sever both
    // halves, so the surviving side sees EOF instead of a silent stall.
  }
  net::shutdown_socket(src_fd);
  net::shutdown_socket(dst_fd);
}

void ChaosProxy::stop() {
  {
    std::lock_guard<std::mutex> lock(upstreams_mu_);
    stopping_ = true;
    for (const int fd : upstreams_) net::shutdown_socket(fd);
  }
  acceptor_.stop();
}

}  // namespace bbmg
