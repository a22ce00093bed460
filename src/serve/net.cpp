#include "serve/net.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <iterator>
#include <sstream>
#include <thread>

#include "common/error.hpp"
#include "obs/log.hpp"
#include "serve/serve_metrics.hpp"

// Linux spells the don't-raise-SIGPIPE flag MSG_NOSIGNAL on send();
// macOS/BSD instead set SO_NOSIGPIPE once per socket.  Normalize so the
// send path below compiles (and is safe) on both.
#ifndef MSG_NOSIGNAL
#define BBMG_MSG_NOSIGNAL 0
#else
#define BBMG_MSG_NOSIGNAL MSG_NOSIGNAL
#endif

namespace bbmg::net {

namespace {

/// Pause before retrying a failed accept(): long enough that a full fd
/// table does not spin the accept thread, short enough that service
/// resumes within milliseconds once descriptors are freed.
constexpr std::chrono::milliseconds kAcceptRetryBackoff{5};

/// False once the listener has been shut down or closed.  accept() can
/// report EMFILE before it notices a shut-down socket, so the retry path
/// asks the socket itself.
bool still_listening(int listen_fd) {
  int listening = 0;
  socklen_t len = sizeof(listening);
  return ::getsockopt(listen_fd, SOL_SOCKET, SO_ACCEPTCONN, &listening,
                      &len) == 0 &&
         listening != 0;
}

[[noreturn]] void raise_errno(const std::string& what) {
  std::ostringstream os;
  os << "net: " << what << ": " << std::strerror(errno);
  raise(os.str());
}

void set_nosigpipe(int fd) {
#ifdef SO_NOSIGPIPE
  const int one = 1;
  (void)::setsockopt(fd, SOL_SOCKET, SO_NOSIGPIPE, &one, sizeof(one));
#else
  (void)fd;
#endif
}

/// Accept one connection; nullopt when the listener was shut down or
/// closed.  Any other failure is counted, logged and retried.
std::optional<int> accept_connection(int listen_fd) {
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd >= 0) {
      const int one = 1;
      (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      set_nosigpipe(fd);
      return fd;
    }
    const int err = errno;
    if (err == EINTR) continue;
    // EBADF/EINVAL: the listener was closed or shut down — clean stop.
    if (err == EBADF || err == EINVAL) return std::nullopt;
    // Anything else (EMFILE, ENFILE, ENOBUFS, ENOMEM, ECONNABORTED, ...)
    // is a transient failure of this one accept, not of the listener:
    // count it, back off, and keep accepting.
    ServeMetrics::get().accept_errors.inc();
    BBMG_LOG_WARN("serve.accept_error", std::strerror(err),
                  {{"errno", err}, {"listen_fd", listen_fd}});
    std::this_thread::sleep_for(kAcceptRetryBackoff);
    if (!still_listening(listen_fd)) return std::nullopt;
  }
}

}  // namespace

void ignore_sigpipe() {
  // Process-wide and idempotent; SIG_IGN survives fork/exec of children
  // that reset handlers, which is all we need for the daemon.
  (void)std::signal(SIGPIPE, SIG_IGN);
}

void set_socket_timeout(int fd, std::uint32_t timeout_ms) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout_ms / 1000);
  tv.tv_usec = static_cast<suseconds_t>((timeout_ms % 1000) * 1000);
  if (::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0 ||
      ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv)) != 0) {
    raise_errno("setsockopt timeout");
  }
}

Listener listen_tcp(std::uint16_t port, int backlog) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) raise_errno("socket");
  const int one = 1;
  (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    raise_errno("bind");
  }
  if (::listen(fd, backlog) < 0) {
    ::close(fd);
    raise_errno("listen");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    ::close(fd);
    raise_errno("getsockname");
  }
  return Listener{fd, ntohs(addr.sin_port)};
}

Acceptor::~Acceptor() { stop(); }

void Acceptor::start(std::uint16_t port, int backlog, Handler handler,
                     obs::Gauge* open_connections) {
  BBMG_REQUIRE(listen_fd_ < 0, "net: acceptor already started");
  const Listener listener = listen_tcp(port, backlog);
  listen_fd_ = listener.fd;
  port_ = listener.port;
  handler_ = std::move(handler);
  open_connections_ = open_connections;
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void Acceptor::stop() {
  std::lock_guard<std::mutex> serial(stop_mu_);
  if (listen_fd_ < 0) return;
  // Unblock the accept loop and join it before closing the fd: the
  // accept thread reads listen_fd_ until it exits.
  shutdown_socket(listen_fd_);
  accept_thread_.join();
  close_socket(listen_fd_);
  listen_fd_ = -1;
  // The accept thread is joined, so no connection is added any more;
  // ended ones already closed their fd (shutdown skips -1).
  std::vector<std::unique_ptr<Connection>> live;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& conn : connections_) shutdown_socket(conn->fd);
    live.swap(connections_);
  }
  // Handlers return on the shutdown-induced EOF and their threads close
  // their own fd; join outside the lock they take to do so.
  for (auto& conn : live) conn->thread.join();
}

void Acceptor::reap_finished() {
  std::vector<std::unique_ptr<Connection>> ended;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto live = std::partition(
        connections_.begin(), connections_.end(),
        [](const std::unique_ptr<Connection>& c) { return c->fd >= 0; });
    std::move(live, connections_.end(), std::back_inserter(ended));
    connections_.erase(live, connections_.end());
  }
  for (auto& conn : ended) conn->thread.join();
}

void Acceptor::accept_loop() {
  for (;;) {
    reap_finished();
    const std::optional<int> fd = accept_connection(listen_fd_);
    if (!fd.has_value()) return;
    const std::uint64_t index =
        accepted_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mu_);
    auto conn = std::make_unique<Connection>();
    conn->fd = *fd;
    Connection* raw = conn.get();
    connections_.push_back(std::move(conn));
    if (open_connections_ != nullptr) open_connections_->add();
    // The thread's closing lock waits for this scope, so raw->thread is
    // assigned before any reaper can see the connection as ended.
    raw->thread = std::thread([this, raw, fd = *fd, index] {
      handler_(fd, index);
      std::lock_guard<std::mutex> closing(mu_);
      close_socket(fd);
      raw->fd = -1;
      if (open_connections_ != nullptr) open_connections_->sub();
    });
  }
}

int connect_tcp(const std::string& host, std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) raise_errno("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    raise("net: invalid IPv4 address: " + host);
  }
  for (;;) {
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      const int one = 1;
      (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      set_nosigpipe(fd);
      return fd;
    }
    if (errno == EINTR) continue;
    ::close(fd);
    raise_errno("connect to " + host);
  }
}

void close_socket(int fd) {
  if (fd >= 0) ::close(fd);
}

void shutdown_socket(int fd) {
  if (fd >= 0) (void)::shutdown(fd, SHUT_RDWR);
}

void write_all(int fd, const std::uint8_t* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, data + sent, size - sent, BBMG_MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        raise("net: send timed out (deadline exceeded)");
      }
      raise_errno("send");
    }
    sent += static_cast<std::size_t>(n);
  }
}

std::size_t FdTransport::read_some(std::uint8_t* data, std::size_t size) {
  for (;;) {
    const ssize_t n = ::recv(fd_, data, size, 0);
    if (n >= 0) return static_cast<std::size_t>(n);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      throw ReceiveTimeout{};
    }
    raise_errno("recv");
  }
}

void FdTransport::write(const std::uint8_t* data, std::size_t size) {
  write_all(fd_, data, size);
}

void write_frame(int fd, const Frame& frame) {
  FdTransport transport(fd);
  write_frame(transport, frame);
}

void write_frame(Transport& transport, const Frame& frame) {
  std::vector<std::uint8_t> bytes;
  bytes.reserve(5 + frame.payload.size());
  append_frame(bytes, frame);
  transport.write(bytes.data(), bytes.size());
}

std::optional<Frame> read_frame(int fd, FrameDecoder& decoder) {
  FdTransport transport(fd);
  return read_frame(transport, decoder);
}

std::optional<Frame> read_frame(Transport& transport, FrameDecoder& decoder) {
  if (auto frame = decoder.next()) return frame;
  std::uint8_t chunk[16 * 1024];
  for (;;) {
    const std::size_t n = transport.read_some(chunk, sizeof(chunk));
    if (n == 0) {
      if (decoder.buffered() != 0) {
        raise("net: connection closed mid-frame");
      }
      return std::nullopt;
    }
    decoder.feed(chunk, n);
    if (auto frame = decoder.next()) return frame;
  }
}

}  // namespace bbmg::net
