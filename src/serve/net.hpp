// Thin POSIX socket layer shared by the serve front-end and the client:
// enough to open/accept TCP connections and move whole protocol frames,
// with the classic raw-I/O hazards handled once, here:
//
//   * EINTR is retried on every syscall (connect/accept/send/recv);
//   * short writes are completed in a loop — callers always get
//     all-or-error semantics;
//   * SIGPIPE can never kill the process: sends pass MSG_NOSIGNAL where
//     the platform has it, SO_NOSIGPIPE is set where it doesn't (macOS),
//     and ignore_sigpipe() is available as a belt-and-braces process-wide
//     guard for platforms with neither;
//   * per-request deadlines via set_socket_timeout(); a timed-out
//     send/recv surfaces as bbmg::Error("net: ... timed out").
//
// I/O is routed through the Transport interface so tests can interpose a
// fault-injecting wrapper (chaos_transport.hpp) between the protocol
// logic and the socket without touching either.  Kept apart from
// protocol.hpp so the codec/framing logic stays testable without sockets.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "serve/protocol.hpp"

namespace bbmg::obs {
class Gauge;
}  // namespace bbmg::obs

namespace bbmg::net {

/// Typed expiry of a receive deadline (SO_RCVTIMEO): the peer sent
/// nothing for the whole window.  Callers that armed the deadline as an
/// *idle* policy (server connection threads, --idle-timeout) catch this
/// to close quietly; every other read failure stays a generic Error.
class ReceiveTimeout : public Error {
 public:
  ReceiveTimeout() : Error("net: recv timed out (deadline exceeded)") {}
};

/// Listening TCP socket bound to 127.0.0.1:<port> (port 0 = ephemeral).
struct Listener {
  int fd{-1};
  std::uint16_t port{0};
};

[[nodiscard]] Listener listen_tcp(std::uint16_t port, int backlog);

/// The one accept loop of every listening daemon (Server, Monitor,
/// ChaosProxy): a listener, its accept thread, and one thread per live
/// connection running the owner's handler.
///
/// A connection's thread closes its own fd, under the connection lock,
/// when its handler returns, so an ended connection holds no descriptor
/// and stop() never shuts down a recycled fd number.  The accept thread
/// joins ended threads before each accept, so fds, threads and stacks
/// scale with live connections, not with how many the listener served.
/// A failed accept() (fd exhaustion, an aborted handshake) is counted in
/// bbmg_serve_accept_errors_total, logged, and retried after a short
/// back-off, so the accept loop never dies silently.
class Acceptor {
 public:
  /// Serves one connection on its own thread; `accept_index` numbers
  /// connections from 0 in accept order.  Must not throw and must not
  /// close `fd`: the acceptor closes it when the handler returns.
  using Handler = std::function<void(int fd, std::uint64_t accept_index)>;

  Acceptor() = default;
  ~Acceptor();

  Acceptor(const Acceptor&) = delete;
  Acceptor& operator=(const Acceptor&) = delete;

  /// Bind 127.0.0.1:<port> (0 = ephemeral), listen, and start accepting.
  /// `open_connections`, when given, counts live connections.  Throws
  /// bbmg::Error on bind failure or when already started.
  void start(std::uint16_t port, int backlog, Handler handler,
             obs::Gauge* open_connections = nullptr);

  /// The bound port (after start()).
  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] bool started() const { return listen_fd_ >= 0; }
  /// Connections accepted so far.
  [[nodiscard]] std::uint64_t accepted() const {
    return accepted_.load(std::memory_order_relaxed);
  }

  /// Stop accepting, shut down every live connection's socket, and join
  /// every thread; returns once no handler runs.  Idempotent and safe to
  /// call from several threads; also run by the destructor.
  void stop();

 private:
  struct Connection {
    /// -1 once the connection's thread has closed it (under mu_).
    int fd{-1};
    std::thread thread;
  };

  void accept_loop();
  /// Join and drop every connection whose thread has ended.
  void reap_finished();

  Handler handler_;
  obs::Gauge* open_connections_{nullptr};
  int listen_fd_{-1};
  std::uint16_t port_{0};
  std::atomic<std::uint64_t> accepted_{0};
  std::thread accept_thread_;
  /// Serializes stop() callers.
  std::mutex stop_mu_;
  std::mutex mu_;
  std::vector<std::unique_ptr<Connection>> connections_;  // guarded by mu_
};

[[nodiscard]] int connect_tcp(const std::string& host, std::uint16_t port);

/// Half-close + close, tolerating already-closed fds.
void close_socket(int fd);
/// Unblock a peer's pending reads without closing our fd yet.
void shutdown_socket(int fd);

/// Ignore SIGPIPE process-wide (idempotent).  MSG_NOSIGNAL/SO_NOSIGPIPE
/// already cover socket sends on Linux/BSD; this guards any remaining
/// write-to-dead-peer path and platforms with neither flag.
void ignore_sigpipe();

/// Arm send/receive deadlines on a connected socket (SO_SNDTIMEO /
/// SO_RCVTIMEO).  0 = blocking forever (the default).  After this, a
/// stalled peer turns into bbmg::Error instead of a hang — the client's
/// per-request deadline mechanism.
void set_socket_timeout(int fd, std::uint32_t timeout_ms);

// -- transport abstraction -------------------------------------------------

/// Byte-stream endpoint the framing logic reads/writes through.  The
/// production implementation is FdTransport over a TCP socket; chaos tests
/// interpose ChaosTransport to inject resets, delays, partial writes and
/// truncations between the protocol and the wire.
class Transport {
 public:
  virtual ~Transport() = default;
  /// Read up to `size` bytes; returns 0 on clean EOF.  Throws bbmg::Error
  /// on read errors or a timed-out receive deadline.
  [[nodiscard]] virtual std::size_t read_some(std::uint8_t* data,
                                              std::size_t size) = 0;
  /// Write the whole buffer (all-or-error).  Throws bbmg::Error on broken
  /// connections or a timed-out send deadline.
  virtual void write(const std::uint8_t* data, std::size_t size) = 0;
};

/// Transport over a connected socket fd.  Non-owning: the fd's lifetime
/// belongs to whoever accepted/connected it.
class FdTransport final : public Transport {
 public:
  explicit FdTransport(int fd) : fd_(fd) {}
  [[nodiscard]] std::size_t read_some(std::uint8_t* data,
                                      std::size_t size) override;
  void write(const std::uint8_t* data, std::size_t size) override;
  [[nodiscard]] int fd() const { return fd_; }

 private:
  int fd_;
};

// -- frame I/O -------------------------------------------------------------

/// Write the whole buffer; throws bbmg::Error on a broken connection.
void write_all(int fd, const std::uint8_t* data, std::size_t size);
void write_frame(int fd, const Frame& frame);
void write_frame(Transport& transport, const Frame& frame);

/// Read one frame via the decoder, pulling more bytes from the transport
/// as needed.  nullopt on clean EOF at a frame boundary; throws
/// bbmg::Error on mid-frame EOF, read errors, or malformed framing.
[[nodiscard]] std::optional<Frame> read_frame(int fd, FrameDecoder& decoder);
[[nodiscard]] std::optional<Frame> read_frame(Transport& transport,
                                              FrameDecoder& decoder);

}  // namespace bbmg::net
