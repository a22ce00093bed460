// bbmg_served's engine: a TCP front-end over the SessionManager.
//
// A net::Acceptor runs one thread per connection; each connection speaks
// the framed protocol (protocol.hpp), accumulates Events frames into the
// current period of each session it addresses, and hands complete periods
// to the manager at EndPeriod.  Submission blocks when the session's shard
// queue is full, so backpressure propagates to the producer through TCP
// itself and replays are lossless.  Queries (optionally draining first)
// are answered from the session's published snapshot and carry the dLUB
// matrix, health, quarantine accounting, and — when the query included a
// probe period — a conformance verdict.
//
// Threads-per-connection is deliberate at this stage: the protocol is
// period-granular and connections are few (stream producers + the odd
// query client); the scaling axis that matters, learner work, is already
// decoupled into the manager's worker pool.
#pragma once

#include <cstdint>
#include <memory>

#include "serve/cluster_hooks.hpp"
#include "serve/net.hpp"
#include "serve/session_manager.hpp"

namespace bbmg {

struct ServerConfig {
  /// 0 = ephemeral; the bound port is reported by port() after start().
  std::uint16_t port{0};
  int backlog{16};
  /// Close a connection whose peer sends nothing for this long (0 = keep
  /// idle connections forever).  An idle close is quiet — counted in
  /// bbmg_serve_connections_idle_closed_total, no ErrorReply — and the
  /// resilient client transparently reconnects on its next request.
  std::uint32_t idle_timeout_ms{0};
  ManagerConfig manager;
};

class Server {
 public:
  explicit Server(ServerConfig config = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind, listen, and spawn the accept loop; throws bbmg::Error on bind
  /// failure.
  void start();

  /// The actually bound port (after start()).
  [[nodiscard]] std::uint16_t port() const { return acceptor_.port(); }

  [[nodiscard]] SessionManager& manager() { return manager_; }

  /// Attach the cluster layer (routing, map serving, WAL shipping) before
  /// start().  Installs the hooks' ship tap on the manager; pass nullptr
  /// to detach (clears the tap).  The hooks must outlive the server's
  /// stop() — the owner typically stops the server, then the replicator.
  void set_cluster(std::shared_ptr<ClusterHooks> cluster);

  /// Stop accepting, unblock and join every connection, stop the manager.
  /// Idempotent; also run by the destructor.
  void stop();

 private:
  void serve_connection(int fd);

  ServerConfig config_;
  SessionManager manager_;
  /// Cluster seam (null = single-node mode); see serve/cluster_hooks.hpp.
  std::shared_ptr<ClusterHooks> cluster_;
  net::Acceptor acceptor_;
};

}  // namespace bbmg
