// Real daemons under connection churn: a spawned bbmg_monitor and a
// spawned bbmg_served each answer 200 sequential one-connection queries,
// and /proc/<pid> must show their threads, fds and virtual size back at
// baseline.  SIGTERM must stop the monitor while an idle client holds a
// connection open.
#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "serve/client.hpp"
#include "serve/net.hpp"
#include "support/proc_stats.hpp"

#ifndef BBMG_SERVED_BIN
#error "BBMG_SERVED_BIN must point at the bbmg_served executable"
#endif
#ifndef BBMG_MONITOR_BIN
#error "BBMG_MONITOR_BIN must point at the bbmg_monitor executable"
#endif

namespace bbmg {
namespace {

/// A daemon child; its port comes from the "listening on 127.0.0.1:<n>"
/// banner both daemons print on stdout.
class Daemon {
 public:
  explicit Daemon(std::vector<std::string> args) {
    int pipe_fds[2];
    if (::pipe(pipe_fds) != 0) raise("test: pipe failed");
    pid_ = ::fork();
    if (pid_ < 0) raise("test: fork failed");
    if (pid_ == 0) {
      ::dup2(pipe_fds[1], STDOUT_FILENO);
      ::close(pipe_fds[0]);
      ::close(pipe_fds[1]);
      std::vector<char*> argv;
      for (std::string& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    ::close(pipe_fds[1]);
    out_fd_ = pipe_fds[0];
    const std::string needle = "listening on 127.0.0.1:";
    std::string banner;
    char buf[512];
    while (banner.find(needle) == std::string::npos) {
      const ssize_t n = ::read(out_fd_, buf, sizeof buf);
      if (n <= 0) raise("test: daemon exited before listening: " + banner);
      banner.append(buf, static_cast<std::size_t>(n));
    }
    port_ = static_cast<std::uint16_t>(std::strtoul(
        banner.c_str() + banner.find(needle) + needle.size(), nullptr, 10));
  }

  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    if (out_fd_ >= 0) ::close(out_fd_);
  }

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] std::string proc() const {
    return "/proc/" + std::to_string(pid_);
  }

  /// SIGTERM, then wait up to `deadline`; true iff the daemon exited in
  /// time (the destructor SIGKILLs a straggler).
  bool terminates_within(std::chrono::milliseconds deadline) {
    ::kill(pid_, SIGTERM);
    const auto until = std::chrono::steady_clock::now() + deadline;
    while (std::chrono::steady_clock::now() < until) {
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return WIFEXITED(status);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return false;
  }

 private:
  pid_t pid_{-1};
  int out_fd_{-1};
  std::uint16_t port_{0};
};

/// 200 sequential one-connection `query` calls leave the daemon's
/// threads, fds and VmSize where they started.
void expect_flat_footprint(const Daemon& daemon,
                           const std::function<void(ServeClient&)>& query) {
  test::expect_flat_footprint(daemon.proc(), 200, [&] {
    ServeClient client;
    client.set_request_timeout_ms(5000);
    client.connect("127.0.0.1", daemon.port());
    query(client);
    client.disconnect();
  });
}

TEST(DaemonChurn, MonitorKeepsItsFootprintAcrossQueries) {
  Daemon monitor({BBMG_MONITOR_BIN, "--port", "0", "--interval", "1000"});
  expect_flat_footprint(monitor,
                        [](ServeClient& c) { (void)c.fetch_health(); });
}

TEST(DaemonChurn, ServedKeepsItsFootprintAcrossQueries) {
  Daemon served({BBMG_SERVED_BIN, "0", "1"});
  expect_flat_footprint(served,
                        [](ServeClient& c) { (void)c.fetch_metrics(); });
}

TEST(DaemonChurn, MonitorStopsOnSigtermWithAnIdleClient) {
  Daemon monitor({BBMG_MONITOR_BIN, "--port", "0", "--interval", "1000"});
  ServeClient idle;
  idle.set_request_timeout_ms(5000);
  idle.connect("127.0.0.1", monitor.port());  // Hello, then nothing
  EXPECT_TRUE(monitor.terminates_within(std::chrono::seconds(5)))
      << "bbmg_monitor kept running while a client held a connection";
  idle.disconnect();
}

}  // namespace
}  // namespace bbmg
