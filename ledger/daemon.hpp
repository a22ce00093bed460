// A bbmg_served child process for the ledger benchmark: fork/exec with
// stdout/stderr redirected to a log file, wait for the listen banner,
// read the daemon's resource use from /proc, stop it and reap it.
#pragma once

#include <fcntl.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace ledger {

/// Resource use of a live process, from /proc/<pid>/status and fd/.
struct ProcStatus {
  double hwm_mb{0.0};     ///< VmHWM, peak resident set
  double vmsize_mb{0.0};  ///< VmSize, virtual size
  std::size_t threads{0};
  std::size_t fds{0};
};

inline ProcStatus read_proc_status(pid_t pid) {
  ProcStatus s;
  const std::string base = "/proc/" + std::to_string(pid);
  std::ifstream in(base + "/status");
  std::string line;
  auto kb = [](const std::string& l) {
    std::istringstream is(l.substr(l.find(':') + 1));
    double v = 0.0;
    is >> v;
    return v;
  };
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) s.hwm_mb = kb(line) / 1024.0;
    if (line.rfind("VmSize:", 0) == 0) s.vmsize_mb = kb(line) / 1024.0;
    if (line.rfind("Threads:", 0) == 0) {
      s.threads = static_cast<std::size_t>(kb(line));
    }
  }
  std::error_code ec;
  for (auto it = std::filesystem::directory_iterator(base + "/fd", ec);
       !ec && it != std::filesystem::directory_iterator(); it.increment(ec)) {
    ++s.fds;
  }
  return s;
}

class Daemon {
 public:
  /// Start `bin args...` with output appended to `log_path`, and block
  /// until it prints its listen banner (throws after 20 s or if the child
  /// exits first).
  Daemon(const std::string& bin, const std::vector<std::string>& args,
         const std::string& log_path)
      : log_path_(log_path) {
    std::vector<std::string> argv_store{bin};
    argv_store.insert(argv_store.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (std::string& a : argv_store) argv.push_back(a.data());
    argv.push_back(nullptr);
    const int log_fd =
        ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (log_fd < 0) throw std::runtime_error("daemon: cannot open " + log_path);
    pid_ = ::fork();
    if (pid_ < 0) {
      ::close(log_fd);
      throw std::runtime_error("daemon: fork failed");
    }
    if (pid_ == 0) {
      ::dup2(log_fd, STDOUT_FILENO);
      ::dup2(log_fd, STDERR_FILENO);
      ::execv(bin.c_str(), argv.data());
      ::_exit(127);
    }
    ::close(log_fd);
    wait_for_banner();
  }

  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] ProcStatus status() const { return read_proc_status(pid_); }

  /// SIGTERM (graceful drain), escalate to SIGKILL after 10 s, reap.
  /// Returns the exit status (-1 when already stopped or killed).
  int stop() {
    if (pid_ <= 0) return -1;
    ::kill(pid_, SIGTERM);
    int status = 0;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (std::chrono::steady_clock::now() > deadline) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        pid_ = -1;
        return -1;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

 private:
  void wait_for_banner() {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    const std::string marker = "listening on 127.0.0.1:";
    for (;;) {
      std::ifstream in(log_path_);
      std::string line;
      while (std::getline(in, line)) {
        const auto at = line.find(marker);
        if (at != std::string::npos) {
          port_ = static_cast<std::uint16_t>(
              std::stoul(line.substr(at + marker.size())));
          return;
        }
      }
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("daemon exited before listening; see " +
                                 log_path_);
      }
      if (std::chrono::steady_clock::now() > deadline) {
        stop();
        throw std::runtime_error("daemon did not listen within 20 s");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  std::string log_path_;
  pid_t pid_{-1};
  std::uint16_t port_{0};
};

}  // namespace ledger
