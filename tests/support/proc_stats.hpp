// /proc readers for the lifecycle tests: a process's open fds, live
// threads and virtual size, so a test can require that a listener gives
// back what each connection took.  `proc` is "/proc/self" for this
// process or "/proc/<pid>" for a spawned daemon.
#pragma once

#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <thread>

namespace bbmg::test {

/// Entries of a /proc directory: open fds (".../fd") or threads
/// (".../task").
inline std::size_t proc_count(const std::string& dir) {
  std::size_t n = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    (void)entry;
    ++n;
  }
  return n;
}

/// VmSize in kB from <proc>/status; 0 if the line is missing.
inline std::size_t proc_vm_size_kb(const std::string& proc) {
  std::ifstream status(proc + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmSize:", 0) == 0) {
      return std::strtoull(line.c_str() + 7, nullptr, 10);
    }
  }
  return 0;
}

struct ProcFootprint {
  std::size_t fds{0};
  std::size_t threads{0};
  std::size_t vm_kb{0};
};

inline ProcFootprint proc_footprint(const std::string& proc) {
  return {proc_count(proc + "/fd"), proc_count(proc + "/task"),
          proc_vm_size_kb(proc)};
}

/// Polls until <proc> holds at most `fds` fds and `threads` threads:
/// an ended connection's thread exits a moment after its peer sees EOF.
/// False if that takes more than ~5 s.
inline bool settles_to(const std::string& proc, std::size_t fds,
                       std::size_t threads) {
  for (int i = 0; i < 5000; ++i) {
    const ProcFootprint now = proc_footprint(proc);
    if (now.fds <= fds && now.threads <= threads) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

/// The footprint once fds and threads hold still for 50 ms (threads of
/// connections that just ended exit asynchronously); a baseline.
inline ProcFootprint settled_footprint(const std::string& proc) {
  ProcFootprint last = proc_footprint(proc);
  for (int i = 0; i < 100; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const ProcFootprint now = proc_footprint(proc);
    if (now.fds == last.fds && now.threads == last.threads) return now;
    last = now;
  }
  return last;
}

/// Growth of VmSize a listener may show over a run of sequential
/// connections: allocator and stack caches, not one stack per connection
/// (a leaked connection thread keeps ~8 MB of stack mapped).
inline constexpr std::size_t kVmSlackKb = 32 * 1024;

/// Runs `cycle` (one connection's worth of traffic) `cycles` times after
/// a short warm-up.  <proc>'s fds and threads must come back to the
/// settled baseline after every cycle, and its VmSize stay within
/// kVmSlackKb of the baseline at the end.  Waiting out each cycle's
/// threads keeps two connections from overlapping, so a malloc arena for
/// a second live connection does not count as growth.
inline void expect_flat_footprint(const std::string& proc, int cycles,
                                  const std::function<void()>& cycle) {
  for (int i = 0; i < 5; ++i) cycle();  // lazily created state joins
  const ProcFootprint base = settled_footprint(proc);
  for (int i = 0; i < cycles; ++i) {
    cycle();
    if (!settles_to(proc, base.fds, base.threads)) {
      const ProcFootprint now = proc_footprint(proc);
      ADD_FAILURE() << "cycle " << i << ": fds " << now.fds << " (baseline "
                    << base.fds << "), threads " << now.threads
                    << " (baseline " << base.threads << ")";
      break;
    }
  }
  const std::size_t vm_kb = proc_vm_size_kb(proc);
  EXPECT_LE(vm_kb, base.vm_kb + kVmSlackKb)
      << "VmSize " << base.vm_kb << " kB -> " << vm_kb << " kB";
}

}  // namespace bbmg::test
