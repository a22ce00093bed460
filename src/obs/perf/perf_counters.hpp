// Hardware performance counters, wrapped for the profiling surfaces
// (DESIGN.md "Performance observability").
//
// A PerfCounterGroup opens one perf_event_open(2) group per thread counting
// cycles, instructions, cache-misses and branch-misses in user mode.  The
// group leader carries PERF_FORMAT_GROUP, so read() is a single read(2)
// returning every counter atomically — the only per-sample cost, paid at
// phase boundaries of sampled learner periods, never per event.
//
// Fallback is a first-class state, not an error: CI containers, VMs without
// a PMU, and kernels with perf_event_paranoid >= 2 all refuse the syscall
// (EACCES/EPERM/ENOENT/ENOSYS).  The group then reports supported() ==
// false, read() returns all-zero samples, and its consumer (the
// PhaseProfiler's hw dimension) degrades to wall-clock-only — the exact
// behaviour the perf-fallback tests pin down.  Individual sibling
// events may also be missing (e.g. no cache-miss event in a VM): the group
// stays supported and just reports zero for the absent counter.
//
// Counters are per-thread (no inherit): attach via this_thread(), which
// lazily opens a thread-local group and publishes the process-wide
// bbmg_perf_hw_supported gauge on first use.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

namespace bbmg::obs {

/// Events in a group, in fixed slot order.
enum class PerfEvent : std::uint8_t {
  Cycles = 0,
  Instructions = 1,
  CacheMisses = 2,
  BranchMisses = 3,
};
inline constexpr std::size_t kNumPerfEvents = 4;

/// One atomic read of a group: raw monotone counter values (zero for
/// events that are unsupported or not yet opened).
struct PerfSample {
  std::uint64_t value[kNumPerfEvents]{0, 0, 0, 0};

  [[nodiscard]] std::uint64_t cycles() const { return value[0]; }
  [[nodiscard]] std::uint64_t instructions() const { return value[1]; }
  [[nodiscard]] std::uint64_t cache_misses() const { return value[2]; }
  [[nodiscard]] std::uint64_t branch_misses() const { return value[3]; }
};

/// Difference of two samples taken on the same group (end - begin,
/// saturating at zero so a counter reset can never produce garbage).
struct PerfDelta {
  std::uint64_t cycles{0};
  std::uint64_t instructions{0};
  std::uint64_t cache_misses{0};
  std::uint64_t branch_misses{0};

  [[nodiscard]] bool any() const {
    return (cycles | instructions | cache_misses | branch_misses) != 0;
  }
  /// Instructions per cycle (0 when cycles were not counted).
  [[nodiscard]] double ipc() const {
    return cycles == 0 ? 0.0
                       : static_cast<double>(instructions) /
                             static_cast<double>(cycles);
  }
  /// Cache misses per kilo-instruction (0 when instructions not counted).
  [[nodiscard]] double misses_per_kilo_instr() const {
    return instructions == 0 ? 0.0
                             : 1000.0 * static_cast<double>(cache_misses) /
                                   static_cast<double>(instructions);
  }
};

[[nodiscard]] PerfDelta perf_delta(const PerfSample& begin,
                                   const PerfSample& end);

class PerfCounterGroup {
 public:
  /// Syscall hook, injectable for the fallback tests: given the event and
  /// the group leader's fd (-1 when opening the leader itself), return a
  /// file descriptor or -errno.  The default opener calls
  /// perf_event_open(2) (and always fails with -ENOSYS off Linux).
  using Opener = std::function<int(PerfEvent, int group_fd)>;

  /// Open with the real syscall.
  PerfCounterGroup();
  /// Open through `opener` (tests inject EACCES / ENOENT / partial PMUs).
  explicit PerfCounterGroup(const Opener& opener);
  ~PerfCounterGroup();

  PerfCounterGroup(const PerfCounterGroup&) = delete;
  PerfCounterGroup& operator=(const PerfCounterGroup&) = delete;

  /// True when the group leader (cycles) opened; individual siblings may
  /// still be absent and read as zero.
  [[nodiscard]] bool supported() const { return leader_fd_ >= 0; }
  /// Human-readable reason when !supported() ("" otherwise), e.g.
  /// "perf_event_open denied (EACCES) — check /proc/sys/kernel/perf_event_paranoid".
  [[nodiscard]] const std::string& unsupported_reason() const {
    return reason_;
  }
  /// Number of events that actually opened (0 when unsupported).
  [[nodiscard]] std::size_t num_open() const { return num_open_; }

  /// One read(2) of the whole group; all-zero when unsupported or when the
  /// read itself fails.
  [[nodiscard]] PerfSample read() const;

  /// The calling thread's lazily-opened group (counters are per-thread).
  /// First use publishes the bbmg_perf_hw_supported gauge.
  static PerfCounterGroup& this_thread();

 private:
  void open_all(const Opener& opener);

  int leader_fd_{-1};
  /// Group-buffer slot of each event, -1 when the event failed to open.
  int slot_[kNumPerfEvents]{-1, -1, -1, -1};
  int fds_[kNumPerfEvents]{-1, -1, -1, -1};
  std::size_t num_open_{0};
  std::string reason_;
};

}  // namespace bbmg::obs
