// Descriptive statistics of a trace — what an integrator inspects before
// trusting a learning run: per-task execution counts and times, bus load,
// period makespans, message ambiguity.  Rendered as a table by the
// trace_tool and used by tests to characterize generated workloads.
#pragma once

#include <string>
#include <vector>

#include "trace/event.hpp"
#include "trace/trace.hpp"

namespace bbmg {

struct TaskStats {
  TaskId task{};
  std::size_t executions{0};        // periods in which it ran
  TimeNs total_exec_time{0};        // sum of (end - start)
  TimeNs min_exec_time{0};
  TimeNs max_exec_time{0};
  [[nodiscard]] TimeNs mean_exec_time() const {
    return executions == 0 ? 0 : total_exec_time / executions;
  }
  /// Fraction of periods in which the task executed.
  double activation_rate{0.0};
};

struct PeriodStats {
  std::size_t messages{0};
  std::size_t executions{0};
  TimeNs makespan{0};       // last event - first event
  TimeNs bus_busy_time{0};  // sum of message transmission times
};

struct TraceStats {
  std::vector<TaskStats> per_task;
  std::vector<PeriodStats> per_period;
  std::size_t total_messages{0};
  TimeNs max_makespan{0};
  double mean_messages_per_period{0.0};
  /// Mean bus-busy fraction of the makespan across periods.
  double mean_bus_utilization{0.0};
};

[[nodiscard]] TraceStats compute_stats(const Trace& trace);

/// Multi-line human-readable rendering.
[[nodiscard]] std::string stats_to_string(const TraceStats& stats,
                                          const std::vector<std::string>& names);

}  // namespace bbmg
