#include "trace/stats.hpp"

#include <algorithm>

#include "common/table.hpp"
#include "common/text.hpp"

namespace bbmg {

TraceStats compute_stats(const Trace& trace) {
  TraceStats stats;
  const std::size_t n = trace.num_tasks();
  stats.per_task.resize(n);
  for (std::size_t i = 0; i < n; ++i) stats.per_task[i].task = TaskId{i};

  for (const auto& period : trace.periods()) {
    PeriodStats ps;
    ps.messages = period.messages().size();
    ps.executions = period.executions().size();

    TimeNs first = ~TimeNs{0};
    TimeNs last = 0;
    for (const auto& e : period.executions()) {
      first = std::min(first, e.start);
      last = std::max(last, e.end);
      TaskStats& ts = stats.per_task[e.task.index()];
      const TimeNs dur = e.end - e.start;
      if (ts.executions == 0) {
        ts.min_exec_time = dur;
        ts.max_exec_time = dur;
      } else {
        ts.min_exec_time = std::min(ts.min_exec_time, dur);
        ts.max_exec_time = std::max(ts.max_exec_time, dur);
      }
      ++ts.executions;
      ts.total_exec_time += dur;
    }
    for (const auto& m : period.messages()) {
      first = std::min(first, m.rise);
      last = std::max(last, m.fall);
      ps.bus_busy_time += m.fall - m.rise;
    }
    ps.makespan = (last >= first) ? last - first : 0;
    stats.max_makespan = std::max(stats.max_makespan, ps.makespan);
    stats.total_messages += ps.messages;
    stats.per_period.push_back(ps);
  }

  const std::size_t periods = trace.num_periods();
  if (periods > 0) {
    stats.mean_messages_per_period =
        static_cast<double>(stats.total_messages) / periods;
    double util_sum = 0.0;
    for (const auto& ps : stats.per_period) {
      if (ps.makespan > 0) {
        util_sum += static_cast<double>(ps.bus_busy_time) /
                    static_cast<double>(ps.makespan);
      }
    }
    stats.mean_bus_utilization = util_sum / periods;
  }
  for (auto& ts : stats.per_task) {
    ts.activation_rate =
        periods == 0 ? 0.0 : static_cast<double>(ts.executions) / periods;
  }
  return stats;
}

std::string stats_to_string(const TraceStats& stats,
                            const std::vector<std::string>& names) {
  TextTable table({"Task", "Runs", "Rate", "Exec mean (us)", "Exec max (us)"});
  for (const auto& ts : stats.per_task) {
    const std::string name = ts.task.index() < names.size()
                                 ? names[ts.task.index()]
                                 : "t" + std::to_string(ts.task.index());
    table.add_row({name, std::to_string(ts.executions),
                   format_double(ts.activation_rate, 2),
                   std::to_string(ts.mean_exec_time() / kTimeNsPerUs),
                   std::to_string(ts.max_exec_time / kTimeNsPerUs)});
  }
  std::string out = table.to_string();
  out += "periods: " + std::to_string(stats.per_period.size()) +
         ", messages: " + std::to_string(stats.total_messages) +
         " (mean " + format_double(stats.mean_messages_per_period, 1) +
         "/period), max makespan: " +
         std::to_string(stats.max_makespan / kTimeNsPerUs) +
         " us, mean bus utilization: " +
         format_double(100.0 * stats.mean_bus_utilization, 1) + "%\n";
  return out;
}

}  // namespace bbmg
