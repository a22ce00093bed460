// Process self-metrics from /proc/self, refreshed on scrape (DESIGN.md
// "Performance observability").
//
// The monitor's SLO engine watches memory growth during learning through
// the normal Prometheus exposition, so these land in the process-wide
// MetricsRegistry as:
//   bbmg_process_rss_bytes        gauge   resident set (statm * page size)
//   bbmg_process_vm_bytes         gauge   virtual size
//   bbmg_process_open_fds         gauge   entries in /proc/self/fd
//   bbmg_process_cpu_millis_total counter user+system CPU time
// (CPU is exported in milliseconds so the counter stays integral; the
// conventional *_cpu_seconds_total reading is value / 1000.)
//
// Values are point-in-time, so they are refreshed lazily: every daemon
// answers a MetricsRequest with scrape_snapshot(), which refreshes them
// right before taking the snapshot.  Off Linux, read_process_self_stats()
// reports ok == false and the gauges stay zero.
#pragma once

#include <cstdint>

#include "obs/metrics.hpp"

namespace bbmg::obs {

struct ProcessSelfStats {
  bool ok{false};
  std::uint64_t rss_bytes{0};
  std::uint64_t vm_bytes{0};
  std::uint64_t open_fds{0};
  std::uint64_t cpu_millis{0};  ///< user + system, since process start
};

/// One pass over /proc/self/{statm,stat,fd}; ok == false when any piece is
/// unreadable (non-Linux, restricted /proc).
[[nodiscard]] ProcessSelfStats read_process_self_stats();

/// Read /proc/self and publish into MetricsRegistry::instance().  Gauges
/// are set to the current values; the CPU counter advances by the delta
/// since the previous refresh.  Thread-safe (scrape-rate mutex).
void refresh_process_metrics();

/// The process's scrape: refresh_process_metrics(), then a snapshot of
/// MetricsRegistry::instance().  Every daemon's MetricsRequest handler
/// replies with this, so each scrape carries the process gauges.
[[nodiscard]] MetricsSnapshot scrape_snapshot();

}  // namespace bbmg::obs
