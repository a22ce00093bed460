// The monitor's own metrics, registered in its process-local registry —
// the watcher is watchable: bbmg_monitor answers MetricsRequest with
// these, so a second monitor (or curl + the exposition text) can scrape
// the scraper.  Same resolve-once idiom as serve_metrics.hpp.
#pragma once

#include "obs/metrics.hpp"

namespace bbmg::monitor {

struct MonitorMetrics {
  /// Scrape attempts across all targets.
  obs::Counter& scrapes;
  /// Scrape attempts that failed (connect refused, timeout, bad frame).
  obs::Counter& scrape_failures;
  /// Samples appended to the time-series store.
  obs::Counter& samples_appended;
  /// SLO evaluation passes.
  obs::Counter& evaluations;
  /// Alert state changes across all objectives (Ok->Warn, Warn->Page, ...).
  obs::Counter& slo_transitions;
  /// Wall time of one full tick: scrape every target + store + evaluate.
  obs::Histogram& tick_latency_us;
  /// Listener connections currently open (accepted and not yet ended).
  obs::Gauge& open_connections;

  static MonitorMetrics& get() {
    static MonitorMetrics m = make();
    return m;
  }

 private:
  static MonitorMetrics make() {
    auto& r = obs::MetricsRegistry::instance();
    return MonitorMetrics{
        r.counter("bbmg_monitor_scrapes_total",
                  "Scrape attempts across all configured targets"),
        r.counter("bbmg_monitor_scrape_failures_total",
                  "Scrape attempts that failed"),
        r.counter("bbmg_monitor_samples_appended_total",
                  "Samples appended to the time-series store"),
        r.counter("bbmg_monitor_evaluations_total", "SLO evaluation passes"),
        r.counter("bbmg_monitor_slo_transitions_total",
                  "Alert state changes across all objectives"),
        r.histogram("bbmg_monitor_tick_latency_us",
                    obs::default_latency_buckets_us(),
                    "Wall time of one scrape+store+evaluate tick"),
        r.gauge("bbmg_monitor_open_connections",
                "Listener connections currently open"),
    };
  }
};

}  // namespace bbmg::monitor
