// The SLO engine: objectives evaluated as multi-window error-budget burn
// rates over the time-series store (the SRE-workbook alerting scheme).
//
// For each objective the engine computes, over a fast (default 60 s) and a
// slow (default 300 s) window, the fraction of bad events among total
// events — windowed *deltas* of monotone counters summed across every
// endpoint that reports them — and divides by the budget (1 - target):
//
//   burn = bad_fraction / (1 - target)
//
// burn == 1 means the error budget is being spent exactly at the rate that
// exhausts it at the SLO period's end; Page fires only when BOTH windows
// burn >= page_burn (sustained incident, not a blip), Warn when both are
// >= warn_burn.  A window with fewer than two samples, or zero traffic,
// burns 0 — silence is not an SLO violation (endpoint death is the
// scraper's freshness state instead).
//
// Three objective kinds:
//   * LatencyP: over histogram `metric`, bad = count - (observations <=
//     threshold_us), total = count — "target fraction of requests faster
//     than threshold".
//   * ErrorRatio: bad = counter `metric`, good = counter `total_metric`
//     (a success counter), total = good + bad.
//   * GaugeAbove: level-triggered on gauge `metric` — any endpoint whose
//     gauge sat above threshold_us for the WHOLE window (2+ samples)
//     burns at page rate; one merely above it at the latest sample burns
//     at warn rate.  The multi-window AND then reads "above right now
//     AND above for the whole slow window" for a Page — a stalled
//     replication stream pages only once it is clearly stuck, and the
//     alert clears itself the moment a pushed map heals the stream and
//     the gauge drops back.  bad/total report endpoints above-now /
//     endpoints reporting.
//
// State transitions are edge-logged through obs::log as
// "monitor.slo_transition" and counted in MonitorMetrics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "monitor/ts_store.hpp"

namespace bbmg::monitor {

enum class SloKind : std::uint8_t {
  LatencyP = 0,
  ErrorRatio = 1,
  GaugeAbove = 2,
};

enum class AlertState : std::uint8_t { Ok = 0, Warn = 1, Page = 2 };

[[nodiscard]] const char* alert_state_name(AlertState state);

struct SloObjective {
  std::string name;
  SloKind kind{SloKind::LatencyP};
  /// LatencyP: histogram base name.  ErrorRatio: the bad-event counter.
  /// GaugeAbove: the gauge to watch.
  std::string metric;
  /// ErrorRatio only: the success-event counter (total = it + `metric`).
  std::string total_metric;
  /// LatencyP: "good" means <= this many microseconds (snapped to the
  /// smallest histogram bucket bound >= threshold at evaluation time).
  /// GaugeAbove: the gauge level above which the objective burns.
  std::uint64_t threshold_us{0};
  /// Fraction of events that must be good (0.99 = "99% under threshold").
  double target{0.99};
  std::uint64_t fast_window_ms{60'000};
  std::uint64_t slow_window_ms{300'000};
  double page_burn{8.0};
  double warn_burn{2.0};
};

struct ObjectiveStatus {
  std::string name;
  AlertState state{AlertState::Ok};
  double fast_burn{0.0};
  double slow_burn{0.0};
  /// Human-readable evaluation detail for the dashboard / wire frame.
  std::string detail;
};

class SloEngine {
 public:
  SloEngine(const TsStore& store, std::vector<SloObjective> objectives);

  /// Evaluate every objective at `now_ms`; logs and counts transitions.
  [[nodiscard]] std::vector<ObjectiveStatus> evaluate(std::uint64_t now_ms);

  [[nodiscard]] const std::vector<SloObjective>& objectives() const {
    return objectives_;
  }

 private:
  struct WindowBurn {
    double burn{0.0};
    std::uint64_t bad{0};
    std::uint64_t total{0};
  };

  [[nodiscard]] WindowBurn window_burn(const SloObjective& objective,
                                       std::uint64_t window_ms,
                                       std::uint64_t now_ms) const;
  /// Summed windowed delta of a monotone counter series across endpoints.
  [[nodiscard]] std::uint64_t window_delta(const std::string& metric,
                                           std::uint64_t window_ms,
                                           std::uint64_t now_ms) const;
  /// The bucket series for "observations <= threshold" (smallest bound >=
  /// threshold, or the +Inf bucket when the threshold exceeds every bound).
  [[nodiscard]] std::string good_bucket_series(
      const SloObjective& objective) const;

  const TsStore& store_;
  std::vector<SloObjective> objectives_;
  std::vector<AlertState> states_;  // parallel to objectives_
};

/// The stock objectives the CLI installs when none are configured:
///   * ingest-latency:      99% of enqueue->apply under ~16 ms;
///   * client-rtt:          95% of client-observed request RTTs under ~65 ms;
///   * client-errors:       99.9% of client request attempts succeed;
///   * replication-stalled: no shard's bbmg_cluster_replication_stalled
///     gauge sits above zero (pages when sustained across both windows —
///     the controller's cue that a ship stream is stuck);
///   * accept-errors:       failed accept() calls stay under 0.1% of the
///     connections served daemons accept.
[[nodiscard]] std::vector<SloObjective> default_objectives();

}  // namespace bbmg::monitor
