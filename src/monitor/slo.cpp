#include "monitor/slo.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "common/error.hpp"
#include "monitor/monitor_metrics.hpp"
#include "monitor/scraper.hpp"
#include "obs/log.hpp"

namespace bbmg::monitor {

namespace {

std::string format_burn(double burn) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", burn);
  return buf;
}

}  // namespace

const char* alert_state_name(AlertState state) {
  switch (state) {
    case AlertState::Ok:
      return "ok";
    case AlertState::Warn:
      return "warn";
    case AlertState::Page:
      return "page";
  }
  return "?";
}

SloEngine::SloEngine(const TsStore& store,
                     std::vector<SloObjective> objectives)
    : store_(store), objectives_(std::move(objectives)) {
  for (const SloObjective& objective : objectives_) {
    BBMG_REQUIRE(!objective.name.empty() && !objective.metric.empty(),
                 "slo: objective needs a name and a metric");
    BBMG_REQUIRE(objective.target > 0.0 && objective.target < 1.0,
                 "slo: target must be in (0, 1) for " + objective.name);
    BBMG_REQUIRE(objective.kind != SloKind::ErrorRatio ||
                     !objective.total_metric.empty(),
                 "slo: error-ratio objective needs total_metric for " +
                     objective.name);
  }
  states_.assign(objectives_.size(), AlertState::Ok);
}

std::uint64_t SloEngine::window_delta(const std::string& metric,
                                      std::uint64_t window_ms,
                                      std::uint64_t now_ms) const {
  const std::uint64_t since = now_ms >= window_ms ? now_ms - window_ms : 0;
  std::uint64_t total = 0;
  for (const std::string& endpoint : store_.endpoints_with(metric)) {
    const std::vector<TsSample> samples =
        store_.samples_since(endpoint, metric, since);
    if (samples.size() < 2) continue;
    const std::int64_t delta = samples.back().value - samples.front().value;
    // A restarted endpoint resets its counters; a negative delta is that
    // restart, not negative traffic.
    if (delta > 0) total += static_cast<std::uint64_t>(delta);
  }
  return total;
}

std::string SloEngine::good_bucket_series(
    const SloObjective& objective) const {
  // The store only knows series names, not bucket layouts; recover the
  // bounds from the `<metric>_bucket_le_<bound>` family of any endpoint
  // that reports it and snap the threshold up to the nearest bound.
  const std::string prefix = objective.metric + "_bucket_le_";
  for (const std::string& endpoint :
       store_.endpoints_with(count_series(objective.metric))) {
    std::uint64_t best_bound = 0;
    bool found = false;
    for (const std::string& series :
         store_.metrics_with_prefix(endpoint, prefix)) {
      const std::string suffix = series.substr(prefix.size());
      if (suffix == "inf") continue;
      const std::uint64_t bound =
          std::strtoull(suffix.c_str(), nullptr, 10);
      if (bound >= objective.threshold_us &&
          (!found || bound < best_bound)) {
        best_bound = bound;
        found = true;
      }
    }
    return found ? bucket_series(objective.metric, best_bound)
                 : inf_bucket_series(objective.metric);
  }
  return inf_bucket_series(objective.metric);
}

SloEngine::WindowBurn SloEngine::window_burn(const SloObjective& objective,
                                             std::uint64_t window_ms,
                                             std::uint64_t now_ms) const {
  WindowBurn result;
  if (objective.kind == SloKind::GaugeAbove) {
    // Level-triggered, not a ratio: the gauge IS the condition.  An
    // endpoint above threshold for the whole window (2+ samples) burns at
    // page rate; one above it only at the latest sample burns at warn
    // rate.  Below threshold everywhere burns nothing — and the moment
    // the gauge drops back (a pushed map healed the stream), so does the
    // alert.
    const std::uint64_t since =
        now_ms >= window_ms ? now_ms - window_ms : 0;
    const auto threshold = static_cast<std::int64_t>(objective.threshold_us);
    for (const std::string& endpoint :
         store_.endpoints_with(objective.metric)) {
      const std::vector<TsSample> samples =
          store_.samples_since(endpoint, objective.metric, since);
      if (samples.empty()) continue;
      ++result.total;
      const bool above_now = samples.back().value > threshold;
      if (above_now) ++result.bad;
      bool sustained = samples.size() >= 2;
      for (const TsSample& sample : samples) {
        if (sample.value <= threshold) {
          sustained = false;
          break;
        }
      }
      if (sustained) {
        result.burn = std::max(result.burn, objective.page_burn);
      } else if (above_now) {
        result.burn = std::max(result.burn, objective.warn_burn);
      }
    }
    return result;
  }
  if (objective.kind == SloKind::LatencyP) {
    result.total = window_delta(count_series(objective.metric), window_ms,
                                now_ms);
    const std::uint64_t good =
        window_delta(good_bucket_series(objective), window_ms, now_ms);
    result.bad = result.total > good ? result.total - good : 0;
  } else {
    // total_metric counts *successes* (bbmg_client_requests_total only
    // moves on a completed request), so the event total is good + bad —
    // this keeps the ratio honest when every attempt fails.
    result.bad = window_delta(objective.metric, window_ms, now_ms);
    result.total =
        window_delta(objective.total_metric, window_ms, now_ms) + result.bad;
  }
  if (result.total == 0) return result;  // no traffic burns nothing
  const double bad_fraction = static_cast<double>(result.bad) /
                              static_cast<double>(result.total);
  result.burn = bad_fraction / (1.0 - objective.target);
  return result;
}

std::vector<ObjectiveStatus> SloEngine::evaluate(std::uint64_t now_ms) {
  MonitorMetrics::get().evaluations.inc();
  std::vector<ObjectiveStatus> out;
  out.reserve(objectives_.size());
  for (std::size_t i = 0; i < objectives_.size(); ++i) {
    const SloObjective& objective = objectives_[i];
    const WindowBurn fast =
        window_burn(objective, objective.fast_window_ms, now_ms);
    const WindowBurn slow =
        window_burn(objective, objective.slow_window_ms, now_ms);
    // Both windows must agree: the fast one makes paging responsive, the
    // slow one keeps a single bad scrape from waking anyone up.
    AlertState state = AlertState::Ok;
    if (fast.burn >= objective.page_burn &&
        slow.burn >= objective.page_burn) {
      state = AlertState::Page;
    } else if (fast.burn >= objective.warn_burn &&
               slow.burn >= objective.warn_burn) {
      state = AlertState::Warn;
    }
    ObjectiveStatus status;
    status.name = objective.name;
    status.state = state;
    status.fast_burn = fast.burn;
    status.slow_burn = slow.burn;
    status.detail = "fast " + format_burn(fast.burn) + "x / slow " +
                    format_burn(slow.burn) + "x of budget (bad " +
                    std::to_string(fast.bad) + "/" +
                    std::to_string(fast.total) + " in fast window)";
    if (state != states_[i]) {
      MonitorMetrics::get().slo_transitions.inc();
      if (state == AlertState::Ok) {
        BBMG_LOG_INFO("monitor.slo_transition", "objective recovered",
                      {{"objective", objective.name},
                       {"from", alert_state_name(states_[i])},
                       {"to", alert_state_name(state)},
                       {"detail", status.detail}});
      } else {
        BBMG_LOG_WARN("monitor.slo_transition", "objective degraded",
                      {{"objective", objective.name},
                       {"from", alert_state_name(states_[i])},
                       {"to", alert_state_name(state)},
                       {"detail", status.detail}});
      }
      states_[i] = state;
    }
    out.push_back(std::move(status));
  }
  return out;
}

std::vector<SloObjective> default_objectives() {
  std::vector<SloObjective> out;
  {
    SloObjective o;
    o.name = "ingest-latency";
    o.kind = SloKind::LatencyP;
    o.metric = "bbmg_serve_enqueue_apply_latency_us";
    o.threshold_us = 16384;
    o.target = 0.99;
    out.push_back(std::move(o));
  }
  {
    SloObjective o;
    o.name = "client-rtt";
    o.kind = SloKind::LatencyP;
    o.metric = "bbmg_client_request_rtt_us";
    o.threshold_us = 65536;
    o.target = 0.95;
    out.push_back(std::move(o));
  }
  {
    SloObjective o;
    o.name = "client-errors";
    o.kind = SloKind::ErrorRatio;
    o.metric = "bbmg_client_request_errors_total";
    o.total_metric = "bbmg_client_requests_total";
    o.target = 0.999;
    out.push_back(std::move(o));
  }
  {
    SloObjective o;
    o.name = "replication-stalled";
    o.kind = SloKind::GaugeAbove;
    o.metric = "bbmg_cluster_replication_stalled";
    o.threshold_us = 0;  // any stalled session at all is bad
    out.push_back(std::move(o));
  }
  {
    SloObjective o;
    o.name = "accept-errors";
    o.kind = SloKind::ErrorRatio;
    o.metric = "bbmg_serve_accept_errors_total";
    o.total_metric = "bbmg_serve_connections_total";
    o.target = 0.999;
    out.push_back(std::move(o));
  }
  return out;
}

}  // namespace bbmg::monitor
